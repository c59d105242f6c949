"""Shared KV prefix store: ref-counted cross-request block reuse.

Multi-round conversations and fleet tenants with common system prompts
re-prefill the same leading tokens on every request.  The store keeps
those leading blocks alive after their owning request finishes, keyed
by a *prefix id* (conversation or tenant identity), so a later request
in the same lineage can claim them instead of recomputing.

Design constraints, in order:

* **Correct-by-accounting.**  The store never fabricates capacity: a
  shared block is a real block moved out of the allocator's free pool
  when published and moved back when evicted.  The conservation
  invariant ``free + exclusive + shared == total`` holds at every step
  (property-tested in ``tests/test_prefix_properties.py``).
* **Deterministic.**  Eviction is strict LRU over a monotone logical
  clock bumped only by claims and registrations, so a replayed run
  evolves its store identically.
* **Block-aligned sharing with copy-on-write.**  Only whole blocks are
  shared.  A request whose ``prefix_len`` diverges mid-block shares
  the last fully-matching block boundary and writes the divergent
  block fresh (the copy-on-write copy, counted in ``cow_copies``);
  the shared entry itself is never mutated by a claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PrefixCacheStats:
    """Counters the store accumulates over a run."""

    hits: int = 0
    misses: int = 0
    hit_tokens: int = 0       # prefill tokens skipped thanks to reuse
    cow_copies: int = 0       # mid-block divergences paid with a fresh block
    registrations: int = 0    # entries created or extended at finish
    evictions: int = 0        # entries reclaimed under memory pressure

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_row(self) -> dict[str, float]:
        return {
            "prefix_hits": self.hits,
            "prefix_misses": self.misses,
            "prefix_hit_rate": self.hit_rate,
            "prefix_hit_tokens": self.hit_tokens,
            "prefix_cow_copies": self.cow_copies,
            "prefix_registrations": self.registrations,
            "prefix_evictions": self.evictions,
        }


@dataclass
class _Entry:
    """One published prefix: ``blocks`` whole blocks covering ``tokens``."""

    prefix_id: int
    tokens: int        # always a multiple of the block size
    blocks: int        # == tokens // block_size, kept for O(1) sums
    refcount: int      # running requests currently sharing the entry
    last_use: int      # logical clock of the last claim/registration
    owners: tuple[int, ...] = field(default_factory=tuple)  # claiming request ids


class SharedPrefixStore:
    """Ref-counted prefix entries living inside one paged allocator.

    The owning :class:`~repro.scheduling.vectorized.VecPagedMemory` is
    responsible for moving blocks between its free pool and the store;
    the store only does the bookkeeping.
    Entries with ``refcount == 0`` are *retained* — they keep serving
    hits until the allocator needs their blocks back and evicts them
    LRU-first via :meth:`evict_for`.
    """

    def __init__(self, block_size: int) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self._entries: dict[int, _Entry] = {}
        self._clock = 0
        self._shared_blocks = 0
        self.stats = PrefixCacheStats()

    # -- introspection -------------------------------------------------
    @property
    def shared_blocks(self) -> int:
        """Blocks currently owned by the store (referenced or retained)."""
        return self._shared_blocks

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def entry_tokens(self, prefix_id: int) -> int:
        """Published token coverage for a prefix id (0 when absent)."""
        entry = self._entries.get(prefix_id)
        return entry.tokens if entry is not None else 0

    def entry_refcount(self, prefix_id: int) -> int:
        entry = self._entries.get(prefix_id)
        return entry.refcount if entry is not None else 0

    def entry_owners(self, prefix_id: int) -> tuple[int, ...]:
        """Request ids currently sharing the entry (for invariant tests)."""
        entry = self._entries.get(prefix_id)
        return entry.owners if entry is not None else ()

    def evictable_blocks(self, exclude: int | None = None) -> int:
        """Blocks reclaimable right now (refcount-0 entries)."""
        return sum(
            e.blocks
            for e in self._entries.values()
            if e.refcount == 0 and e.prefix_id != exclude
        )

    # -- lookup / claim ------------------------------------------------
    def usable_tokens(self, prefix_id: int, prefix_len: int, prefill_target: int) -> int:
        """Cached tokens an admission could skip — pure, no side effects.

        The usable span is the largest whole-block prefix that is (a)
        published, (b) attested identical by the request's
        ``prefix_len``, and (c) strictly shorter than the prefill
        target, so every request still computes at least one token and
        emits its first token from a real prefill chunk.
        """
        entry = self._entries.get(prefix_id)
        if entry is None:
            return 0
        bs = self.block_size
        usable = min(
            entry.tokens,
            (prefix_len // bs) * bs,
            ((prefill_target - 1) // bs) * bs,
        )
        return usable if usable > 0 else 0

    def claim(
        self, prefix_id: int, prefix_len: int, prefill_target: int, owner: int
    ) -> int:
        """Take a reference at admission time; returns cached tokens.

        A zero return is a miss (no entry, or nothing usable) and takes
        no reference.  ``owner`` tags the claiming request for the
        owner-set invariant; claims never mutate the entry's published
        coverage.
        """
        entry = self._entries.get(prefix_id)
        if entry is None:
            self.stats.misses += 1
            return 0
        cached = self.usable_tokens(prefix_id, prefix_len, prefill_target)
        if cached <= 0:
            self.stats.misses += 1
            return 0
        self._clock += 1
        entry.last_use = self._clock
        entry.refcount += 1
        entry.owners = entry.owners + (owner,)
        self.stats.hits += 1
        self.stats.hit_tokens += cached
        # Copy-on-write: the request matches the entry only up to a
        # mid-block divergence point, so its first novel block is a
        # fresh copy of a shared block (already part of its exclusive
        # allocation — this is pure accounting).
        bs = self.block_size
        aligned_prefix = (prefix_len // bs) * bs
        if cached == aligned_prefix and cached < entry.tokens and prefix_len % bs:
            self.stats.cow_copies += 1
        return cached

    def release(self, prefix_id: int, owner: int) -> None:
        """Drop a reference taken by :meth:`claim` (entry is retained)."""
        entry = self._entries[prefix_id]
        if entry.refcount <= 0:
            raise ValueError(f"prefix {prefix_id} released more than claimed")
        entry.refcount -= 1
        owners = list(entry.owners)
        owners.remove(owner)
        entry.owners = tuple(owners)

    # -- publication ---------------------------------------------------
    def register(self, prefix_id: int, prefix_len: int, publish_tokens: int) -> int:
        """Publish a finished request's context; returns blocks absorbed.

        The caller moves the returned number of blocks from the
        request's just-freed exclusive pool into the store.  Three
        cases:

        * no entry yet → create one covering ``publish_tokens`` aligned
          down to whole blocks;
        * the request's attested prefix (``prefix_len``) covers the
          whole existing entry and it publishes more → extend;
        * anything else (divergent or shorter history) → conservative
          no-op: the existing entry keeps serving its claimants.
        """
        bs = self.block_size
        publish_aligned = (publish_tokens // bs) * bs
        if publish_aligned <= 0:
            return 0
        entry = self._entries.get(prefix_id)
        if entry is None:
            self._clock += 1
            blocks = publish_aligned // bs
            self._entries[prefix_id] = _Entry(
                prefix_id=prefix_id,
                tokens=publish_aligned,
                blocks=blocks,
                refcount=0,
                last_use=self._clock,
            )
            self.stats.registrations += 1
            self._shared_blocks += blocks
            return blocks
        aligned_prefix = (prefix_len // bs) * bs
        if aligned_prefix >= entry.tokens and publish_aligned > entry.tokens:
            self._clock += 1
            delta = (publish_aligned - entry.tokens) // bs
            entry.tokens = publish_aligned
            entry.blocks += delta
            entry.last_use = self._clock
            self.stats.registrations += 1
            self._shared_blocks += delta
            return delta
        return 0

    # -- eviction ------------------------------------------------------
    def evict_for(self, blocks_needed: int, exclude: int | None = None) -> int:
        """Reclaim at least ``blocks_needed`` blocks if possible.

        Evicts whole refcount-0 entries in strict LRU order until the
        target is covered (or no candidates remain); returns the blocks
        actually reclaimed.  ``exclude`` protects the entry an ongoing
        admission is about to claim.
        """
        if blocks_needed <= 0:
            return 0
        candidates = sorted(
            (
                e
                for e in self._entries.values()
                if e.refcount == 0 and e.prefix_id != exclude
            ),
            key=lambda e: e.last_use,
        )
        reclaimed = 0
        for entry in candidates:
            if reclaimed >= blocks_needed:
                break
            del self._entries[entry.prefix_id]
            self._shared_blocks -= entry.blocks
            reclaimed += entry.blocks
            self.stats.evictions += 1
        return reclaimed
