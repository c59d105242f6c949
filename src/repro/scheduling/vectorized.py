"""Scheduler cores and KV allocators over request rows.

Every scheduler — the paper's four policies, the Table 4 ablations,
the SLO-driven dynamic budget and the fair-admission variant — and
both KV allocators (paged and reservation) operate on row indices into
a :class:`repro.engine.arrays.RequestArrays` instead of ``Request``
objects.  A scheduler owns three pools of rows: ``waiting`` (arrived,
holding no KV memory), ``running`` (admitted, progressing through
prefill and decode) and, with pipeline parallelism, the in-flight
subset claimed by a scheduled-but-uncommitted micro-batch.  The engine
calls ``schedule`` when the first pipeline stage is free and
``on_batch_complete`` when a batch leaves the last stage; progress is
committed at completion time (§2.5).

The speed comes from the composition fast path: the dominant iteration
shape — a block of decodes with no memory pressure — is assembled with
a handful of numpy operations.  Any iteration that could preempt, swap
or otherwise interleave falls back to a scalar walk with the same
semantics.  The frozen digests under ``tests/differential`` pin every
schedule bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque

import numpy as np

from repro.engine.arrays import (
    PH_DECODE,
    PH_FINISHED,
    PH_PREEMPTED,
    PH_PREFILL,
    PH_QUEUED,
    RequestArrays,
)
from repro.memory.prefix import PrefixCacheStats, SharedPrefixStore
from repro.types import IterationTime, PreemptionMode

__all__ = [
    "VecBatch",
    "VecPagedMemory",
    "VecReservationMemory",
    "VecSarathiScheduler",
    "VecDynamicSarathiScheduler",
    "VecVLLMScheduler",
    "VecOrcaScheduler",
    "VecFasterTransformerScheduler",
    "VecChunkedPrefillsOnlyScheduler",
    "VecFairSarathiScheduler",
    "next_chunk_size",
    "DEFAULT_MAX_BATCH_SIZE",
    "DEFAULT_MAX_BATCHED_TOKENS",
]

DEFAULT_MAX_BATCH_SIZE = 128
# vLLM's cap on prompt tokens per prefill-only batch.
DEFAULT_MAX_BATCHED_TOKENS = 16384

_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_batch_ids = itertools.count()


def next_chunk_size(remaining: int, token_budget: int, tokens_used: int) -> int:
    """Prompt tokens to prefill in what is left of the token budget.

    ``remaining`` prompt tokens, capped by ``token_budget - tokens_used``;
    0 when the budget is spent or no prefill is left.  Lines 11/15 of
    Algorithm 3 (§4.3).
    """
    if token_budget <= 0:
        raise ValueError("token_budget must be positive")
    if tokens_used < 0:
        raise ValueError("tokens_used must be non-negative")
    return max(0, min(remaining, token_budget - tokens_used))


class VecBatch:
    """One iteration's work as row arrays plus per-item prefill lists.

    Built-in schedulers compose the decode block (row order set by the
    policy) followed by the prefill items.  Plug-in policies may
    interleave the two; ``order`` then lists, per item in directive
    order, its index into ``decode items + prefill items``, and pricing
    (attention summation) and commit (finish order) follow it.
    """

    __slots__ = (
        "batch_id",
        "order",
        "swap_bytes",
        "decode_rows",
        "decode_ctx",
        "p_rows",
        "p_chunk",
        "p_past",
        "p_is_last",
        "p_rows_arr",
        "num_tokens",
        "num_logit_tokens",
        "num_prefill_tokens",
        "num_decode_tokens",
        "num_prefill_seqs",
        "num_decode_seqs",
    )

    def __init__(
        self,
        decode_rows: np.ndarray,
        decode_ctx: np.ndarray,
        p_rows: list[int],
        p_chunk: list[int],
        p_past: list[int],
        p_is_last: list[bool],
        order: list[int] | None = None,
    ) -> None:
        self.batch_id = next(_batch_ids)
        self.order = order
        self.swap_bytes = 0
        self.decode_rows = decode_rows
        self.decode_ctx = decode_ctx
        self.p_rows = p_rows
        self.p_chunk = p_chunk
        self.p_past = p_past
        self.p_is_last = p_is_last
        self.p_rows_arr = (
            np.array(p_rows, dtype=np.int64) if p_rows else _EMPTY_ROWS
        )
        num_decode = len(decode_rows)
        num_prefill_tokens = sum(p_chunk)
        self.num_decode_seqs = num_decode
        self.num_decode_tokens = num_decode
        self.num_prefill_seqs = len(p_rows)
        self.num_prefill_tokens = num_prefill_tokens
        self.num_tokens = num_decode + num_prefill_tokens
        # Decodes always emit; a prefill item prices a logit exactly
        # when it is the prompt's final chunk (TokenWork.emits_token).
        self.num_logit_tokens = num_decode + sum(p_is_last)

    @property
    def size(self) -> int:
        return len(self.decode_rows) + len(self.p_rows)

    def in_order(self, items: list) -> list:
        """Per-item values (decodes then prefills) in batch item order."""
        if self.order is None:
            return items
        return [items[i] for i in self.order]


# ----------------------------------------------------------------------
# Memory managers over rows
# ----------------------------------------------------------------------
class VecPagedMemory:
    """vLLM-style paged KV allocator over rows.

    Requests are admitted when blocks for their prompt are free (plus
    a watermark that prevents immediate thrashing) and grow one block
    at a time during decode; any free block serves any request.

    With a :class:`SharedPrefixStore` attached, lookups fire only for
    fresh rows (``prefill_done == decode_steps == 0``; a swap-in
    restores its KV from host memory), claimed shared blocks shift
    ``prefill_done`` past the cached span while attention cost and
    occupancy still cover the full context, and retained refcount-0
    entries are evicted LRU-first when admissions or decode appends
    need their blocks.
    """

    def __init__(
        self,
        arrays: RequestArrays,
        capacity_tokens: int,
        block_size: int,
        watermark: float = 0.01,
        prefix_store: SharedPrefixStore | None = None,
    ) -> None:
        if capacity_tokens <= 0:
            raise ValueError("capacity_tokens must be positive")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if not 0.0 <= watermark < 1.0:
            raise ValueError("watermark must be in [0, 1)")
        if prefix_store is not None and prefix_store.block_size != block_size:
            raise ValueError(
                f"prefix store block_size {prefix_store.block_size} != "
                f"allocator block_size {block_size}"
            )
        self.A = arrays
        self.block_size = block_size
        self.num_blocks = capacity_tokens // block_size
        self._watermark_blocks = int(self.num_blocks * watermark)
        self.free_blocks = self.num_blocks
        self._held = np.zeros(0, dtype=np.int64)
        self._store = prefix_store
        # Shared blocks each row claimed at admission (parallel to
        # ``_held``, so the bulk-decode fast path stays vectorized).
        self._shared = np.zeros(0, dtype=np.int64)
        self._claim_prefix: dict[int, int] = {}  # row -> claimed prefix id

    def _held_arr(self) -> np.ndarray:
        if self._held.size < self.A.n:
            grown = np.zeros(max(self.A.n, self._held.size * 2), dtype=np.int64)
            grown[: self._held.size] = self._held
            self._held = grown
        return self._held

    def _shared_arr(self) -> np.ndarray:
        if self._shared.size < self.A.n:
            grown = np.zeros(max(self.A.n, self._shared.size * 2), dtype=np.int64)
            grown[: self._shared.size] = self._shared
            self._shared = grown
        return self._shared

    def blocks_for(self, num_tokens: int) -> int:
        return (num_tokens + self.block_size - 1) // self.block_size

    def _initial_blocks(self, row: int) -> int:
        A = self.A
        context = int(A.prefill_done[row] + A.decode_steps[row])
        return self.blocks_for(max(int(A.prefill_target[row]), context))

    # -- prefix-cache plumbing ----------------------------------------
    def _lookup_eligible(self, row: int) -> bool:
        A = self.A
        return (
            self._store is not None
            and A.prefix_id[row] >= 0
            and A.prefill_done[row] == 0
            and A.decode_steps[row] == 0
        )

    def _cached_tokens(self, row: int) -> int:
        if not self._lookup_eligible(row):
            return 0
        A = self.A
        return self._store.usable_tokens(
            int(A.prefix_id[row]),
            int(A.prefix_len[row]),
            int(A.prefill_target[row]),
        )

    def _exclude_id(self, row: int) -> int | None:
        if not self._lookup_eligible(row):
            return None
        return int(self.A.prefix_id[row])

    def _evictable(self, exclude: int | None = None) -> int:
        if self._store is None:
            return 0
        return self._store.evictable_blocks(exclude=exclude)

    @property
    def prefix_stats(self) -> PrefixCacheStats | None:
        return self._store.stats if self._store is not None else None

    # -- allocator operations -----------------------------------------
    def can_admit(self, row: int) -> bool:
        needed = self._initial_blocks(row) - self._cached_tokens(row) // self.block_size
        evictable = self._evictable(exclude=self._exclude_id(row))
        return self.free_blocks + evictable - needed >= self._watermark_blocks

    def _claim_and_reserve(self, row: int, needed_gate: bool) -> bool:
        """Shared admit body: claim the prefix, evict, reserve blocks.

        ``needed_gate`` selects the watermark check (try_admit) versus
        the raise-on-failure contract (admit).  Returns False only in
        gate mode.
        """
        A = self.A
        cached = 0
        if self._lookup_eligible(row):
            cached = self._cached_tokens(row)
        needed = self._initial_blocks(row) - cached // self.block_size
        if needed_gate:
            evictable = self._evictable(exclude=self._exclude_id(row))
            if self.free_blocks + evictable - needed < self._watermark_blocks:
                return False
        if self._lookup_eligible(row):
            claimed = self._store.claim(
                int(A.prefix_id[row]),
                int(A.prefix_len[row]),
                int(A.prefill_target[row]),
                owner=row,
            )
            assert claimed == cached
        if needed > self.free_blocks and self._store is not None:
            self.free_blocks += self._store.evict_for(
                needed - self.free_blocks,
                exclude=int(A.prefix_id[row]) if A.prefix_id[row] >= 0 else None,
            )
        if needed > self.free_blocks:
            if cached:
                self._store.release(int(A.prefix_id[row]), owner=row)
            raise MemoryError(
                f"cannot admit row {row}: needs {needed} blocks, "
                f"{self.free_blocks} free"
            )
        self.free_blocks -= needed
        self._held_arr()[row] = needed
        if cached:
            self._shared_arr()[row] = cached // self.block_size
            self._claim_prefix[row] = int(A.prefix_id[row])
            A.prefill_done[row] = cached
        return True

    def admit(self, row: int) -> None:
        if self._held_arr()[row]:
            raise ValueError(f"row {row} already admitted")
        self._claim_and_reserve(row, needed_gate=False)

    def try_admit(self, row: int) -> bool:
        """can_admit + admit fused (one lookup, one eviction scan)."""
        return self._claim_and_reserve(row, needed_gate=True)

    def _needs_new_block(self, row: int) -> bool:
        A = self.A
        held_tokens = int(
            self._held_arr()[row] + self._shared_arr()[row]
        ) * self.block_size
        return int(A.prefill_done[row] + A.decode_steps[row]) + 1 > held_tokens

    def can_append_token(self, row: int) -> bool:
        if self._held_arr()[row] == 0:
            raise ValueError(f"row {row} holds no allocation")
        if not self._needs_new_block(row):
            return True
        # Shortfall form so a capacity_loss deficit (negative free) is
        # paid down before the append, not papered over.
        return self.free_blocks + self._evictable() >= 1

    def append_token(self, row: int) -> None:
        if self._held_arr()[row] == 0:
            raise ValueError(f"row {row} holds no allocation")
        if not self._needs_new_block(row):
            return
        if self.free_blocks < 1 and self._store is not None:
            self.free_blocks += self._store.evict_for(1 - self.free_blocks)
        if self.free_blocks < 1:
            raise MemoryError("out of KV blocks")
        self.free_blocks -= 1
        self._held_arr()[row] += 1

    def free(self, row: int) -> None:
        held = self._held_arr()
        h = int(held[row])
        if h == 0:
            return  # freeing a row that holds nothing is a no-op
        self.free_blocks += h
        held[row] = 0
        if self._store is None:
            return
        shared = self._shared_arr()
        if shared[row]:
            self._store.release(self._claim_prefix.pop(row), owner=row)
            shared[row] = 0
        A = self.A
        if A.phase[row] == PH_FINISHED and A.prefix_id[row] >= 0:
            context = int(A.prefill_done[row] + A.decode_steps[row])
            cap = int(A.prefix_publish_len[row])
            publish = context if cap < 0 else min(cap, context)
            absorbed = self._store.register(
                int(A.prefix_id[row]), int(A.prefix_len[row]), publish
            )
            self.free_blocks -= absorbed

    def try_bulk_decode(self, rows: np.ndarray, ctx: np.ndarray) -> bool:
        """Reserve one decode slot for every row, or change nothing.

        Succeeds exactly when a per-row ``append_token`` sequence would
        have succeeded without preemption: each row needs at most one
        fresh block, so the sequential drains succeed iff free +
        evictable blocks cover the count.  Evicting the shortfall up
        front reclaims the same LRU entries one-block-at-a-time appends
        would have, in the same order — no running row references a
        refcount-0 entry, so candidates cannot differ.
        """
        held = self._held_arr()[rows]
        shared = self._shared_arr()[rows]
        needs = ctx + 1 > (held + shared) * self.block_size
        count = int(needs.sum())
        shortfall = count - self.free_blocks
        if shortfall > 0:
            if self._store is None or self._evictable() < shortfall:
                return False
            self.free_blocks += self._store.evict_for(shortfall)
            if count > self.free_blocks:  # pragma: no cover - defensive
                return False
        if count:
            self._held[rows] = held + needs
            self.free_blocks -= count
        return True

    @property
    def free_token_slots(self) -> int:
        return self.free_blocks * self.block_size

    @property
    def total_token_slots(self) -> int:
        return self.num_blocks * self.block_size

    @property
    def occupancy(self) -> float:
        total = self.total_token_slots
        if total <= 0:
            return 0.0
        return 1.0 - self.free_token_slots / total

    # -- capacity faults ----------------------------------------------
    def shed_capacity(self, fraction: float) -> int:
        # Free may go negative: already-admitted work is never seized;
        # admissions fail and the normal eviction/preemption machinery
        # works the deficit off.
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        lost = int(self.num_blocks * fraction)
        self.num_blocks -= lost
        self.free_blocks -= lost
        return lost

    def restore_capacity(self, amount: int) -> None:
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        self.num_blocks += amount
        self.free_blocks += amount


class VecReservationMemory:
    """Orca/FasterTransformer-style allocator over rows: each admission
    reserves a worst-case contiguous slot (``max(reserve_len, prompt +
    remaining output)``), so growth never fails but admission caps the
    batch far below paged memory (§5.1)."""

    def __init__(
        self, arrays: RequestArrays, capacity_tokens: int, reserve_len: int
    ) -> None:
        if capacity_tokens <= 0:
            raise ValueError("capacity_tokens must be positive")
        if reserve_len <= 0:
            raise ValueError("reserve_len must be positive")
        self.A = arrays
        self.capacity_tokens = capacity_tokens
        self.reserve_len = reserve_len
        self.free_tokens = capacity_tokens
        self._reserved = np.zeros(0, dtype=np.int64)

    def _reserved_arr(self) -> np.ndarray:
        if self._reserved.size < self.A.n:
            grown = np.zeros(max(self.A.n, self._reserved.size * 2), dtype=np.int64)
            grown[: self._reserved.size] = self._reserved
            self._reserved = grown
        return self._reserved

    def _reservation_for(self, row: int) -> int:
        A = self.A
        remaining_output = int(A.output_len[row] - A.num_emitted[row])
        return max(self.reserve_len, int(A.prefill_target[row]) + remaining_output)

    def can_admit(self, row: int) -> bool:
        return self.free_tokens >= self._reservation_for(row)

    def admit(self, row: int) -> None:
        reserved = self._reserved_arr()
        needed = self._reservation_for(row)
        if needed > self.free_tokens:
            raise MemoryError(
                f"cannot admit row {row}: needs {needed} token slots, "
                f"{self.free_tokens} free"
            )
        self.free_tokens -= needed
        reserved[row] = needed

    def try_admit(self, row: int) -> bool:
        """can_admit + admit with the reservation computed once."""
        needed = self._reservation_for(row)
        if needed > self.free_tokens:
            return False
        self.free_tokens -= needed
        self._reserved_arr()[row] = needed
        return True

    def can_append_token(self, row: int) -> bool:
        return self._reserved_arr()[row] > 0

    def append_token(self, row: int) -> None:
        # Growth is prepaid by the reservation.
        return

    def free(self, row: int) -> None:
        reserved = self._reserved_arr()
        self.free_tokens += int(reserved[row])
        reserved[row] = 0

    def try_bulk_decode(self, rows: np.ndarray, ctx: np.ndarray) -> bool:
        return True

    @property
    def free_token_slots(self) -> int:
        return self.free_tokens

    @property
    def total_token_slots(self) -> int:
        return self.capacity_tokens

    @property
    def occupancy(self) -> float:
        total = self.total_token_slots
        if total <= 0:
            return 0.0
        return 1.0 - self.free_token_slots / total

    # -- capacity faults ----------------------------------------------
    def shed_capacity(self, fraction: float) -> int:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        lost = int(self.capacity_tokens * fraction)
        self.capacity_tokens -= lost
        self.free_tokens -= lost
        return lost

    def restore_capacity(self, amount: int) -> None:
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        self.capacity_tokens += amount
        self.free_tokens += amount


# ----------------------------------------------------------------------
# Scheduler core base
# ----------------------------------------------------------------------
class VecScheduler:
    """Shared pools, counters and preemption machinery.

    On single-stage (pp=1) engines at most one batch is ever in
    flight, so the in-flight set is empty whenever ``_build_batch``
    runs and tracking it would be pure overhead; the engine flips
    ``track_in_flight`` on for pipelined deployments, where requests
    stay claimed across several stage iterations and must be excluded
    from re-batching.

    ``preemption_mode`` selects what happens to an evicted request:
    ``"recompute"`` re-queues it to re-prefill from scratch (vLLM's
    default), ``"swap"`` parks its KV cache in host memory and swaps it
    back when space frees up — the engine charges the transfer volume
    (``kv_bytes_per_token`` × context) to the surrounding iterations.
    A request that must evict *itself* always recomputes.

    Built-in policies compose their batches from the blocks under
    "batch-building blocks" below, each in its algorithm's order.
    """

    # Optional fleet-level admission hook (the plug-in protocol's second
    # hook, see repro.scheduling.policy): a callable
    # ``(snapshot: ReplicaSnapshot, request, now) -> bool`` consulted by
    # the fleet router before delivering a request to this scheduler's
    # replica; False defers the request into the router's backoff-retry
    # loop.  None (the default for all built-in schedulers) admits
    # unconditionally.
    admission_hook = None

    # Baseline budgets stashed by the first override_token_budget call:
    # (token_budget, min_budget, max_budget) with None for absent attrs.
    _base_budgets = None

    def override_token_budget(self, budget: int | None) -> None:
        """Clamp the per-iteration token budget (brownout hook).

        ``None`` restores the configured baseline.  Schedulers without
        a token budget (e.g. FasterTransformer) ignore the call.
        Dynamic-budget schedulers clamp their search *range* instead —
        their ``token_budget`` is recomputed every batch.
        """
        if not hasattr(self, "token_budget"):
            return
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if self._base_budgets is None:
            self._base_budgets = (
                self.token_budget,
                getattr(self, "min_budget", None),
                getattr(self, "max_budget", None),
            )
        base_budget, base_min, base_max = self._base_budgets
        if budget is None:
            self.token_budget = base_budget
            if base_min is not None:
                self.min_budget = base_min
            if base_max is not None:
                self.max_budget = base_max
            return
        if base_max is not None:
            self.max_budget = min(base_max, budget)
            self.min_budget = min(base_min, self.max_budget)
        else:
            self.token_budget = min(base_budget, budget)

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory | VecReservationMemory,
        max_batch_size: int,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        preemption_mode = PreemptionMode.parse(preemption_mode)
        if preemption_mode is PreemptionMode.SWAP and kv_bytes_per_token <= 0:
            raise ValueError("swap mode needs kv_bytes_per_token > 0")
        self.A = arrays
        self.memory = memory
        self.max_batch_size = max_batch_size
        self.preemption_mode = preemption_mode
        self.kv_bytes_per_token = kv_bytes_per_token
        self.waiting: deque[int] = deque()
        self.running: list[int] = []
        self._running_set: set[int] = set()
        # Rows whose KV cache lives outside the pool until it has room:
        # swapped out, or arrived prefilled (see ``add_row``).
        self.swapped: list[int] = []
        self._claimed: set[int] = set()
        # Rows scheduled into a batch that has not completed yet; only
        # populated when the engine sets ``track_in_flight`` (pp > 1).
        self._in_flight: set[int] = set()
        self.track_in_flight = False
        self._pending_swap_bytes = 0
        self.num_scheduled_batches = 0
        self.num_preemptions = 0
        self.num_swap_outs = 0
        self.num_swap_ins = 0
        # Live workload gauges the fleet router reads per arrival; kept
        # incrementally so snapshots stay O(1) instead of O(requests).
        self.num_pending = 0
        self.outstanding_tokens = 0
        # Bumped whenever the running set, the in-flight set or any
        # member's prefill status changes; ``_partition`` keys its cache
        # on it.
        self._run_version = 0
        self._partition_version = -1
        self._partitioned = (_EMPTY_ROWS, _EMPTY_ROWS, _EMPTY_ROWS)

    # -- engine-facing -------------------------------------------------
    def add_row(self, row: int, now: float) -> None:
        A = self.A
        arrival = float(A.arrival_time[row])
        if arrival > now + 1e-9:
            raise ValueError(
                f"request {A.requests[row].request_id} arrives at {arrival}, "
                f"but now is {now}"
            )
        if A.prefill_done[row] < A.prefill_target[row]:
            self.waiting.append(row)
        else:
            # Arrived prefilled (its KV cache migrated in): it waits
            # with the swapped-out rows for room, then decodes.
            self.swapped.append(row)

    def note_ingested(self, row: int) -> None:
        """Account a freshly mirrored row into the workload gauges."""
        A = self.A
        self.num_pending += 1
        self.outstanding_tokens += int(
            (A.prefill_target[row] - A.prefill_done[row])
            + (A.output_len[row] - A.num_emitted[row])
        )

    def schedule(self, now: float) -> VecBatch | None:
        self._claimed.clear()
        self._try_swap_in()
        batch = self._build_batch(now)
        self._claimed.clear()
        if batch is None:
            return None
        batch.swap_bytes = self._pending_swap_bytes
        self._pending_swap_bytes = 0
        A = self.A
        prows = batch.p_rows_arr
        if len(prows):
            first_sched = A.first_scheduled_at[prows]
            fresh = np.isnan(first_sched)
            if fresh.any():
                A.first_scheduled_at[prows[fresh]] = now
            queued = A.phase[prows] == PH_QUEUED
            if queued.any():
                A.phase[prows[queued]] = PH_PREFILL
        # Decode rows need no transitions: a decoding request was
        # scheduled before (first_scheduled_at set) and left QUEUED at
        # its first prefill (or at swap-in).
        if self.track_in_flight:
            in_flight = self._in_flight
            in_flight.update(batch.decode_rows.tolist())
            in_flight.update(batch.p_rows)
            self._run_version += 1
        self.num_scheduled_batches += 1
        return batch

    def on_batch_complete(
        self, batch: VecBatch, now: float
    ) -> tuple[list[int], list[int]]:
        """Commit one iteration's progress.

        Returns ``(finished, prefill_emits)``: rows that finished, in
        batch item order, and prefill rows whose completed chunk
        emitted the request's first token this iteration.  Finished
        rows free their memory in that order too (prefix-store
        publication order is observable through LRU eviction).
        """
        A = self.A
        if self._in_flight:
            self._in_flight.difference_update(batch.decode_rows.tolist())
            self._in_flight.difference_update(batch.p_rows)
            self._run_version += 1
        finished: list[int] = []
        prefill_emits: list[int] = []
        rows = batch.decode_rows
        if len(rows):
            A.decode_steps[rows] += 1
            A.num_emitted[rows] += 1
            A.prev_emit[rows] = A.last_emit[rows]
            A.last_emit[rows] = now
            self.outstanding_tokens -= len(rows)
            fin_mask = A.num_emitted[rows] >= A.output_len[rows]
            if fin_mask.any():
                fin_rows = rows[fin_mask]
                A.phase[fin_rows] = PH_FINISHED
                A.finished_at[fin_rows] = now
                finished.extend(fin_rows.tolist())
                self.num_pending -= len(fin_rows)
        prows = batch.p_rows_arr
        if len(prows):
            # Per-item prefill commits have no cross-item interaction
            # (memory is only freed for finished rows), so committing
            # them as masked vector writes preserves sequential
            # per-item semantics.
            chunks = np.array(batch.p_chunk, dtype=np.int64)
            done = A.prefill_done[prows] + chunks
            A.prefill_done[prows] = done
            self.outstanding_tokens -= int(chunks.sum())
            complete = done >= A.prefill_target[prows]
            if complete.any():
                comp = prows[complete]
                A.phase[comp] = PH_DECODE
                self._run_version += 1
                emits = A.num_emitted[comp] == 0
                if emits.any():
                    emit_rows = comp[emits]
                    A.num_emitted[emit_rows] = 1
                    A.prev_emit[emit_rows] = A.last_emit[emit_rows]
                    A.last_emit[emit_rows] = now
                    no_first = np.isnan(A.first_token_at[emit_rows])
                    if no_first.any():
                        A.first_token_at[emit_rows[no_first]] = now
                    self.outstanding_tokens -= len(emit_rows)
                    prefill_emits = emit_rows.tolist()
                fin = A.num_emitted[comp] >= A.output_len[comp]
                if fin.any():
                    fin_rows = comp[fin]
                    A.phase[fin_rows] = PH_FINISHED
                    A.finished_at[fin_rows] = now
                    finished.extend(fin_rows.tolist())
                    self.num_pending -= len(fin_rows)
        if finished:
            if batch.order is not None and len(finished) > 1:
                items = [*rows.tolist(), *batch.p_rows]
                position = {row: pos for pos, row in enumerate(batch.in_order(items))}
                finished.sort(key=position.__getitem__)
            for row in finished:
                self.memory.free(row)
                self._run_remove(row)
        return finished, prefill_emits

    def _build_batch(self, now: float) -> VecBatch | None:  # pragma: no cover
        """Select rows and their token work for the next iteration."""
        raise NotImplementedError

    # -- pool maintenance ----------------------------------------------
    def _run_add(self, row: int) -> None:
        self.running.append(row)
        self._running_set.add(row)
        self._run_version += 1

    def _run_remove(self, row: int) -> None:
        if row in self._running_set:
            self.running.remove(row)
            self._running_set.remove(row)
            self._run_version += 1

    def _schedulable_rows(self) -> list[int]:
        """Running rows not claimed by an in-flight batch, running order.

        With tracking off (pp=1) the in-flight set is empty and this is
        just ``running``.
        """
        in_flight = self._in_flight
        if not in_flight:
            return self.running
        return [r for r in self.running if r not in in_flight]

    # -- shared policy helpers ------------------------------------------
    def _admit_waiting_head(self) -> int | None:
        """Admit the FCFS head of the waiting queue if memory allows."""
        if not self.waiting:
            return None
        head = self.waiting[0]
        if not self._try_admit(head):
            return None
        self.waiting.popleft()
        self._run_add(head)
        return head

    def _try_admit(self, row: int) -> bool:
        # A prefix-cache hit advances prefill_done inside try_admit;
        # the skipped tokens leave the outstanding-work gauge.
        done_before = int(self.A.prefill_done[row])
        if not self.memory.try_admit(row):
            return False
        cached = int(self.A.prefill_done[row]) - done_before
        if cached:
            self.outstanding_tokens -= cached
        return True

    def _prepare_decode(self, row: int) -> bool:
        """Reserve the KV slot for ``row``'s next token, preempting
        lower-priority rows if needed.  Returns False when the row
        cannot decode this iteration (including when it preempted
        *itself*)."""
        if not self._preempt_for_decode(row):
            return False
        self.memory.append_token(row)
        self._claimed.add(row)
        return True

    def _preempt_for_decode(self, row: int) -> bool:
        """vLLM's policy: evict the most recently arrived running row
        and re-queue it at the front of the waiting queue; when ``row``
        is itself the lowest priority left, it self-preempts (and must
        recompute even in swap mode — swapping itself out and straight
        back in could never make progress)."""
        A = self.A
        while not self.memory.can_append_token(row):
            victim = self._pick_preemption_victim(row)
            if victim is None or A.arrival_time[victim] < A.arrival_time[row]:
                self._evict(row, force_recompute=True)
                return False
            self._evict(victim)
        return True

    def _pick_preemption_victim(self, protect: int) -> int | None:
        # The *first* row (running order) with the strictly greatest
        # arrival time wins.  In-flight rows are never victims (their
        # KV is in use by a pipelined batch); the set is empty at pp=1.
        arrival = self.A.arrival_time
        claimed = self._claimed
        in_flight = self._in_flight
        best: int | None = None
        best_time = -math.inf
        for row in self.running:
            if row == protect or row in claimed or row in in_flight:
                continue
            t = arrival[row]
            if t > best_time:
                best = row
                best_time = t
        return best

    def _evict(self, victim: int, force_recompute: bool = False) -> None:
        if self.preemption_mode is PreemptionMode.SWAP and not force_recompute:
            self._swap_out(victim)
            return
        A = self.A
        self.memory.free(victim)
        old_remaining = int(A.prefill_target[victim] - A.prefill_done[victim])
        A.prefill_target[victim] = A.prompt_len[victim] + A.num_emitted[victim]
        A.prefill_done[victim] = 0
        A.decode_steps[victim] = 0
        A.phase[victim] = PH_QUEUED
        A.num_restarts[victim] += 1
        self.outstanding_tokens += int(A.prefill_target[victim]) - old_remaining
        self._run_remove(victim)
        self.waiting.appendleft(victim)
        self.num_preemptions += 1

    def _swap_out(self, victim: int) -> None:
        A = self.A
        context = int(A.prefill_done[victim] + A.decode_steps[victim])
        self._pending_swap_bytes += self.kv_bytes_per_token * context
        self.memory.free(victim)
        A.phase[victim] = PH_PREEMPTED
        self._run_remove(victim)
        self.swapped.append(victim)
        self.num_preemptions += 1
        self.num_swap_outs += 1

    def _try_swap_in(self) -> None:
        """Admit every held row whose context now fits.

        A swapped-out row pays its swap-in transfer; a row that arrived
        prefilled brought its KV cache along and pays nothing here.
        """
        if not self.swapped:
            return
        A = self.A
        still_out = []
        for row in self.swapped:
            if self.memory.can_admit(row):
                self.memory.admit(row)
                if A.phase[row] == PH_PREEMPTED:
                    context = int(A.prefill_done[row] + A.decode_steps[row])
                    self._pending_swap_bytes += self.kv_bytes_per_token * context
                    self.num_swap_ins += 1
                A.phase[row] = (
                    PH_DECODE
                    if A.prefill_done[row] >= A.prefill_target[row]
                    else PH_PREFILL
                )
                self._run_add(row)
            else:
                still_out.append(row)
        self.swapped = still_out

    # -- batch-building blocks -------------------------------------------
    # A prefill block appends to ``prefills``, the batch's
    # ``(p_rows, p_chunk, p_past, p_is_last)`` lists, and returns the
    # batch's new ``(tokens used, size)``.  ``sizing(row, used)`` is the
    # policy's rule for the prompt tokens ``row`` may prefill when the
    # batch already holds ``used`` tokens; 0 stops the block.
    def _partition(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(running, decodes, partials)`` over the schedulable rows.

        ``running`` is in running (admission) order; ``decodes`` are
        its prefill-complete rows stably sorted by arrival (the FCFS
        decode order) and ``partials`` the rest, in running order.
        Cached per ``_run_version``, so the steady decode loop pays
        O(1) per iteration instead of O(B log B).
        """
        if self._partition_version != self._run_version:
            A = self.A
            running = np.array(self._schedulable_rows(), dtype=np.int64)
            complete = A.prefill_done[running] >= A.prefill_target[running]
            decodes = running[complete]
            order = np.argsort(A.arrival_time[decodes], kind="stable")
            self._partitioned = (running, decodes[order], running[~complete])
            self._partition_version = self._run_version
        return self._partitioned

    def _decode_block(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode rows and their contexts: ``rows`` in order, up to the
        batch-size cap.

        One bulk KV reservation in the common case.  Under memory
        pressure, an exact scalar walk that preempts as it goes; an
        evicted row is skipped and does not count toward the cap.
        """
        A = self.A
        cand = rows[: self.max_batch_size]
        if not len(cand):
            return _EMPTY_ROWS, _EMPTY_ROWS
        ctx = A.prefill_done[cand] + A.decode_steps[cand]
        if self.memory.try_bulk_decode(cand, ctx):
            return cand, ctx
        kept: list[int] = []
        ctxs: list[int] = []
        running_set = self._running_set
        for row in rows.tolist():
            if len(kept) >= self.max_batch_size:
                break
            if row not in running_set:
                continue  # evicted by an earlier preemption
            if not self._prepare_decode(row):
                continue
            kept.append(row)
            ctxs.append(int(A.prefill_done[row] + A.decode_steps[row]))
        return np.array(kept, dtype=np.int64), np.array(ctxs, dtype=np.int64)

    def _remaining(self, row: int) -> int:
        """Prompt tokens ``row`` has left to prefill."""
        return int(self.A.prefill_target[row] - self.A.prefill_done[row])

    def _whole_prompt(self, row: int, used: int) -> int:
        """Sizing rule with no token budget: the whole remaining prompt."""
        return self._remaining(row)

    def _add_prefill(self, prefills: tuple, row: int, chunk: int) -> None:
        """Append ``row``'s next ``chunk`` prompt tokens to ``prefills``."""
        p_rows, p_chunk, p_past, p_is_last = prefills
        p_rows.append(row)
        p_chunk.append(chunk)
        p_past.append(int(self.A.prefill_done[row]))
        p_is_last.append(chunk >= self._remaining(row))

    def _continue_prefills(
        self, prefills: tuple, partials: np.ndarray, used: int, size: int, sizing
    ) -> tuple[int, int]:
        """Advance mid-prefill running rows, in order (Algorithm 3,
        lines 9-12)."""
        running_set = self._running_set
        for row in partials.tolist():
            if size >= self.max_batch_size:
                break
            if row not in running_set:
                continue  # evicted by a preemption in the decode block
            chunk = sizing(row, used)
            if chunk <= 0:
                break
            self._add_prefill(prefills, row, chunk)
            used += chunk
            size += 1
        return used, size

    def _admit_prefills(
        self, prefills: tuple, used: int, size: int, sizing
    ) -> tuple[int, int]:
        """Admit the FCFS waiting head while the batch has room, its
        memory fits and ``sizing`` grants it tokens (Algorithm 3,
        lines 13-20)."""
        waiting = self.waiting
        while waiting and size < self.max_batch_size:
            head = waiting[0]
            if sizing(head, used) <= 0 or self._admit_waiting_head() is None:
                break
            # Admission may have claimed a cached prefix, shrinking the
            # remaining prefill below the pre-admission estimate; size
            # again so the chunk never overruns (still >= 1: the cache
            # always leaves at least one token to prefill).
            chunk = sizing(head, used)
            self._add_prefill(prefills, head, chunk)
            used += chunk
            size += 1
        return used, size

    @staticmethod
    def _batch(decode_rows, decode_ctx, prefills=None) -> VecBatch | None:
        """The composed iteration, or None when it holds no work."""
        prefills = prefills or ([], [], [], [])
        if not len(decode_rows) and not prefills[0]:
            return None
        return VecBatch(decode_rows, decode_ctx, *prefills)

    # -- introspection (fleet snapshot parity) -------------------------
    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def has_work(self) -> bool:
        if self.waiting or self.swapped:
            return True
        if not self._in_flight:
            return bool(self.running)
        in_flight = self._in_flight
        return any(r not in in_flight for r in self.running)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class VecSarathiScheduler(VecScheduler):
    """Stall-free batching with chunked prefills (Algorithm 3).

    Every running decode joins the batch first; partially completed
    prefills continue next, and new requests are admitted FCFS into
    whatever token budget is left, chunked to fit.  ``chunk_prefills=False``
    is the hybrid-batching-only ablation: whole prompts ride along.
    """

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory,
        token_budget: int,
        max_batch_size: int,
        chunk_prefills: bool = True,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        super().__init__(arrays, memory, max_batch_size, preemption_mode, kv_bytes_per_token)
        if token_budget <= 0:
            raise ValueError("token_budget must be positive")
        self.token_budget = token_budget
        self.chunk_prefills = chunk_prefills

    def _build_batch(self, now: float) -> VecBatch | None:
        _, decodes, partials = self._partition()
        decode_rows, decode_ctx = self._decode_block(decodes)
        prefills = [], [], [], []
        used = size = len(decode_rows)
        # Most iterations repeat a decode-only batch; the guards skip
        # two empty block calls on that path.
        if len(partials):
            used, size = self._continue_prefills(
                prefills, partials, used, size, self._chunk_for
            )
        if self.waiting:
            self._admit_prefills(prefills, used, size, self._chunk_for)
        return self._batch(decode_rows, decode_ctx, prefills)

    def _chunk_for(self, row: int, tokens_used: int) -> int:
        """The chunk rule: what is left of the token budget (lines
        11/15), or the whole prompt while any budget is left."""
        remaining = self._remaining(row)
        if not self.chunk_prefills:
            # Hybrid-batching-only ablation: whole prompts; budget only
            # gates whether more requests join.
            return remaining if tokens_used < self.token_budget else 0
        return next_chunk_size(remaining, self.token_budget, tokens_used)


class VecDynamicSarathiScheduler(VecSarathiScheduler):
    """Sarathi with an SLO-driven per-iteration token budget (§5.1).

    Re-runs the §4.3 budget decision every iteration against the live
    decode pool: bisection over the step grid for the largest budget
    whose predicted hybrid-iteration latency (``pp`` stages plus
    ``pp - 1`` sends) meets the TBT SLO.  Candidates are priced from
    the execution model's component prices (the engine's model, so one
    memo serves both), assembled in ``stage_iteration_time``'s
    operation order so every probe produces the float
    ``ExecutionModel.iteration_time`` would.

    The decode pool's attention sum is folded left-to-right once per
    ``_pick_budget`` and shared across probes; every probe folds the
    same prefix, so the shared sum equals a per-probe ``sum(...)``.
    """

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory,
        exec_model,
        tbt_slo: float,
        min_budget: int = 128,
        max_budget: int = 8192,
        budget_step: int = 128,
        max_batch_size: int = 128,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        if tbt_slo <= 0:
            raise ValueError("tbt_slo must be positive")
        if not 0 < min_budget <= max_budget:
            raise ValueError("need 0 < min_budget <= max_budget")
        if budget_step <= 0:
            raise ValueError("budget_step must be positive")
        super().__init__(
            arrays,
            memory,
            token_budget=min_budget,
            max_batch_size=max_batch_size,
            preemption_mode=preemption_mode,
            kv_bytes_per_token=kv_bytes_per_token,
        )
        self.exec_model = exec_model
        self.tbt_slo = tbt_slo
        self.min_budget = min_budget
        self.max_budget = max_budget
        self.budget_step = budget_step
        self.budget_history: list[int] = []
        self._pp = exec_model.parallel.pipeline_parallel
        self._overhead = exec_model._fixed_overhead(True)

    def _build_batch(self, now: float) -> VecBatch | None:
        self.token_budget = self._pick_budget()
        self.budget_history.append(self.token_budget)
        return super()._build_batch(now)

    # ------------------------------------------------------------------
    def _pick_budget(self) -> int:
        """Largest budget whose predicted iteration fits the SLO."""
        A = self.A
        rows = self._partition()[0]
        rows = rows[A.prefill_done[rows] >= A.prefill_target[rows]]
        decode_attn = 0
        for value in self.exec_model.decode_attention_times(
            A.prefill_done[rows] + A.decode_steps[rows]
        ):
            decode_attn = decode_attn + value
        num_decodes = len(rows)
        lo = self.min_budget
        if not self._fits(lo, num_decodes, decode_attn):
            return self.min_budget
        hi = self.max_budget
        if self._fits(hi, num_decodes, decode_attn):
            return self.max_budget
        while hi - lo > self.budget_step:
            mid = lo + (hi - lo) // (2 * self.budget_step) * self.budget_step
            if mid == lo:
                break
            if self._fits(mid, num_decodes, decode_attn):
                lo = mid
            else:
                hi = mid
        return lo

    def _fits(self, budget: int, num_decodes: int, decode_attn: float) -> bool:
        model = self.exec_model
        num_tokens = num_decodes
        attention = decode_attn
        prefill_tokens = budget - num_decodes
        if prefill_tokens > 0:
            attention = attention + model.attention_time(prefill_tokens, budget, True)
            num_tokens += prefill_tokens
        elif num_decodes == 0:
            return True  # empty candidate
        linear = model.linear_time(num_tokens, num_decodes)
        others, communication = model.token_terms(num_tokens)
        stage = IterationTime(
            linear, attention, others, communication, self._overhead
        ).total
        if self._pp == 1:
            cost = stage
        else:
            cost = self._pp * stage + (self._pp - 1) * model.send_time(num_tokens)
        return cost <= self.tbt_slo


class VecVLLMScheduler(VecScheduler):
    """vLLM (Algorithm 2): eager prefill-only batches whenever requests
    wait and memory allows, otherwise a decode-only batch."""

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory,
        max_batch_size: int,
        max_batched_tokens: int = DEFAULT_MAX_BATCHED_TOKENS,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        super().__init__(arrays, memory, max_batch_size, preemption_mode, kv_bytes_per_token)
        if max_batched_tokens <= 0:
            raise ValueError("max_batched_tokens must be positive")
        self.max_batched_tokens = max_batched_tokens

    def _build_batch(self, now: float) -> VecBatch | None:
        # Eager prefills first (lines 5-9), while the running set has
        # room; otherwise a decode-only batch (line 12).
        prefills = [], [], [], []
        self._admit_prefills(prefills, 0, len(self.running), self._capped_prompt)
        if prefills[0]:
            return VecBatch(_EMPTY_ROWS, _EMPTY_ROWS, *prefills)
        return self._batch(*self._decode_block(self._partition()[1]))

    def _capped_prompt(self, row: int, used: int) -> int:
        """The whole prompt, unless it would take a non-empty batch
        past ``max_batched_tokens``."""
        if used and used + int(self.A.prefill_target[row]) > self.max_batched_tokens:
            return 0
        return self._remaining(row)


class VecOrcaScheduler(VecScheduler):
    """Orca: iteration-level batching with eager full prefills riding
    along with every running decode, over reservation memory.

    Decodes run in running (admission) order, not arrival order: a
    failed-over request re-arrives with its original arrival time.
    """

    def _build_batch(self, now: float) -> VecBatch | None:
        running, _, partials = self._partition()
        if len(partials):
            # A running request's full prefill always commits with the
            # batch that admitted it (in-flight rows are excluded), so
            # a partial schedulable runner is a scheduler bug.
            raise RuntimeError(
                f"{type(self).__name__} saw a partially prefilled running request"
            )
        decode_rows, decode_ctx = self._decode_block(running)
        prefills = [], [], [], []
        if self._admission_open():
            self._admit_prefills(prefills, 0, len(decode_rows), self._whole_prompt)
        return self._batch(decode_rows, decode_ctx, prefills)

    def _admission_open(self) -> bool:
        """Whether this iteration may admit waiting requests."""
        return True


class VecFasterTransformerScheduler(VecOrcaScheduler):
    """FasterTransformer (Algorithm 1): request-level batching — a
    batch runs to full completion before the next one forms.

    Orca with admission open only while the running set is empty: the
    admitting iteration prefills the whole batch (line 8), and the batch
    then decodes until it drains (line 10).
    """

    def _admission_open(self) -> bool:
        return not self.running


class VecChunkedPrefillsOnlyScheduler(VecSarathiScheduler):
    """Table 4 ablation: chunked prefills without hybrid batching —
    prefill-only and decode-only iterations alternate."""

    _last_was_prefill = False

    def _build_batch(self, now: float) -> VecBatch | None:
        if self._last_was_prefill:
            batch = self._decode_only() or self._prefill_only()
        else:
            batch = self._prefill_only() or self._decode_only()
        if batch is not None:
            self._last_was_prefill = bool(batch.p_rows)
        return batch

    def _decode_only(self) -> VecBatch | None:
        return self._batch(*self._decode_block(self._partition()[1]))

    def _prefill_only(self) -> VecBatch | None:
        prefills = [], [], [], []
        used, size = self._continue_prefills(
            prefills, self._partition()[2], 0, 0, self._chunk_for
        )
        self._admit_prefills(prefills, used, size, self._chunk_for)
        return self._batch(_EMPTY_ROWS, _EMPTY_ROWS, prefills)


class VecFairSarathiScheduler(VecSarathiScheduler):
    """Stall-free batching with virtual-token-counter fair admission.

    The paper cites Sheng et al.'s fairness work as complementary to
    Sarathi-Serve (§6).  This is that combination: Algorithm 3's
    stall-free, budget-bounded batching, but admission picks the
    waiting request whose client has been served the fewest
    weight-normalized tokens (prefill tokens + decodes), so a tenant
    flooding the queue only competes against its own backlog.  Decode
    scheduling stays stall-free; fairness is enforced where the
    contention is — admission of new prefill work into the budget.
    """

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory,
        token_budget: int,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        client_weights: dict[int, float] | None = None,
        **kwargs,
    ) -> None:
        """``client_weights`` scales each client's fair share (weight 2
        = entitled to twice the tokens); unknown clients get weight 1."""
        super().__init__(
            arrays, memory, token_budget=token_budget,
            max_batch_size=max_batch_size, **kwargs,
        )
        self.client_weights = dict(client_weights or {})
        for client, weight in self.client_weights.items():
            if weight <= 0:
                raise ValueError(f"client {client} has non-positive weight {weight}")
        self.service_counters: dict[int, float] = defaultdict(float)

    def _weight(self, client_id: int) -> float:
        return self.client_weights.get(client_id, 1.0)

    def _virtual_service(self, client_id: int) -> float:
        """Weight-normalized tokens served — the fairness currency."""
        return self.service_counters[client_id] / self._weight(client_id)

    def _build_batch(self, now: float) -> VecBatch | None:
        # Reorder the waiting queue so the least-served client's oldest
        # request sits at the head; Sarathi then admits head-first.
        requests = self.A.requests
        if len(self.waiting) > 1:
            arrival = self.A.arrival_time
            ordered = sorted(
                self.waiting,
                key=lambda row: (
                    self._virtual_service(requests[row].client_id),
                    float(arrival[row]),
                ),
            )
            self.waiting.clear()
            self.waiting.extend(ordered)
        batch = super()._build_batch(now)
        if batch is not None:
            counters = self.service_counters
            for row in batch.decode_rows.tolist():
                counters[requests[row].client_id] += 1
            for row, chunk in zip(batch.p_rows, batch.p_chunk):
                counters[requests[row].client_id] += chunk
        return batch

    def fairness_report(self) -> dict[int, float]:
        """Weight-normalized service per client (equal values = fair)."""
        return {
            client: self._virtual_service(client) for client in self.service_counters
        }
