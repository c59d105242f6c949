"""Property tests for the shared-block allocator (Hypothesis).

A random interleaving of admissions, decode growth, frees and direct
store eviction must preserve, at every step:

* **Conservation** — free + exclusive + shared blocks == total blocks.
* **Reference safety** — no block is reclaimed while a running request
  references it (an entry with refcount > 0 is never evicted).
* **Claim immutability** — a claim never changes an entry's published
  coverage; the owner set changes only via claim/release.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.arrays import PH_FINISHED, RequestArrays
from repro.memory.prefix import SharedPrefixStore
from repro.scheduling.vectorized import VecPagedMemory
from repro.types import Request

BS = 16
NUM_BLOCKS = 24  # tight pool so eviction pressure actually happens


def _conserved(manager: VecPagedMemory, store: SharedPrefixStore) -> bool:
    exclusive = int(manager._held_arr().sum())
    return (
        manager.free_blocks + exclusive + store.shared_blocks
        == manager.num_blocks
    )


class _Pool:
    """Applies one random op; keeps live rows for follow-up ops."""

    def __init__(self) -> None:
        self.store = SharedPrefixStore(block_size=BS)
        self.arrays = RequestArrays()
        self.manager = VecPagedMemory(
            self.arrays, NUM_BLOCKS * BS, block_size=BS, watermark=0.0,
            prefix_store=self.store,
        )
        self.live: list[int] = []

    def _finished(self, row: int) -> bool:
        A = self.arrays
        return A.decode_steps[row] + 1 >= A.output_len[row]

    def _decode_one(self, row: int) -> None:
        A = self.arrays
        A.decode_steps[row] += 1
        if self._finished(row):
            A.phase[row] = PH_FINISHED

    def admit(self, prefix_id: int, prompt_blocks: int, output_len: int) -> None:
        prompt_len = prompt_blocks * BS + (prefix_id % BS)
        row = self.arrays.ingest(
            Request(
                prompt_len=prompt_len,
                output_len=output_len,
                prefix_id=prefix_id,
                prefix_len=prompt_len,
            )
        )
        if not self.manager.can_admit(row):
            return
        self.manager.admit(row)
        A = self.arrays
        A.prefill_done[row] = A.prefill_target[row]
        if self._finished(row):
            A.phase[row] = PH_FINISHED
        self.live.append(row)

    def decode(self, index: int) -> None:
        if not self.live:
            return
        row = self.live[index % len(self.live)]
        if self._finished(row):
            return
        if not self.manager.can_append_token(row):
            return
        self.manager.append_token(row)
        self._decode_one(row)

    def free(self, index: int, finish_first: bool) -> None:
        if not self.live:
            return
        row = self.live.pop(index % len(self.live))
        if finish_first:
            while not self._finished(row):
                if self.manager.can_append_token(row):
                    self.manager.append_token(row)
                self._decode_one(row)
        self.manager.free(row)

    def evict(self, blocks: int) -> None:
        reclaimed = self.store.evict_for(blocks)
        self.manager.free_blocks += reclaimed


op_strategy = st.one_of(
    st.tuples(
        st.just("admit"),
        st.integers(min_value=0, max_value=5),    # prefix id (collisions wanted)
        st.integers(min_value=1, max_value=6),    # prompt blocks
        st.integers(min_value=1, max_value=2 * BS),
    ),
    st.tuples(st.just("decode"), st.integers(min_value=0, max_value=63)),
    st.tuples(
        st.just("free"), st.integers(min_value=0, max_value=63), st.booleans()
    ),
    st.tuples(st.just("evict"), st.integers(min_value=1, max_value=8)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=60))
def test_conservation_and_reference_safety(ops):
    state = _Pool()
    for op in ops:
        referenced_before = {
            pid: state.store.entry_tokens(pid)
            for pid in range(6)
            if state.store.entry_refcount(pid) > 0
        }
        if op[0] == "admit":
            state.admit(op[1], op[2], op[3])
        elif op[0] == "decode":
            state.decode(op[1])
        elif op[0] == "free":
            state.free(op[1], op[2])
        else:
            state.evict(op[1])
        # Conservation holds after every single operation.
        assert _conserved(state.manager, state.store)
        # Entries that were referenced before the op still cover at
        # least what their claimants saw (eviction never touched them;
        # registration may have extended them).
        for pid, tokens in referenced_before.items():
            if op[0] != "free":  # free may drop the last reference
                assert state.store.entry_tokens(pid) >= tokens
        # The store's owner sets exactly mirror the manager's claims.
        claims_by_entry: dict[int, list[int]] = {}
        for row, pid in state.manager._claim_prefix.items():
            claims_by_entry.setdefault(pid, []).append(row)
        for pid in range(6):
            owners = sorted(state.store.entry_owners(pid))
            assert owners == sorted(claims_by_entry.get(pid, []))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),   # published blocks
    st.integers(min_value=1, max_value=400),  # claimant prefix_len
    st.integers(min_value=2, max_value=400),  # claimant prefill target
)
def test_claims_never_mutate_published_coverage(blocks, prefix_len, target):
    store = SharedPrefixStore(block_size=BS)
    store.register(1, prefix_len=0, publish_tokens=blocks * BS)
    tokens_before = store.entry_tokens(1)
    shared_before = store.shared_blocks
    cached = store.claim(1, prefix_len=prefix_len, prefill_target=target, owner=9)
    assert store.entry_tokens(1) == tokens_before
    assert store.shared_blocks == shared_before
    assert cached <= tokens_before
    assert cached % BS == 0
    assert cached < target  # at least one token is always prefetched
    if cached:
        assert store.entry_owners(1) == (9,)
        store.release(1, owner=9)
    assert store.entry_owners(1) == ()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eviction_only_reclaims_unreferenced(data):
    store = SharedPrefixStore(block_size=BS)
    num_entries = data.draw(st.integers(min_value=1, max_value=8))
    claimed = set()
    for pid in range(num_entries):
        store.register(pid, prefix_len=0, publish_tokens=BS)
        if data.draw(st.booleans()):
            store.claim(pid, prefix_len=BS, prefill_target=2 * BS, owner=pid)
            claimed.add(pid)
    demand = data.draw(st.integers(min_value=1, max_value=16))
    reclaimed = store.evict_for(demand)
    assert reclaimed <= num_entries - len(claimed)
    for pid in claimed:
        assert store.entry_tokens(pid) == BS
        assert store.entry_refcount(pid) == 1
