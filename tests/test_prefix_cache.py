"""KV prefix caching: store semantics, allocator integration, end to end.

Three layers:

* ``SharedPrefixStore`` in isolation — claim/release/register/evict
  bookkeeping, block alignment, COW accounting, LRU eviction order.
* ``VecPagedMemory`` with a store attached — admission skips cached
  blocks but charges full occupancy, finished requests publish their
  history, retained entries are evicted under pressure.
* Whole-engine runs — conversation workloads prefill less with the
  cache on, and a 100%-miss workload is bit-identical to cache-off.
"""

from __future__ import annotations

import pytest

from repro.api import ServingConfig
from repro.engine.arrays import PH_FINISHED, RequestArrays
from repro.memory.prefix import SharedPrefixStore
from repro.scheduling.vectorized import VecPagedMemory
from repro.types import Request
from repro.workload.conversation import ConversationSpec, simulate_conversations
from repro.workload.distributions import FixedLengths
from repro.workload.production import ProductionSpec, generate_production_trace

pytestmark = pytest.mark.tier1

BS = 16


def tagged_request(
    prompt_len: int = 64,
    output_len: int = 4,
    prefix_id: int | None = 0,
    prefix_len: int | None = None,
    **kwargs,
) -> Request:
    if prefix_len is None:
        prefix_len = prompt_len
    return Request(
        prompt_len=prompt_len,
        output_len=output_len,
        prefix_id=prefix_id,
        prefix_len=prefix_len,
        **kwargs,
    )


def finish(arrays: RequestArrays, row: int) -> None:
    """Move a row to FINISHED: whole prompt prefilled, every token out."""
    arrays.prefill_done[row] = arrays.prefill_target[row]
    arrays.decode_steps[row] = arrays.output_len[row] - 1
    arrays.phase[row] = PH_FINISHED


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------
class TestSharedPrefixStore:
    def test_miss_on_empty_store(self):
        store = SharedPrefixStore(block_size=BS)
        assert store.claim(7, prefix_len=64, prefill_target=64, owner=1) == 0
        assert store.stats.misses == 1 and store.stats.hits == 0

    def test_register_aligns_down_to_whole_blocks(self):
        store = SharedPrefixStore(block_size=BS)
        absorbed = store.register(7, prefix_len=0, publish_tokens=70)
        assert absorbed == 4          # 70 -> 64 tokens -> 4 blocks
        assert store.entry_tokens(7) == 64
        assert store.shared_blocks == 4

    def test_register_below_one_block_is_noop(self):
        store = SharedPrefixStore(block_size=BS)
        assert store.register(7, prefix_len=0, publish_tokens=BS - 1) == 0
        assert store.num_entries == 0

    def test_claim_is_block_aligned_and_leaves_one_token(self):
        store = SharedPrefixStore(block_size=BS)
        store.register(7, prefix_len=0, publish_tokens=128)
        # prefix_len mid-block: usable span aligns down.
        assert store.usable_tokens(7, prefix_len=70, prefill_target=200) == 64
        # prefill target inside the entry: at least one token is left
        # to actually prefill (and emit the first token from).
        assert store.usable_tokens(7, prefix_len=128, prefill_target=128) == 112
        # Full-length reuse only when the target strictly exceeds it.
        assert store.usable_tokens(7, prefix_len=128, prefill_target=129) == 128

    def test_claim_refcounts_and_tracks_owners(self):
        store = SharedPrefixStore(block_size=BS)
        store.register(7, prefix_len=0, publish_tokens=64)
        assert store.claim(7, prefix_len=64, prefill_target=100, owner=11) == 64
        assert store.claim(7, prefix_len=64, prefill_target=100, owner=12) == 64
        assert store.entry_refcount(7) == 2
        assert store.entry_owners(7) == (11, 12)
        store.release(7, owner=11)
        assert store.entry_owners(7) == (12,)
        store.release(7, owner=12)
        assert store.entry_refcount(7) == 0
        # Entry is retained after the last release.
        assert store.entry_tokens(7) == 64

    def test_over_release_raises(self):
        store = SharedPrefixStore(block_size=BS)
        store.register(7, prefix_len=0, publish_tokens=64)
        with pytest.raises(ValueError, match="released more than claimed"):
            store.release(7, owner=99)

    def test_cow_counted_on_mid_block_divergence(self):
        store = SharedPrefixStore(block_size=BS)
        store.register(7, prefix_len=0, publish_tokens=128)
        # Diverges at token 70: matches 4 whole blocks, then differs
        # inside the entry's coverage -> one COW copy.
        store.claim(7, prefix_len=70, prefill_target=300, owner=1)
        assert store.stats.cow_copies == 1
        # Full-block match beyond the entry: no COW.
        store.claim(7, prefix_len=128, prefill_target=300, owner=2)
        assert store.stats.cow_copies == 1

    def test_register_extends_only_with_covering_prefix(self):
        store = SharedPrefixStore(block_size=BS)
        store.register(7, prefix_len=0, publish_tokens=64)
        # Divergent shorter history: conservative no-op.
        assert store.register(7, prefix_len=32, publish_tokens=128) == 0
        assert store.entry_tokens(7) == 64
        # Covering history publishing more: extend by the delta.
        assert store.register(7, prefix_len=64, publish_tokens=128) == 4
        assert store.entry_tokens(7) == 128
        assert store.shared_blocks == 8

    def test_eviction_is_lru_and_skips_referenced(self):
        store = SharedPrefixStore(block_size=BS)
        store.register(1, prefix_len=0, publish_tokens=64)   # oldest
        store.register(2, prefix_len=0, publish_tokens=64)
        store.register(3, prefix_len=0, publish_tokens=64)
        store.claim(1, prefix_len=64, prefill_target=100, owner=5)  # refresh + ref
        store.release(1, owner=5)                                   # ref 0, recent
        store.claim(2, prefix_len=64, prefill_target=100, owner=6)  # referenced
        # Needs one block: entry 3 is the LRU refcount-0 candidate.
        assert store.evict_for(1) == 4
        assert store.entry_tokens(3) == 0
        # Entry 2 is referenced: only entry 1 is reclaimable.
        assert store.evict_for(100) == 4
        assert store.entry_tokens(1) == 0
        assert store.entry_tokens(2) == 64
        assert store.stats.evictions == 2

    def test_exclude_protects_admission_target(self):
        store = SharedPrefixStore(block_size=BS)
        store.register(1, prefix_len=0, publish_tokens=64)
        assert store.evictable_blocks(exclude=1) == 0
        assert store.evict_for(4, exclude=1) == 0
        assert store.entry_tokens(1) == 64


# ----------------------------------------------------------------------
# Allocator integration
# ----------------------------------------------------------------------
def paged_with_store(capacity_tokens: int = 4096):
    store = SharedPrefixStore(block_size=BS)
    arrays = RequestArrays()
    manager = VecPagedMemory(
        arrays, capacity_tokens, block_size=BS, watermark=0.0, prefix_store=store
    )
    return arrays, manager, store


class TestPagedMemoryPrefix:
    def test_finished_request_publishes_history(self):
        arrays, manager, store = paged_with_store()
        row = arrays.ingest(tagged_request(prompt_len=64, output_len=4))
        manager.admit(row)
        arrays.prefill_done[row] = 64
        for _ in range(3):
            manager.append_token(row)
            arrays.decode_steps[row] += 1
        arrays.phase[row] = PH_FINISHED
        held = int(manager._held[row])
        free_before = manager.free_blocks
        manager.free(row)
        # context 67 -> 4 whole blocks published, the tail block freed.
        assert store.entry_tokens(0) == 64
        assert manager.free_blocks == free_before + held - 4
        conserved = manager.free_blocks + store.shared_blocks
        assert conserved == manager.num_blocks

    def test_hit_admits_against_novel_suffix_only(self):
        arrays, manager, store = paged_with_store()
        first = arrays.ingest(tagged_request(prompt_len=64, output_len=4))
        manager.admit(first)
        finish(arrays, first)
        manager.free(first)

        follow = arrays.ingest(
            tagged_request(prompt_len=128, output_len=4, prefix_len=68)
        )
        before = manager.free_blocks
        manager.admit(follow)
        # Full prompt needs 8 blocks; 4 come shared from the store.
        assert before - manager.free_blocks == 4
        # Chunked prefill resumes at the first novel token...
        assert arrays.prefill_done[follow] == 64
        assert arrays.prefill_target[follow] - arrays.prefill_done[follow] == 64
        # ...while occupancy covers the full history.
        assert manager._needs_new_block(follow) is False
        assert store.entry_refcount(0) == 1
        assert store.stats.hits == 1

    def test_publish_len_caps_registration(self):
        arrays, manager, store = paged_with_store()
        row = arrays.ingest(
            tagged_request(
                prompt_len=64, output_len=8, prefix_len=64, prefix_publish_len=32
            )
        )
        manager.admit(row)
        finish(arrays, row)
        manager.free(row)
        assert store.entry_tokens(0) == 32

    def test_swap_in_skips_lookup(self):
        arrays, manager, store = paged_with_store()
        seeded = arrays.ingest(tagged_request(prompt_len=64, output_len=4))
        manager.admit(seeded)
        finish(arrays, seeded)
        manager.free(seeded)
        lookups = store.stats.lookups

        # A swapped-in request carries restored KV progress: it must
        # re-claim everything exclusively, not share.
        swapped = arrays.ingest(
            tagged_request(prompt_len=64, output_len=8, prefix_len=64)
        )
        arrays.prefill_done[swapped] = 64
        arrays.decode_steps[swapped] = 1
        before = manager.free_blocks
        manager.admit(swapped)
        assert store.stats.lookups == lookups
        assert before - manager.free_blocks == manager.blocks_for(65)

    def test_admission_evicts_retained_entries_under_pressure(self):
        arrays, manager, store = paged_with_store(capacity_tokens=8 * BS)
        seeded = arrays.ingest(
            tagged_request(prompt_len=4 * BS, output_len=1, prefix_id=1)
        )
        manager.admit(seeded)
        finish(arrays, seeded)
        manager.free(seeded)
        assert store.shared_blocks == 4

        # An unrelated request needing more than the raw free pool
        # triggers LRU eviction of the retained entry.
        big = arrays.ingest(Request(prompt_len=7 * BS, output_len=1))
        assert manager.can_admit(big)
        manager.admit(big)
        assert store.num_entries == 0
        assert store.stats.evictions == 1

    def test_decode_append_evicts_under_pressure(self):
        arrays, manager, store = paged_with_store(capacity_tokens=8 * BS)
        seeded = arrays.ingest(
            tagged_request(prompt_len=4 * BS, output_len=1, prefix_id=1)
        )
        manager.admit(seeded)
        finish(arrays, seeded)
        manager.free(seeded)

        grower = arrays.ingest(Request(prompt_len=4 * BS, output_len=2 * BS))
        manager.admit(grower)
        arrays.prefill_done[grower] = 4 * BS
        assert manager.free_blocks == 0
        arrays.decode_steps[grower] = BS
        # The next token needs a new block; only the retained entry has one.
        assert manager.can_append_token(grower)
        manager.append_token(grower)
        assert store.num_entries == 0

    def test_failed_admit_releases_claim(self):
        arrays, manager, store = paged_with_store(capacity_tokens=8 * BS)
        seeded = arrays.ingest(tagged_request(prompt_len=4 * BS, output_len=1))
        manager.admit(seeded)
        finish(arrays, seeded)
        manager.free(seeded)

        hog = arrays.ingest(Request(prompt_len=4 * BS, output_len=1))
        manager.admit(hog)
        # A follow-up hits the entry but cannot fit its novel suffix.
        follow = arrays.ingest(
            tagged_request(prompt_len=8 * BS, output_len=1, prefix_len=4 * BS)
        )
        assert not manager.can_admit(follow)
        with pytest.raises(MemoryError):
            manager.admit(follow)
        assert store.entry_refcount(0) == 0
        assert store.entry_owners(0) == ()


# ----------------------------------------------------------------------
# Whole-engine behavior
# ----------------------------------------------------------------------
def tiny_spec(prefix_mode: str) -> ConversationSpec:
    return ConversationSpec(
        num_conversations=8,
        first_turn_lengths=FixedLengths(120),
        followup_turn_lengths=FixedLengths(40),
        response_lengths=FixedLengths(10),
        mean_rounds=4.0,
        mean_think_time=0.2,
        arrival_qps=2.0,
        prefix_mode=prefix_mode,
    )


class TestEngineLevel:
    def _prefill_tokens(self, result) -> int:
        return sum(r.num_prefill_tokens for r in result.records if r.stage == 0)

    @pytest.mark.usefixtures("core")
    def test_cache_cuts_prefill_work(self, tiny_deployment):
        spec = tiny_spec("conversation")
        config = ServingConfig(token_budget=256)
        off, _ = simulate_conversations(
            tiny_deployment, config, spec, seed=3
        )
        on, _ = simulate_conversations(
            tiny_deployment,
            ServingConfig(token_budget=256, prefix_cache=True),
            spec,
            seed=3,
        )
        assert off.prefix_stats is None
        assert on.prefix_stats is not None and on.prefix_stats.hits > 0
        assert self._prefill_tokens(on) < self._prefill_tokens(off)
        assert len(on.requests) == len(off.requests)
        assert all(r.is_finished for r in on.requests)

    @pytest.mark.usefixtures("core")
    def test_all_miss_workload_matches_cache_off(self, tiny_deployment):
        """With unique prefix ids every lookup misses: the run must be
        bit-identical to the cache-off run (per-request timelines)."""
        spec = tiny_spec("unique")
        runs = {}
        for cache_on in (False, True):
            config = ServingConfig(token_budget=256, prefix_cache=cache_on)
            result, _ = simulate_conversations(tiny_deployment, config, spec, seed=5)
            runs[cache_on] = result
        assert runs[True].prefix_stats is not None
        assert runs[True].prefix_stats.hits == 0
        assert runs[True].prefix_stats.misses > 0
        timelines_off = [
            (r.arrival_time, r.prompt_len, r.output_len, tuple(r.token_times))
            for r in runs[False].requests
        ]
        timelines_on = [
            (r.arrival_time, r.prompt_len, r.output_len, tuple(r.token_times))
            for r in runs[True].requests
        ]
        assert timelines_on == timelines_off

    def test_production_trace_exercises_cache(self, tiny_deployment):
        from repro.api import simulate

        spec = ProductionSpec(num_requests=24, base_qps=2.0)
        trace = generate_production_trace(spec, seed=1)
        assert all(r.prefix_id is not None for r in trace)
        config = ServingConfig(token_budget=512, prefix_cache=True)
        result, metrics = simulate(tiny_deployment, config, trace)
        stats = result.prefix_stats
        assert stats is not None
        # Three tenants seed three entries; everyone else hits.
        assert stats.hits > 0
        assert metrics.num_requests == 24


class TestProductionTrace:
    def test_arrivals_monotone_and_tagged(self):
        spec = ProductionSpec(num_requests=50, base_qps=5.0)
        trace = generate_production_trace(spec, seed=0)
        assert len(trace) == 50
        times = [r.arrival_time for r in trace]
        assert times == sorted(times)
        for request in trace:
            tenant = spec.tenants[request.prefix_id]
            assert request.prefix_len == tenant.system_prompt_len
            assert request.prefix_publish_len == tenant.system_prompt_len
            assert request.prompt_len > tenant.system_prompt_len

    def test_seed_determinism(self):
        spec = ProductionSpec(num_requests=30, base_qps=3.0)
        a = generate_production_trace(spec, seed=9)
        b = generate_production_trace(spec, seed=9)
        assert [(r.arrival_time, r.prompt_len, r.output_len, r.prefix_id) for r in a] == [
            (r.arrival_time, r.prompt_len, r.output_len, r.prefix_id) for r in b
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductionSpec(num_requests=0)
        with pytest.raises(ValueError):
            ProductionSpec(num_requests=1, diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            ProductionSpec(num_requests=1, burst_factor=0.5)
