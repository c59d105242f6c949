"""Tests for the memoized execution model (``repro.perf.cache``).

The load-bearing property is *bit-identity*: every quantity the cached
model returns must be exactly — not approximately — the float the
uncached model computes, across randomized batch compositions, stage
flags, repeated queries and evictions.  Everything built on top
(capacity numbers, SLO verdicts, telemetry) inherits its correctness
from this.
"""

from __future__ import annotations

import random

import pytest

from repro.api import (
    Deployment,
    ServingConfig,
    build_engine,
    execution_model_for,
    simulate,
)
from repro.hardware.catalog import A100_80G, ETHERNET_100G
from repro.models.catalog import TINY_1B, YI_34B
from repro.parallel.config import ParallelConfig
from repro.perf.cache import CachedExecutionModel, CacheStats, batch_signature
from repro.perf.iteration import ExecutionModel
from repro.telemetry.recorder import iteration_rows, request_rows
from repro.types import SchedulerKind, TokenWork
from repro.workload.datasets import SHAREGPT4, generate_requests


def random_work(rng: random.Random) -> TokenWork:
    """A random decode step or (possibly mid-prompt) prefill chunk."""
    if rng.random() < 0.5:
        return TokenWork.decode(rng.randrange(1, 8192))
    chunk = rng.randrange(1, 1024)
    return TokenWork.prefill_chunk(
        chunk,
        past_len=rng.choice([0, rng.randrange(0, 4096)]),
        is_last=rng.random() < 0.5,
    )


def random_batch(rng: random.Random) -> list[TokenWork]:
    return [random_work(rng) for _ in range(rng.randrange(1, 24))]


DEPLOYMENTS = [
    Deployment(model=TINY_1B, gpu=A100_80G),
    Deployment(
        model=YI_34B,
        gpu=A100_80G,
        parallel=ParallelConfig(
            tensor_parallel=2, pipeline_parallel=2, pp_link=ETHERNET_100G
        ),
    ),
]


class TestCacheEquivalence:
    @pytest.mark.parametrize("deployment", DEPLOYMENTS, ids=["tiny", "yi-tp2-pp2"])
    def test_randomized_batches_bit_identical(self, deployment):
        rng = random.Random(1234)
        plain = deployment.execution_model()
        cached = CachedExecutionModel(deployment.execution_model())
        for _ in range(300):
            works = random_batch(rng)
            first = rng.random() < 0.5
            last = rng.random() < 0.5
            expected = plain.stage_iteration_time(works, first, last)
            got = cached.stage_iteration_time(works, first, last)
            # Exact equality on the full breakdown, not approx.
            assert got == expected
            assert got.total == expected.total
            # And again, now served from the batch tier.
            assert cached.stage_iteration_time(works, first, last) == expected
            assert cached.pipeline_send_time(works) == plain.pipeline_send_time(works)

    def test_derived_helpers_route_through_cache(self):
        deployment = DEPLOYMENTS[0]
        plain = deployment.execution_model()
        cached = CachedExecutionModel(deployment.execution_model())
        assert cached.decode_iteration_time(8, 512) == plain.decode_iteration_time(8, 512)
        assert cached.full_prefill_time(777) == plain.full_prefill_time(777)
        assert cached.chunked_prefill_time(1000, 256) == plain.chunked_prefill_time(
            1000, 256
        )
        assert cached.cache_stats.misses > 0

    def test_empty_batch(self):
        cached = CachedExecutionModel(DEPLOYMENTS[0].execution_model())
        assert cached.stage_iteration_time([]).total == 0.0

    def test_eviction_preserves_results(self):
        deployment = DEPLOYMENTS[0]
        plain = deployment.execution_model()
        cached = CachedExecutionModel(deployment.execution_model(), max_entries=8)
        rng = random.Random(7)
        batches = [random_batch(rng) for _ in range(40)]
        for works in batches + batches:  # second pass re-misses evicted keys
            assert cached.stage_iteration_time(works) == plain.stage_iteration_time(works)
        stats = cached.cache_stats
        assert stats.evictions > 0
        assert stats.size <= 8


class TestCacheCounters:
    def test_hits_misses_and_size(self):
        cached = CachedExecutionModel(DEPLOYMENTS[0].execution_model())
        works = [TokenWork.decode(100), TokenWork.decode(200)]
        cached.stage_iteration_time(works)
        cached.stage_iteration_time(works)
        cached.stage_iteration_time(works, is_last_stage=False)  # distinct key
        stats = cached.cache_stats
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.size == 2
        assert stats.hit_rate == pytest.approx(1 / 3)
        # Component tier: 2 unique decode works, reused by later calls.
        assert stats.work_misses == 2
        assert stats.work_hits == 2

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            CachedExecutionModel(DEPLOYMENTS[0].execution_model(), max_entries=0)

    def test_stats_row_shape(self):
        row = CacheStats(hits=3, misses=1, size=1).as_row()
        assert row["cache_hits"] == 3
        assert row["cache_hit_rate"] == pytest.approx(0.75)
        assert row["cache_component_evictions"] == 0

    def test_component_evictions_counted_separately(self):
        # One batch of many unique decode works: the batch tier stores a
        # single entry (no batch evictions possible), while the work
        # tier overflows max_entries and must evict.
        cached = CachedExecutionModel(DEPLOYMENTS[0].execution_model(), max_entries=8)
        works = [TokenWork.decode(100 + i) for i in range(32)]
        cached.stage_iteration_time(works)
        stats = cached.cache_stats
        assert stats.evictions == 0  # batch tier untouched by the overflow
        assert stats.component_evictions > 0
        assert stats.size == 1

    def test_batch_evictions_do_not_count_as_component(self):
        # Many single-work batches of the *same* work: only the batch
        # tier grows past max_entries (the component tiers stay tiny).
        cached = CachedExecutionModel(DEPLOYMENTS[0].execution_model(), max_entries=4)
        for i in range(12):
            cached.stage_iteration_time([TokenWork.decode(64)], is_last_stage=i % 2 == 0)
            cached.stage_iteration_time([TokenWork.decode(64 + i % 8)])
        stats = cached.cache_stats
        assert stats.evictions > 0
        assert stats.size <= 4


class TestBatchSignature:
    def test_distinguishes_stage_flags_and_order(self):
        works = [TokenWork.decode(10), TokenWork.prefill_chunk(5)]
        base = batch_signature(works)
        assert batch_signature(works, is_last_stage=False) != base
        assert batch_signature(works, is_first_stage=False) != base
        assert batch_signature(list(reversed(works))) != base

    def test_emits_token_is_part_of_the_key(self):
        last = [TokenWork.prefill_chunk(64, past_len=64, is_last=True)]
        mid = [TokenWork.prefill_chunk(64, past_len=64, is_last=False)]
        assert batch_signature(last) != batch_signature(mid)


def _comparable_iteration_rows(result):
    """Iteration rows minus ``batch_id`` (a process-global counter that
    can never match across two separate runs)."""
    return [
        {k: v for k, v in row.items() if k != "batch_id"}
        for row in iteration_rows(result)
    ]


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "kind",
        [SchedulerKind.SARATHI, SchedulerKind.VLLM, SchedulerKind.SARATHI_DYNAMIC],
    )
    def test_simulation_outputs_bit_identical(self, tiny_deployment, kind):
        trace = generate_requests(SHAREGPT4, num_requests=24, qps=2.0, seed=5)
        base = ServingConfig(scheduler=kind, token_budget=256)
        on, _ = simulate(tiny_deployment, base, trace)
        off, _ = simulate(
            tiny_deployment,
            base,
            trace,
            exec_model=tiny_deployment.execution_model(),
        )
        assert _comparable_iteration_rows(on) == _comparable_iteration_rows(off)
        assert request_rows(on) == request_rows(off)
        assert on.makespan == off.makespan
        assert on.cache_stats is not None
        assert off.cache_stats is None

    def test_pipeline_simulation_bit_identical(self, tiny_pp_deployment):
        trace = generate_requests(SHAREGPT4, num_requests=16, qps=1.0, seed=9)
        on, _ = simulate(tiny_pp_deployment, ServingConfig(token_budget=256), trace)
        off, _ = simulate(
            tiny_pp_deployment,
            ServingConfig(token_budget=256),
            trace,
            exec_model=tiny_pp_deployment.execution_model(),
        )
        assert _comparable_iteration_rows(on) == _comparable_iteration_rows(off)
        assert request_rows(on) == request_rows(off)


class TestThreading:
    def test_build_engine_uses_cache_by_default(self, tiny_deployment):
        engine = build_engine(tiny_deployment, ServingConfig())
        assert isinstance(engine.exec_model, CachedExecutionModel)

    def test_build_engine_can_opt_out(self, tiny_deployment):
        engine = build_engine(
            tiny_deployment,
            ServingConfig(),
            exec_model=tiny_deployment.execution_model(),
        )
        assert not isinstance(engine.exec_model, CachedExecutionModel)

    def test_shared_model_accumulates_across_runs(self, tiny_deployment):
        # The engine prices from its own per-run memo tables; the shared
        # model serves what is built per run — here the dynamic
        # scheduler's SLO derivation.
        config = ServingConfig(
            scheduler=SchedulerKind.SARATHI_DYNAMIC, token_budget=256
        )
        model = execution_model_for(tiny_deployment)
        trace = generate_requests(SHAREGPT4, num_requests=8, qps=1.0, seed=2)
        simulate(tiny_deployment, config, trace, exec_model=model)
        after_first = model.cache_stats
        result, _ = simulate(tiny_deployment, config, trace, exec_model=model)
        # Replaying the identical trace hits the warm cache only.
        assert model.cache_stats.misses == after_first.misses
        assert model.cache_stats.hits > after_first.hits
        assert result.cache_stats == model.cache_stats

    def test_dynamic_scheduler_shares_engine_model(self, tiny_deployment):
        engine = build_engine(
            tiny_deployment, ServingConfig(scheduler=SchedulerKind.SARATHI_DYNAMIC)
        )
        assert engine.scheduler.exec_model is engine.exec_model
