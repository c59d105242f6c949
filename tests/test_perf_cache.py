"""Tests for the memoized execution model (``repro.perf.cache``).

The load-bearing property is *bit-identity*: every quantity the cached
model returns must be exactly — not approximately — the float the
uncached model computes, across randomized batch compositions, stage
flags, repeated queries, decode-table growth and evictions.  Everything built on top
(capacity numbers, SLO verdicts, telemetry) inherits its correctness
from this.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.perf.cache as cache_module
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
from repro.perf.attention import AttentionModel
from repro.perf.cache import CachedExecutionModel, CacheStats
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
        cached = execution_model_for(deployment)
        for _ in range(300):
            works = random_batch(rng)
            first = rng.random() < 0.5
            last = rng.random() < 0.5
            expected = plain.stage_iteration_time(works, first, last)
            got = cached.stage_iteration_time(works, first, last)
            # Exact equality on the full breakdown, not approx.
            assert got == expected
            assert got.total == expected.total
            # And again, now assembled from warm components only.
            assert cached.stage_iteration_time(works, first, last) == expected
            assert cached.pipeline_send_time(works) == plain.pipeline_send_time(works)

    @pytest.mark.parametrize("deployment", DEPLOYMENTS, ids=["tiny", "yi-tp2-pp2"])
    def test_component_prices_bit_identical(self, deployment, monkeypatch):
        # A small bound makes the dict memos evict, and contexts drawn
        # past each doubling of the decode table make it grow mid-run.
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 16)
        rng = random.Random(99)
        plain = deployment.execution_model()
        cached = execution_model_for(deployment)
        for round_ in range(200):
            limit = 512 << (round_ // 40)  # 512 .. 8192 over the rounds
            ctx = np.array(
                [rng.randrange(1, limit) for _ in range(rng.randrange(0, 20))],
                dtype=np.int64,
            )
            assert cached.decode_attention_times(ctx) == plain.decode_attention_times(ctx)
            tokens = rng.randrange(1, 64)
            logits = rng.randrange(0, tokens + 1)
            past = rng.randrange(0, 64)
            prefill = rng.random() < 0.5
            for _ in range(2):  # miss, then hit (or re-miss after eviction)
                assert cached.linear_time(tokens, logits) == plain.linear_time(
                    tokens, logits
                )
                assert cached.attention_time(
                    tokens, past, prefill
                ) == plain.attention_time(tokens, past, prefill)
                assert cached.token_terms(tokens) == plain.token_terms(tokens)
                assert cached.send_time(tokens) == plain.send_time(tokens)
        assert cached._decode_table.size > 4096
        stats = cached.cache_stats
        assert stats.evictions > 0
        assert stats.hits > 0 and stats.work_hits > 0

    def test_derived_helpers_route_through_cache(self):
        deployment = DEPLOYMENTS[0]
        plain = deployment.execution_model()
        cached = execution_model_for(deployment)
        assert cached.decode_iteration_time(8, 512) == plain.decode_iteration_time(8, 512)
        assert cached.full_prefill_time(777) == plain.full_prefill_time(777)
        assert cached.chunked_prefill_time(1000, 256) == plain.chunked_prefill_time(
            1000, 256
        )
        assert cached.cache_stats.misses > 0

    def test_empty_batch(self):
        cached = execution_model_for(DEPLOYMENTS[0])
        assert cached.stage_iteration_time([]).total == 0.0
        assert cached.decode_attention_times(np.empty(0, dtype=np.int64)) == []

    def test_eviction_preserves_results(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 8)
        deployment = DEPLOYMENTS[0]
        plain = deployment.execution_model()
        cached = execution_model_for(deployment)
        rng = random.Random(7)
        batches = [random_batch(rng) for _ in range(40)]
        for works in batches + batches:  # second pass re-misses evicted keys
            assert cached.stage_iteration_time(works) == plain.stage_iteration_time(works)
        stats = cached.cache_stats
        assert stats.evictions > 0
        assert len(cached._attention_cache) <= 8


class TestCacheCounters:
    def test_hits_misses_and_size(self):
        cached = execution_model_for(DEPLOYMENTS[0])
        works = [TokenWork.decode(100), TokenWork.decode(200)]
        cached.stage_iteration_time(works)
        cached.stage_iteration_time(works)
        cached.stage_iteration_time(works, is_last_stage=False)  # new linear key
        stats = cached.cache_stats
        # Per batch: one linear and one token-terms lookup.
        assert stats.misses == 3  # two linear keys, one token count
        assert stats.hits == 3
        assert stats.hit_rate == pytest.approx(1 / 2)
        # Attention: 2 unique decode works, reused by the later calls.
        assert stats.work_misses == 2
        assert stats.work_hits == 4
        assert stats.size == 5
        # The engine's array path reads the same decode table: context
        # 200 hits, and a repeated context in one gather is computed once.
        cached.decode_attention_times(np.array([200, 300, 300]))
        cached.decode_attention_times(np.array([300]))
        stats = cached.cache_stats
        assert (stats.work_misses, stats.work_hits) == (2 + 1, 4 + 3)
        assert stats.size == 5 + 1

    def test_stats_row_shape(self):
        row = CacheStats(hits=3, misses=1, size=1).as_row()
        assert row["cache_hits"] == 3
        assert row["cache_hit_rate"] == pytest.approx(0.75)
        assert row["cache_evictions"] == 0

    def test_component_evictions_counted_separately(self, monkeypatch):
        # Each component memo has its own FIFO bound: 32 unique
        # attention keys overflow the attention memo, while the one
        # linear and token-count key of the batch stay resident.
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 8)
        cached = execution_model_for(DEPLOYMENTS[0])
        works = [TokenWork.prefill_chunk(16, past_len=i) for i in range(32)]
        cached.stage_iteration_time(works)
        stats = cached.cache_stats
        assert stats.evictions == 32 - 8
        assert stats.size == 8 + 1 + 1
        cached.stage_iteration_time(works)
        assert cached.cache_stats.hits == 2


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
        # The engine and the dynamic scheduler both price through the
        # shared model, so a replayed trace is served from warm memos.
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
        assert model.cache_stats.work_misses == after_first.work_misses
        assert model.cache_stats.hits > after_first.hits
        assert result.cache_stats == model.cache_stats

    @pytest.mark.parametrize(
        "kind", [SchedulerKind.SARATHI, SchedulerKind.SARATHI_DYNAMIC]
    )
    def test_replay_prices_no_attention(self, tiny_deployment, kind, monkeypatch):
        config = ServingConfig(scheduler=kind, token_budget=256)
        model = execution_model_for(tiny_deployment)
        trace = generate_requests(SHAREGPT4, num_requests=16, qps=2.0, seed=3)
        simulate(tiny_deployment, config, trace, exec_model=model)
        calls = []
        original = AttentionModel.work_time

        def counting(self, work):
            calls.append(work)
            return original(self, work)

        monkeypatch.setattr(AttentionModel, "work_time", counting)
        simulate(tiny_deployment, config, trace, exec_model=model)
        assert calls == []

    def test_dynamic_scheduler_shares_engine_model(self, tiny_deployment):
        engine = build_engine(
            tiny_deployment, ServingConfig(scheduler=SchedulerKind.SARATHI_DYNAMIC)
        )
        assert engine.scheduler.exec_model is engine.exec_model
