"""Tests for the dynamic-token-budget extension (future work, §5.1)."""

from __future__ import annotations

import pytest

from repro.api import Deployment, ServingConfig, build_vectorized_scheduler, simulate
from repro.hardware.catalog import A100_80G
from repro.models.catalog import TINY_1B
from repro.perf.profiler import derive_slo
from repro.scheduling.vectorized import VecDynamicSarathiScheduler
from repro.types import TokenWork

from tests.conftest import harness, make_request

EXEC_MODEL = Deployment(model=TINY_1B, gpu=A100_80G).execution_model()


def prefill_cost(budget: int) -> float:
    """Predicted latency of a decode-free candidate iteration."""
    work = TokenWork.prefill_chunk(budget, past_len=budget, is_last=False)
    return EXEC_MODEL.iteration_time([work]).total


def dynamic(tbt_slo=1.0, **kwargs):
    return harness(
        VecDynamicSarathiScheduler, 65536,
        exec_model=EXEC_MODEL, tbt_slo=tbt_slo, **kwargs,
    )


class TestConstruction:
    def test_invalid_slo_rejected(self):
        with pytest.raises(ValueError):
            dynamic(tbt_slo=0.0)

    def test_invalid_budget_range_rejected(self):
        with pytest.raises(ValueError):
            dynamic(min_budget=512, max_budget=128)
        with pytest.raises(ValueError):
            dynamic(budget_step=0)


class TestBudgetSelection:
    def test_max_budget_when_everything_fits(self):
        s = dynamic(tbt_slo=1e6, max_budget=4096)
        s.add(make_request(prompt_len=10_000, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert s.scheduler.budget_history[-1] == 4096
        assert batch.num_tokens <= 4096

    def test_min_budget_when_nothing_fits(self):
        s = dynamic(tbt_slo=1e-9, min_budget=128)
        s.add(make_request(prompt_len=10_000, output_len=2), now=0.0)
        s.schedule(now=0.0)
        assert s.scheduler.budget_history[-1] == 128

    def test_budget_tracks_cost_threshold(self):
        # An SLO between the 512- and 640-token iteration costs: the
        # bisection lands on the largest 128-step budget that fits.
        slo = (prefill_cost(512) + prefill_cost(640)) / 2
        s = dynamic(tbt_slo=slo, min_budget=128, max_budget=4096, budget_step=128)
        s.add(make_request(prompt_len=10_000, output_len=2), now=0.0)
        s.schedule(now=0.0)
        assert s.scheduler.budget_history[-1] == 512

    def test_budget_shrinks_as_decode_pool_grows(self):
        """With live decodes consuming SLO headroom, less prefill fits."""
        s = dynamic(tbt_slo=prefill_cost(1024), max_budget=4096)
        s.add(make_request(prompt_len=400, output_len=50), now=0.0)
        s.complete(s.schedule(now=0.0), now=0.1)
        first_budget = s.scheduler.budget_history[-1]
        # Grow the decode pool substantially.
        for _ in range(30):
            s.add(make_request(prompt_len=400, output_len=50), now=0.1)
        now = 0.1
        for _ in range(20):
            batch = s.schedule(now)
            if batch is None:
                break
            now += 0.1
            s.complete(batch, now)
        assert min(s.scheduler.budget_history[2:]) <= first_budget

    def test_budget_history_recorded_per_iteration(self):
        s = dynamic(tbt_slo=1e6)
        s.add(make_request(prompt_len=1000, output_len=3), now=0.0)
        now = 0.0
        while s.scheduler.has_work:
            batch = s.schedule(now)
            if batch is None:
                break
            now += 0.1
            s.complete(batch, now)
        assert len(s.scheduler.budget_history) == s.scheduler.num_scheduled_batches


class TestEndToEnd:
    def test_via_api_and_meets_slo(self, tiny_deployment):
        trace = [
            make_request(prompt_len=500, output_len=20, arrival_time=0.02 * i)
            for i in range(30)
        ]
        config = ServingConfig(scheduler="sarathi_dynamic")
        result, metrics = simulate(tiny_deployment, config, trace)
        assert all(r.is_finished for r in result.requests)
        slo = derive_slo(tiny_deployment.execution_model(), strict=True)
        assert metrics.p99_tbt <= slo * 1.05

    def test_build_scheduler_wires_oracle(self, tiny_deployment):
        scheduler = build_vectorized_scheduler(
            tiny_deployment, ServingConfig(scheduler="sarathi_dynamic")
        )
        assert isinstance(scheduler, VecDynamicSarathiScheduler)
        # The pricing oracle charges more tokens more time.
        assert scheduler._fits(64, 0, 0.0) or not scheduler._fits(2048, 0, 0.0)
        assert not scheduler._fits(8192, 0, 0.0)

    def test_explicit_slo_respected(self, tiny_deployment):
        config = ServingConfig(
            scheduler="sarathi_dynamic", tbt_slo=0.25
        )
        scheduler = build_vectorized_scheduler(tiny_deployment, config)
        assert scheduler.tbt_slo == 0.25

    def test_dynamic_improves_ttft_over_static(self, tiny_deployment):
        """The point of the extension: unused SLO headroom becomes
        prefill progress."""
        trace = [
            make_request(prompt_len=2000, output_len=10, arrival_time=0.05 * i)
            for i in range(20)
        ]
        exec_model = tiny_deployment.execution_model()
        slo = derive_slo(exec_model, strict=True)
        static = ServingConfig(scheduler="sarathi", token_budget=256)
        dynamic_cfg = ServingConfig(
            scheduler="sarathi_dynamic", tbt_slo=slo
        )
        _, static_metrics = simulate(tiny_deployment, static, trace)
        _, dynamic_metrics = simulate(tiny_deployment, dynamic_cfg, trace)
        assert dynamic_metrics.median_ttft <= static_metrics.median_ttft
        assert dynamic_metrics.p99_tbt <= slo * 1.05
