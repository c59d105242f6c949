"""End-to-end integration tests encoding the paper's qualitative claims.

Each test runs full simulations on paper-scale models (small request
counts) and asserts the *shape* the paper reports: who stalls, who
wins capacity, where the ablations land.
"""

from __future__ import annotations

import pytest

from repro.api import Deployment, ServingConfig, simulate
from repro.hardware.catalog import A100_80G
from repro.metrics.timeline import longest_stall, stage_utilization
from repro.models.catalog import MISTRAL_7B
from repro.parallel.config import ParallelConfig
from repro.workload.datasets import SHAREGPT4, generate_requests

from tests.conftest import BUILTIN_NAMES


@pytest.fixture(scope="module")
def mistral() -> Deployment:
    return Deployment(model=MISTRAL_7B, gpu=A100_80G)


@pytest.fixture(scope="module")
def trace():
    return generate_requests(SHAREGPT4, num_requests=60, qps=1.2, seed=5)


@pytest.fixture(scope="module")
def results(mistral, trace):
    out = {}
    for kind in BUILTIN_NAMES:
        config = ServingConfig(scheduler=kind, token_budget=512)
        out[kind] = simulate(mistral, config, trace)
    return out


class TestGenerationStalls:
    def test_vllm_stalls_sarathi_does_not(self, results):
        """Figure 1a / §3.2."""
        vllm_worst = longest_stall(results["vllm"][0].finished_requests)
        sarathi_worst = longest_stall(
            results["sarathi"][0].finished_requests
        )
        assert vllm_worst > 3 * sarathi_worst

    def test_orca_also_stalls(self, results):
        orca_worst = longest_stall(results["orca"][0].finished_requests)
        sarathi_worst = longest_stall(
            results["sarathi"][0].finished_requests
        )
        assert orca_worst > 2 * sarathi_worst

    def test_ft_has_best_tbt_but_terrible_ttft(self, results):
        """Decode-prioritizing optimizes TBT at the cost of queueing (§3.2)."""
        ft = results["faster_transformer"][1]
        sarathi = results["sarathi"][1]
        assert ft.p99_tbt <= sarathi.p99_tbt
        assert ft.median_ttft > 3 * sarathi.median_ttft

    def test_sarathi_p99_tbt_best_of_iteration_level(self, results):
        sarathi = results["sarathi"][1].p99_tbt
        assert sarathi < results["vllm"][1].p99_tbt
        assert sarathi < results["orca"][1].p99_tbt

    def test_sarathi_tbt_bounded_by_budget_iteration(self, mistral, results):
        """Stall-free guarantee: no inter-token gap far above one
        budget-bounded iteration (plus scheduling jitter)."""
        exec_model = mistral.execution_model()
        from repro.perf.profiler import hybrid_iteration_time

        bound = hybrid_iteration_time(exec_model, 512 + 128)
        worst = longest_stall(results["sarathi"][0].finished_requests)
        assert worst < 3 * bound


class TestThroughput:
    def test_iteration_level_beats_request_level(self, results):
        """Orca's claim: iteration-level batching wins throughput."""
        ft = results["faster_transformer"][1]
        for kind in ("vllm", "sarathi", "orca"):
            assert results[kind][1].makespan < ft.makespan

    def test_sarathi_throughput_close_to_vllm(self, results):
        """Stall-freedom costs little total throughput."""
        sarathi = results["sarathi"][1]
        vllm = results["vllm"][1]
        assert sarathi.makespan < 1.3 * vllm.makespan


class TestAblations:
    def test_combined_beats_each_alone_on_tbt(self, results):
        combined = results["sarathi"][1].p99_tbt
        hybrid_only = results["hybrid_batching_only"][1].p99_tbt
        assert combined < hybrid_only

    def test_hybrid_only_still_stalls(self, results):
        """Table 4: full prefills in hybrid batches keep TBT high."""
        hybrid_only = longest_stall(
            results["hybrid_batching_only"][0].finished_requests
        )
        combined = longest_stall(results["sarathi"][0].finished_requests)
        assert hybrid_only > 2 * combined

    def test_chunked_only_ttft_worse_than_combined(self, results):
        """Table 4: chunks without coalescing serialize prefill progress."""
        chunked_only = results["chunked_prefills_only"][1]
        combined = results["sarathi"][1]
        assert chunked_only.median_ttft > combined.median_ttft


class TestPipelineBubbles:
    def test_sarathi_reduces_bubble_variance(self):
        """Fig. 8: uniform batches shrink inter-batch variation."""
        import numpy as np

        deployment = Deployment(
            model=MISTRAL_7B,
            gpu=A100_80G,
            parallel=ParallelConfig(pipeline_parallel=2),
        )
        trace = generate_requests(SHAREGPT4, num_requests=40, qps=2.5, seed=9)
        cvs = {}
        bubbles = {}
        for kind in ("orca", "sarathi"):
            config = ServingConfig(scheduler=kind, token_budget=512)
            result, _ = simulate(deployment, config, trace)
            durations = [r.duration for r in result.records if r.stage == 0]
            cvs[kind] = np.std(durations) / np.mean(durations)
            bubbles[kind] = stage_utilization(result.records, 1).bubble_time
        assert cvs["sarathi"] < cvs["orca"]
        assert bubbles["sarathi"] < bubbles["orca"]


class TestMemoryPressure:
    def test_vllm_preempts_and_recovers_under_tight_memory(self):
        """Recompute preemption end-to-end through the engine."""
        from repro.api import build_engine, clone_requests
        from tests.conftest import shrink_kv_memory

        deployment = Deployment(model=MISTRAL_7B, gpu=A100_80G)
        config = ServingConfig(scheduler="vllm")
        engine = build_engine(deployment, config)
        # Shrink memory drastically to force preemption.
        shrink_kv_memory(engine, capacity_tokens=8192)
        trace = clone_requests(
            generate_requests(SHAREGPT4, num_requests=12, qps=5.0, seed=3)
        )
        result = engine.run(trace)
        assert all(r.is_finished for r in result.requests)
        assert result.num_preemptions > 0


class TestGoodput:
    def test_sarathi_best_goodput_under_tight_deadlines(self, results):
        """Per-request SLO attainment (DistServe-style goodput) tells the
        same story as aggregate P99: stall-free batching keeps individual
        streams usable."""
        from repro.metrics.goodput import RequestSLO, goodput

        slo = RequestSLO(ttft_deadline=5.0, tbt_deadline=0.2)
        attainment = {
            kind: goodput(result, slo).attainment
            for kind, (result, _metrics) in results.items()
        }
        assert attainment["sarathi"] >= attainment["vllm"]
        assert attainment["sarathi"] >= attainment["orca"]
        assert attainment["sarathi"] > 0.8
