"""Cross-product stress tests: every scheduler × every engine shape.

These are the conservation laws that must hold no matter which policy
runs on which deployment: all requests finish, every prompt token is
prefilled exactly once (modulo preemption restarts), every output
token is emitted exactly once, and timelines never overlap on a stage.
"""

from __future__ import annotations

import pytest

from repro.api import ServingConfig, build_engine

from tests.conftest import BUILTIN_NAMES, make_request


def _mixed_trace(n=18):
    """A deliberately awkward mix: tiny, medium and huge requests."""
    trace = []
    for i in range(n):
        if i % 3 == 0:
            prompt, output = 32, 12
        elif i % 3 == 1:
            prompt, output = 700, 4
        else:
            prompt, output = 2900, 7
        trace.append(
            make_request(prompt_len=prompt, output_len=output, arrival_time=0.07 * i)
        )
    return trace


@pytest.mark.parametrize("kind", BUILTIN_NAMES, ids=str)
class TestEverySchedulerSingleStage:
    def test_completes_and_conserves_tokens(self, tiny_deployment, kind):
        trace = _mixed_trace()
        engine = build_engine(
            tiny_deployment, ServingConfig(scheduler=kind, token_budget=256)
        )
        result = engine.run(trace)
        assert all(r.is_finished for r in result.requests)
        # Emission conservation.
        for request in result.requests:
            assert request.num_emitted == request.output_len
            assert len(request.token_times) == request.output_len
            assert request.token_times.tolist() == sorted(request.token_times)
        # Prefill conservation: at least every prompt token was
        # prefilled once; anything beyond that must be explained by
        # recompute restarts (which re-prefill prompt + emitted).
        recorded = sum(r.num_prefill_tokens for r in result.records)
        base = sum(r.prompt_len for r in result.requests)
        restarts = sum(r.num_restarts for r in result.requests)
        worst_case = max((r.total_len for r in result.requests), default=0)
        assert base <= recorded <= base + restarts * worst_case
        if restarts == 0:
            assert recorded == base

    def test_stage_records_never_overlap(self, tiny_deployment, kind):
        trace = _mixed_trace(n=10)
        engine = build_engine(
            tiny_deployment, ServingConfig(scheduler=kind, token_budget=256)
        )
        result = engine.run(trace)
        records = sorted(result.records, key=lambda r: r.start)
        for prev, cur in zip(records, records[1:]):
            assert cur.start >= prev.end - 1e-12


@pytest.mark.parametrize("kind", BUILTIN_NAMES, ids=str)
class TestEverySchedulerPipeline:
    def test_completes_under_pp2(self, tiny_pp_deployment, kind):
        trace = _mixed_trace(n=12)
        engine = build_engine(
            tiny_pp_deployment, ServingConfig(scheduler=kind, token_budget=256)
        )
        result = engine.run(trace)
        assert all(r.is_finished for r in result.requests)
        assert result.num_stages == 2
        # Every batch ran on both stages.
        stage0 = {r.batch_id for r in result.records if r.stage == 0}
        stage1 = {r.batch_id for r in result.records if r.stage == 1}
        assert stage0 == stage1

    def test_per_stage_no_overlap(self, tiny_pp_deployment, kind):
        trace = _mixed_trace(n=10)
        engine = build_engine(
            tiny_pp_deployment, ServingConfig(scheduler=kind, token_budget=256)
        )
        result = engine.run(trace)
        for stage in (0, 1):
            records = sorted(
                (r for r in result.records if r.stage == stage),
                key=lambda r: r.start,
            )
            for prev, cur in zip(records, records[1:]):
                assert cur.start >= prev.end - 1e-12


class TestSarathiStallBoundHolds:
    @pytest.mark.parametrize("budget", [128, 512])
    def test_no_iteration_exceeds_budget(self, tiny_deployment, budget):
        engine = build_engine(
            tiny_deployment,
            ServingConfig(scheduler="sarathi", token_budget=budget),
        )
        result = engine.run(_mixed_trace())
        for record in result.records:
            assert record.num_tokens <= budget

    def test_vllm_iterations_unbounded_by_contrast(self, tiny_deployment):
        engine = build_engine(
            tiny_deployment, ServingConfig(scheduler="vllm")
        )
        result = engine.run(_mixed_trace())
        assert max(r.num_tokens for r in result.records) > 2048
