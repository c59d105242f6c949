"""Tests for the high-level Deployment / ServingConfig / simulate API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    Deployment,
    ServingConfig,
    build_vectorized_scheduler,
    clone_requests,
    simulate,
)
from repro.hardware.catalog import A100_80G
from repro.models.catalog import TINY_1B, YI_34B
from repro.parallel.config import ParallelConfig
from repro.scheduling.vectorized import (
    VecChunkedPrefillsOnlyScheduler,
    VecFasterTransformerScheduler,
    VecOrcaScheduler,
    VecPagedMemory,
    VecReservationMemory,
    VecSarathiScheduler,
    VecVLLMScheduler,
)
from repro.types import Request, SchedulerKind

from tests.conftest import make_request


class TestDeployment:
    def test_label(self):
        d = Deployment(
            model=YI_34B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=2)
        )
        assert d.label == "Yi-34B/A100-80GB/TP2-PP1"

    def test_execution_model_wiring(self, tiny_deployment):
        exec_model = tiny_deployment.execution_model()
        assert exec_model.model is TINY_1B
        assert exec_model.gpu is A100_80G

    def test_kv_capacity_reservation_smaller(self, tiny_deployment):
        paged = tiny_deployment.kv_capacity_tokens(reservation_style=False)
        reserved = tiny_deployment.kv_capacity_tokens(reservation_style=True)
        assert reserved < paged


class TestBuildScheduler:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            (SchedulerKind.FASTER_TRANSFORMER, VecFasterTransformerScheduler),
            (SchedulerKind.ORCA, VecOrcaScheduler),
            (SchedulerKind.VLLM, VecVLLMScheduler),
            (SchedulerKind.SARATHI, VecSarathiScheduler),
            (SchedulerKind.CHUNKED_ONLY, VecChunkedPrefillsOnlyScheduler),
            (SchedulerKind.HYBRID_ONLY, VecSarathiScheduler),
        ],
    )
    def test_all_kinds_buildable(self, tiny_deployment, kind, cls):
        scheduler = build_vectorized_scheduler(
            tiny_deployment, ServingConfig(scheduler=kind)
        )
        assert isinstance(scheduler, cls)

    def test_memory_family_matches_scheduler(self, tiny_deployment):
        orca = build_vectorized_scheduler(
            tiny_deployment, ServingConfig(scheduler=SchedulerKind.ORCA)
        )
        vllm = build_vectorized_scheduler(
            tiny_deployment, ServingConfig(scheduler=SchedulerKind.VLLM)
        )
        assert isinstance(orca.memory, VecReservationMemory)
        assert isinstance(vllm.memory, VecPagedMemory)

    def test_hybrid_only_has_chunking_disabled(self, tiny_deployment):
        s = build_vectorized_scheduler(
            tiny_deployment, ServingConfig(scheduler=SchedulerKind.HYBRID_ONLY)
        )
        assert not s.chunk_prefills

    def test_with_budget_helper(self):
        config = ServingConfig(token_budget=512)
        assert config.with_budget(2048).token_budget == 2048
        assert config.token_budget == 512  # original untouched


class TestCloneRequests:
    def test_clone_isolates_mutation(self):
        original = [make_request(prompt_len=50, output_len=3)]
        clones = clone_requests(original)
        clones[0].record_prefill(50, now=1.0)
        assert original[0].prefill_done == 0
        assert clones[0].prefill_done == 50

    def test_clone_preserves_fields(self):
        original = [make_request(prompt_len=50, output_len=3, arrival_time=2.0)]
        clone = clone_requests(original)[0]
        assert clone.prompt_len == 50
        assert clone.arrival_time == 2.0
        assert clone.request_id == original[0].request_id

    def test_clone_equal_field_for_field_with_fresh_token_times(self):
        original = [
            make_request(prompt_len=50, output_len=3, arrival_time=2.0),
            Request(prompt_len=40, output_len=5, prefix_id=3, prefix_len=8),
        ]
        original[1].record_prefill(40, now=1.0)
        original[1].record_decode(now=1.5)
        clones = clone_requests(original)
        for clone, request in zip(clones, original):
            assert clone is not request
            for f in dataclasses.fields(Request):
                assert getattr(clone, f.name) == getattr(request, f.name), f.name
            assert clone.token_times is not request.token_times
        clones[1].record_decode(now=2.0)
        assert original[1].token_times.tolist() == [1.0, 1.5]


class TestSimulate:
    def test_returns_result_and_metrics(self, tiny_deployment):
        trace = [make_request(prompt_len=64, output_len=3) for _ in range(5)]
        result, metrics = simulate(tiny_deployment, ServingConfig(), trace)
        assert metrics.num_requests == 5
        assert len(result.finished_requests) == 5

    def test_input_trace_not_mutated(self, tiny_deployment):
        trace = [make_request(prompt_len=64, output_len=3)]
        simulate(tiny_deployment, ServingConfig(), trace)
        assert trace[0].prefill_done == 0
        assert not trace[0].is_finished

    def test_same_trace_reusable_across_schedulers(self, tiny_deployment):
        trace = [
            make_request(prompt_len=64, output_len=3, arrival_time=0.01 * i)
            for i in range(6)
        ]
        for kind in SchedulerKind:
            _, metrics = simulate(
                tiny_deployment, ServingConfig(scheduler=kind), trace
            )
            assert metrics.num_requests == 6
