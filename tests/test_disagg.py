"""Tests for the disaggregated prefill/decode engine (§6 comparison)."""

from __future__ import annotations

import pytest

from repro.disagg.engine import DisaggregatedEngine
from repro.hardware.catalog import ETHERNET_100G, NVLINK
from repro.metrics.summary import summarize
from repro.metrics.timeline import stage_utilization

from tests.conftest import make_request


def build(tiny_deployment, prefill=1, decode=1, link=NVLINK, capacity=None, **kw):
    return DisaggregatedEngine(
        tiny_deployment.execution_model(),
        num_prefill_replicas=prefill,
        num_decode_replicas=decode,
        migration_link=link,
        decode_kv_capacity=capacity or tiny_deployment.kv_capacity_tokens(),
        **kw,
    )


class TestConstruction:
    def test_needs_replicas(self, tiny_deployment):
        with pytest.raises(ValueError):
            build(tiny_deployment, prefill=0)
        with pytest.raises(ValueError):
            build(tiny_deployment, decode=0)

    def test_needs_batch_cap(self, tiny_deployment):
        with pytest.raises(ValueError):
            build(tiny_deployment, max_decode_batch=0)

    def test_empty_trace_rejected(self, tiny_deployment):
        with pytest.raises(ValueError):
            build(tiny_deployment).run([])


class TestLifecycle:
    def test_single_request_completes(self, tiny_deployment):
        engine = build(tiny_deployment)
        r = make_request(prompt_len=200, output_len=5)
        result = engine.run([r])
        assert r.is_finished
        assert len(r.token_times) == 5
        assert engine.num_migrations == 1

    def test_single_token_output_never_migrates(self, tiny_deployment):
        engine = build(tiny_deployment)
        r = make_request(prompt_len=100, output_len=1)
        engine.run([r])
        assert r.is_finished
        assert engine.num_migrations == 0

    def test_all_requests_complete(self, tiny_deployment):
        engine = build(tiny_deployment, prefill=2, decode=2)
        requests = [
            make_request(prompt_len=150, output_len=8, arrival_time=0.01 * i)
            for i in range(20)
        ]
        result = engine.run(requests)
        assert all(r.is_finished for r in result.requests)
        assert not result.unfinished

    def test_metrics_summarizable(self, tiny_deployment):
        engine = build(tiny_deployment)
        requests = [
            make_request(prompt_len=150, output_len=6, arrival_time=0.05 * i)
            for i in range(10)
        ]
        metrics = summarize(engine.run(requests))
        assert metrics.num_requests == 10
        assert metrics.p99_tbt > 0


class TestInstanceLogs:
    def test_bubble_fraction_averages_per_instance(self, tiny_deployment):
        # One shared log would let the prefill instance's batches fill
        # the decode instance's idle gaps (and vice versa), reading a
        # bubble fraction near zero for two mostly idle-or-busy GPUs.
        engine = build(tiny_deployment)
        requests = [
            make_request(prompt_len=64, output_len=16, arrival_time=0.05 * i)
            for i in range(80)
        ]
        result = engine.run(requests)
        prefill_log, decode_log = result.replica_logs
        assert all(r.num_decode_tokens == 0 for r in prefill_log)
        assert all(r.num_prefill_tokens == 0 for r in decode_log)
        assert len(result.records) == len(prefill_log) + len(decode_log)
        prefill = stage_utilization(prefill_log, 0).bubble_fraction
        decode = stage_utilization(decode_log, 0).bubble_fraction
        assert prefill == pytest.approx(0.937, abs=1e-3)
        assert decode == pytest.approx(0.066, abs=1e-3)
        assert summarize(result).mean_bubble_fraction == pytest.approx(
            (prefill + decode) / 2
        )

    def test_one_log_per_instance(self, tiny_deployment):
        engine = build(tiny_deployment, prefill=2, decode=3)
        result = engine.run([make_request(prompt_len=100, output_len=4)])
        assert len(result.replica_logs) == 5


class TestDecodeInterferenceFreedom:
    def test_decodes_never_share_iterations_with_prefills(self, tiny_deployment):
        engine = build(tiny_deployment)
        requests = [
            make_request(prompt_len=400, output_len=12, arrival_time=0.02 * i)
            for i in range(12)
        ]
        result = engine.run(requests)
        for record in result.records:
            assert not (record.num_prefill_tokens and record.num_decode_tokens)

    def test_tbt_unaffected_by_concurrent_prefills(self, tiny_deployment):
        """The disaggregation selling point: long prompts do not stall
        the decode pool."""
        engine = build(tiny_deployment)
        early = make_request(prompt_len=100, output_len=40, arrival_time=0.0)
        monsters = [
            make_request(prompt_len=4000, output_len=2, arrival_time=0.2 + 0.1 * i)
            for i in range(4)
        ]
        engine.run([early] + monsters)
        gaps = early.tbt_samples
        assert max(gaps) < 5 * min(gaps)


class TestMigration:
    def test_migration_time_scales_with_link(self, tiny_deployment):
        fast = build(tiny_deployment, link=NVLINK)
        slow = build(tiny_deployment, link=ETHERNET_100G)
        trace = [make_request(prompt_len=1000, output_len=4) for _ in range(5)]
        from repro.api import clone_requests

        fast.run(clone_requests(trace))
        slow.run(clone_requests(trace))
        assert slow.total_migration_time > 5 * fast.total_migration_time

    def test_migration_delays_second_token(self, tiny_deployment):
        engine = build(tiny_deployment, link=ETHERNET_100G)
        r = make_request(prompt_len=2000, output_len=3)
        engine.run([r])
        first_gap = r.token_times[1] - r.token_times[0]
        exec_model = tiny_deployment.execution_model()
        kv_bytes = exec_model.model.kv_bytes(2000)
        assert first_gap >= ETHERNET_100G.transfer_time(kv_bytes)


class TestMemoryPressure:
    def test_staging_queue_under_tight_decode_memory(self, tiny_deployment):
        # Decode pool fits roughly one request at a time.
        engine = build(tiny_deployment, capacity=700)
        requests = [
            make_request(prompt_len=400, output_len=30, arrival_time=0.0)
            for _ in range(4)
        ]
        result = engine.run(requests)
        assert all(r.is_finished for r in result.requests)

    def test_two_decode_replicas_balance(self, tiny_deployment):
        engine = build(tiny_deployment, decode=2, capacity=2048)
        requests = [
            make_request(prompt_len=500, output_len=20, arrival_time=0.0)
            for _ in range(6)
        ]
        result = engine.run(requests)
        assert all(r.is_finished for r in result.requests)
        # Both replicas executed decode iterations (negative batch ids
        # encode the decode replica index).
        decode_batches = {r.batch_id for r in result.records if r.num_decode_tokens}
        assert len(decode_batches) == 2
