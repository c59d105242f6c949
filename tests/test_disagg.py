"""Tests for disaggregated prefill/decode serving (§6 comparison).

Disaggregation is two fleet runs (``simulate_disaggregated``): a
prefill pool up to each request's first token, then a decode pool that
receives the requests prefilled, after their KV cache crossed the
migration link.  The decode pool rests on one engine behaviour, checked
first: a request that arrives prefilled decodes without a prefill.
"""

from __future__ import annotations

from array import array

import pytest

import repro.api
from repro.api import ServingConfig, build_engine, clone_requests
from repro.experiments.disagg_comparison import simulate_disaggregated
from repro.hardware.catalog import ETHERNET_100G, NVLINK
from repro.metrics.summary import summarize
from repro.metrics.timeline import stage_utilization
from repro.types import Request, RequestPhase

from tests.conftest import BUILTIN_NAMES, make_request, shrink_kv_memory

VLLM = ServingConfig(scheduler="vllm")


def run(tiny_deployment, requests, prefill=1, decode=1, link=NVLINK):
    return simulate_disaggregated(
        tiny_deployment,
        requests,
        prefill_replicas=prefill,
        decode_replicas=decode,
        link=link,
    )


@pytest.fixture
def kv_capacity(monkeypatch):
    """``kv_capacity(tokens)``: every engine built afterwards gets a
    KV pool of ``tokens`` (via ``shrink_kv_memory``)."""

    def shrink_to(tokens: int) -> None:
        build = repro.api.build_engine

        def build_small(*args, **kwargs):
            engine = build(*args, **kwargs)
            shrink_kv_memory(engine, capacity_tokens=tokens)
            return engine

        monkeypatch.setattr(repro.api, "build_engine", build_small)

    return shrink_to


def prefilled(prompt_len: int, output_len: int, first_token_at: float, arrival_time: float):
    """A request whose prompt was prefilled elsewhere, first token emitted."""
    return Request(
        prompt_len=prompt_len,
        output_len=output_len,
        arrival_time=arrival_time,
        phase=RequestPhase.DECODE,
        prefill_done=prompt_len,
        num_emitted=1,
        first_scheduled_at=first_token_at / 2,
        first_token_at=first_token_at,
        token_times=array("d", [first_token_at]),
    )


class TestPrefilledArrival:
    @pytest.mark.parametrize("kind", BUILTIN_NAMES)
    def test_decodes_without_prefill(self, tiny_deployment, kind):
        engine = build_engine(tiny_deployment, ServingConfig(scheduler=kind))
        request = prefilled(300, 6, first_token_at=0.2, arrival_time=0.5)
        result = engine.run([request])
        assert request.is_finished
        assert request.num_emitted == 6
        assert request.token_times[0] == 0.2
        assert len(request.token_times) == 6
        assert request.token_times[1] > 0.5
        assert len(result.records) == 5
        assert all(r.num_prefill_tokens == 0 for r in result.records)
        assert engine.scheduler.num_swap_ins == 0

    def test_waits_for_room(self, tiny_deployment):
        # Room for one 400-token context at a time: the second arrival
        # is held until the first finishes, then decodes, never prefills.
        engine = build_engine(tiny_deployment, VLLM)
        shrink_kv_memory(engine, capacity_tokens=700)
        first = prefilled(400, 20, first_token_at=0.1, arrival_time=0.1)
        second = prefilled(400, 20, first_token_at=0.1, arrival_time=0.1)
        result = engine.run([first, second])
        assert second.token_times[1] > first.finished_at
        assert all(r.num_prefill_tokens == 0 for r in result.records)
        assert result.num_preemptions == 0
        assert engine.scheduler.num_swap_ins == 0


class TestConstruction:
    def test_needs_replicas(self, tiny_deployment):
        with pytest.raises(ValueError):
            run(tiny_deployment, [make_request()], prefill=0)
        with pytest.raises(ValueError):
            run(tiny_deployment, [make_request()], decode=0)

    def test_needs_batch_cap(self, tiny_deployment):
        with pytest.raises(ValueError):
            ServingConfig(scheduler="vllm", max_batch_size=0)

    def test_empty_trace_rejected(self, tiny_deployment):
        with pytest.raises(ValueError):
            run(tiny_deployment, [])


class TestLifecycle:
    def test_single_request_completes(self, tiny_deployment):
        r = make_request(prompt_len=200, output_len=5, arrival_time=0.3)
        result, migrations, _ = run(tiny_deployment, [r])
        assert r.is_finished
        assert len(r.token_times) == 5
        assert migrations == 1
        assert r.arrival_time == 0.3
        assert result.requests == [r]

    def test_single_token_output_never_migrates(self, tiny_deployment):
        r = make_request(prompt_len=100, output_len=1)
        result, migrations, migration_time = run(tiny_deployment, [r])
        assert r.is_finished
        assert migrations == 0
        assert migration_time == 0.0
        # The decode instance exists and stayed idle.
        assert [len(log) for log in result.replica_logs] == [1, 0]

    def test_all_requests_complete(self, tiny_deployment):
        requests = [
            make_request(prompt_len=150, output_len=8, arrival_time=0.01 * i)
            for i in range(20)
        ]
        result, _, _ = run(tiny_deployment, requests, prefill=2, decode=2)
        assert all(r.is_finished for r in result.requests)
        assert not result.unfinished

    def test_metrics_summarizable(self, tiny_deployment):
        requests = [
            make_request(prompt_len=150, output_len=6, arrival_time=0.05 * i)
            for i in range(10)
        ]
        metrics = summarize(run(tiny_deployment, requests)[0])
        assert metrics.num_requests == 10
        assert metrics.p99_tbt > 0


class TestInstanceLogs:
    def test_bubble_fraction_averages_per_instance(self, tiny_deployment):
        # One shared log would let the prefill instance's batches fill
        # the decode instance's idle gaps (and vice versa), reading a
        # bubble fraction near zero for two mostly idle-or-busy GPUs.
        requests = [
            make_request(prompt_len=64, output_len=16, arrival_time=0.05 * i)
            for i in range(80)
        ]
        result, _, _ = run(tiny_deployment, requests)
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
        result, _, _ = run(
            tiny_deployment, [make_request(prompt_len=100, output_len=4)],
            prefill=2, decode=3,
        )
        assert len(result.replica_logs) == 5


class TestDecodeInterferenceFreedom:
    def test_decodes_never_share_iterations_with_prefills(self, tiny_deployment):
        requests = [
            make_request(prompt_len=400, output_len=12, arrival_time=0.02 * i)
            for i in range(12)
        ]
        result, _, _ = run(tiny_deployment, requests)
        for record in result.records:
            assert not (record.num_prefill_tokens and record.num_decode_tokens)

    def test_tbt_unaffected_by_concurrent_prefills(self, tiny_deployment):
        """The disaggregation selling point: long prompts do not stall
        the decode pool."""
        early = make_request(prompt_len=100, output_len=40, arrival_time=0.0)
        monsters = [
            make_request(prompt_len=4000, output_len=2, arrival_time=0.2 + 0.1 * i)
            for i in range(4)
        ]
        run(tiny_deployment, [early] + monsters)
        gaps = early.tbt_samples
        assert max(gaps) < 5 * min(gaps)


class TestMigration:
    def test_migration_time_scales_with_link(self, tiny_deployment):
        trace = [make_request(prompt_len=1000, output_len=4) for _ in range(5)]
        _, _, fast = run(tiny_deployment, clone_requests(trace), link=NVLINK)
        _, _, slow = run(tiny_deployment, clone_requests(trace), link=ETHERNET_100G)
        assert slow > 5 * fast

    def test_migration_delays_second_token(self, tiny_deployment):
        r = make_request(prompt_len=2000, output_len=3)
        run(tiny_deployment, [r], link=ETHERNET_100G)
        first_gap = r.token_times[1] - r.token_times[0]
        kv_bytes = tiny_deployment.model.kv_bytes(2000)
        assert first_gap >= ETHERNET_100G.transfer_time(kv_bytes)


class TestMemoryPressure:
    def test_staging_queue_under_tight_decode_memory(self, tiny_deployment, kv_capacity):
        # Each pool fits roughly one request at a time.
        kv_capacity(700)
        requests = [
            make_request(prompt_len=400, output_len=30, arrival_time=0.0)
            for _ in range(4)
        ]
        result, _, _ = run(tiny_deployment, requests)
        assert all(r.is_finished for r in result.requests)
        assert result.num_preemptions == 0
        assert all(r.num_prefill_tokens == 0 for r in result.replica_logs[1])

    def test_decode_pool_that_runs_out_recomputes(self, tiny_deployment, kv_capacity):
        # Admission takes a request whose current context fits, so four
        # contexts that grow from 201 to 400 tokens overrun a 700-token
        # decode pool: vLLM preempts the latest arrivals, which then
        # recompute their context in the decode pool, and all finish.
        kv_capacity(700)
        requests = [
            make_request(prompt_len=200, output_len=200, arrival_time=0.0)
            for _ in range(4)
        ]
        result, _, _ = run(tiny_deployment, requests)
        assert all(r.is_finished for r in result.requests)
        assert result.num_preemptions > 0
        assert sum(r.num_restarts for r in requests) == result.num_preemptions
        assert sum(r.num_prefill_tokens for r in result.replica_logs[1]) > 0

    def test_two_decode_replicas_balance(self, tiny_deployment, kv_capacity):
        kv_capacity(2048)
        requests = [
            make_request(prompt_len=500, output_len=20, arrival_time=0.0)
            for _ in range(6)
        ]
        result, _, _ = run(tiny_deployment, requests, decode=2)
        assert all(r.is_finished for r in result.requests)
        # Both decode replicas executed decode iterations.
        _, *decode_logs = result.replica_logs
        assert all(sum(r.num_decode_tokens for r in log) for log in decode_logs)
