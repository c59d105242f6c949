"""Tests for the event queue and the replica engine."""

from __future__ import annotations

import pytest

from repro.api import Deployment, ServingConfig, build_engine, simulate
from repro.engine.simulator import EventQueue
from repro.types import Request

from tests.conftest import make_request

pytestmark = pytest.mark.tier1


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(2.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop()[1] == "first"
        assert q.pop()[1] == "second"

    def test_now_advances(self):
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        assert q.now == 5.0

    def test_push_into_past_rejected(self):
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        with pytest.raises(ValueError):
            q.push(4.0, "y")

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, "x")
        assert q
        assert len(q) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, bad):
        # Regression: a NaN-timed entry compares false against every
        # other entry, silently corrupting heap order instead of failing.
        q = EventQueue()
        q.push(1.0, "ok")
        with pytest.raises(ValueError, match="non-finite"):
            q.push(bad, "bad")
        assert len(q) == 1
        assert q.pop()[1] == "ok"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_caught_on_pop_and_peek(self, bad):
        # Regression: the guard must also fire on the way *out*.  An
        # entry that slipped in around push() (direct heap surgery, a
        # buggy subclass) sits at the root comparing false against
        # everything; pop/peek must fail loudly instead of silently
        # reordering every later pop.
        import heapq

        for probe in ("peek_time", "pop"):
            q = EventQueue()
            heapq.heappush(q._heap, (bad, 0, "bad", None))
            with pytest.raises(ValueError, match="non-finite"):
                getattr(q, probe)()


@pytest.mark.usefixtures("core")
class TestReplicaEngineSingleStage:
    def _run(self, deployment, requests, scheduler="sarathi", **cfg):
        config = ServingConfig(scheduler=scheduler, **cfg)
        engine = build_engine(deployment, config)
        return engine.run(requests)

    def test_empty_trace_rejected(self, tiny_deployment):
        engine = build_engine(tiny_deployment, ServingConfig())
        with pytest.raises(ValueError):
            engine.run([])

    def test_single_request_completes(self, tiny_deployment):
        r = make_request(prompt_len=100, output_len=5)
        result = self._run(tiny_deployment, [r])
        assert r.is_finished
        assert len(r.token_times) == 5
        assert result.makespan > 0
        assert not result.unfinished

    def test_all_requests_finish(self, tiny_deployment):
        requests = [
            make_request(prompt_len=64, output_len=4, arrival_time=0.01 * i)
            for i in range(20)
        ]
        result = self._run(tiny_deployment, requests)
        assert all(r.is_finished for r in result.requests)

    def test_token_times_monotone(self, tiny_deployment):
        requests = [
            make_request(prompt_len=200, output_len=10, arrival_time=0.05 * i)
            for i in range(10)
        ]
        self._run(tiny_deployment, requests)
        for r in requests:
            assert r.token_times.tolist() == sorted(r.token_times)
            assert r.token_times[0] >= r.arrival_time

    def test_records_cover_all_work(self, tiny_deployment):
        requests = [make_request(prompt_len=128, output_len=4) for _ in range(4)]
        result = self._run(tiny_deployment, requests)
        total_prefill = sum(rec.num_prefill_tokens for rec in result.records)
        total_decode = sum(rec.num_decode_tokens for rec in result.records)
        assert total_prefill == sum(r.prompt_len for r in requests)
        # Each request decodes output_len - 1 tokens (first comes from prefill).
        assert total_decode == sum(r.output_len - 1 for r in requests)

    def test_records_non_overlapping_single_stage(self, tiny_deployment):
        requests = [make_request(prompt_len=128, output_len=6) for _ in range(6)]
        result = self._run(tiny_deployment, requests)
        records = sorted(result.records, key=lambda rec: rec.start)
        for prev, cur in zip(records, records[1:]):
            assert cur.start >= prev.end - 1e-12

    def test_deterministic_replay(self, tiny_deployment):
        def run_once():
            trace = [
                make_request(prompt_len=100 + 10 * i, output_len=5, arrival_time=0.02 * i)
                for i in range(10)
            ]
            result = self._run(tiny_deployment, trace)
            return [r.finished_at for r in result.requests]

        assert run_once() == run_once()

    def test_determinism_via_simulate(self, tiny_deployment):
        trace = [
            make_request(prompt_len=100, output_len=5, arrival_time=0.02 * i)
            for i in range(10)
        ]
        config = ServingConfig()
        _, m1 = simulate(tiny_deployment, config, trace)
        _, m2 = simulate(tiny_deployment, config, trace)
        assert m1 == m2

    def test_arrival_order_respected(self, tiny_deployment):
        early = make_request(prompt_len=64, output_len=2, arrival_time=0.0)
        late = make_request(prompt_len=64, output_len=2, arrival_time=1.0)
        self._run(tiny_deployment, [late, early])
        assert early.first_token_at < late.first_token_at

    def test_vllm_and_ft_also_run_clean(self, tiny_deployment):
        for kind in ("vllm", "faster_transformer"):
            requests = [
                make_request(prompt_len=100, output_len=4, arrival_time=0.01 * i)
                for i in range(8)
            ]
            result = self._run(tiny_deployment, requests, scheduler=kind)
            assert all(r.is_finished for r in result.requests)


class TestReplicaEnginePipeline:
    def test_pipeline_runs_all_requests(self, tiny_pp_deployment):
        requests = [
            make_request(prompt_len=128, output_len=6, arrival_time=0.01 * i)
            for i in range(12)
        ]
        engine = build_engine(tiny_pp_deployment, ServingConfig())
        result = engine.run(requests)
        assert all(r.is_finished for r in result.requests)
        assert result.num_stages == 2

    def test_both_stages_execute_every_batch(self, tiny_pp_deployment):
        requests = [make_request(prompt_len=128, output_len=4) for _ in range(4)]
        engine = build_engine(tiny_pp_deployment, ServingConfig())
        result = engine.run(requests)
        stage0 = [r for r in result.records if r.stage == 0]
        stage1 = [r for r in result.records if r.stage == 1]
        assert len(stage0) == len(stage1)
        assert {r.batch_id for r in stage0} == {r.batch_id for r in stage1}

    def test_stage1_starts_after_stage0_finishes(self, tiny_pp_deployment):
        requests = [make_request(prompt_len=128, output_len=4) for _ in range(4)]
        engine = build_engine(tiny_pp_deployment, ServingConfig())
        result = engine.run(requests)
        stage0_end = {r.batch_id: r.end for r in result.records if r.stage == 0}
        for rec in result.records:
            if rec.stage == 1:
                assert rec.start >= stage0_end[rec.batch_id] - 1e-12

    def test_micro_batches_overlap_across_stages(self, tiny_pp_deployment):
        """Pipelining: stage 0 works on batch i+1 while stage 1 runs batch i."""
        requests = [
            make_request(prompt_len=512, output_len=20, arrival_time=0.0)
            for _ in range(16)
        ]
        engine = build_engine(tiny_pp_deployment, ServingConfig())
        result = engine.run(requests)
        stage0 = sorted((r for r in result.records if r.stage == 0), key=lambda r: r.start)
        stage1 = {r.batch_id: r for r in result.records if r.stage == 1}
        overlapped = any(
            rec.start < stage1[prev.batch_id].end
            for prev, rec in zip(stage0, stage0[1:])
            if prev.batch_id in stage1 and stage1[prev.batch_id].start >= prev.end - 1e-12
        )
        assert overlapped

    def test_inflight_cap_respected(self, tiny_pp_deployment):
        """At most one batch per stage is in flight, from its stage-0
        start to its last-stage end (inter-stage sends included)."""
        engine = build_engine(tiny_pp_deployment, ServingConfig())
        requests = [make_request(prompt_len=128, output_len=4) for _ in range(6)]
        result = engine.run(requests)
        spans: dict[int, tuple[float, float]] = {}
        for rec in result.records:
            start, end = spans.get(rec.batch_id, (rec.start, rec.end))
            spans[rec.batch_id] = (min(start, rec.start), max(end, rec.end))
        # At equal times a retiring batch (-1) counts before a new one (+1).
        edges = sorted(
            [(end, -1) for _, end in spans.values()]
            + [(start, 1) for start, _ in spans.values()]
        )
        inflight = peak = 0
        for _, step in edges:
            inflight += step
            peak = max(peak, inflight)
        assert peak == engine.num_stages

    def test_request_never_in_two_inflight_batches(self, tiny_pp_deployment):
        """Iteration-level scheduling invariant under PP."""
        requests = [make_request(prompt_len=256, output_len=12) for _ in range(6)]
        engine = build_engine(tiny_pp_deployment, ServingConfig())

        live: dict[int, set[int]] = {}
        original_schedule = engine.scheduler.schedule
        original_complete = engine.scheduler.on_batch_complete
        violations = []

        def schedule(now):
            batch = original_schedule(now)
            if batch is not None:
                requests_by_row = engine.scheduler.A.requests
                for row in [*batch.decode_rows.tolist(), *batch.p_rows]:
                    rid = requests_by_row[row].request_id
                    for members in live.values():
                        if rid in members:
                            violations.append(rid)
                    live.setdefault(batch.batch_id, set()).add(rid)
            return batch

        def complete(batch, now):
            live.pop(batch.batch_id, None)
            return original_complete(batch, now)

        engine.scheduler.schedule = schedule  # type: ignore[method-assign]
        engine.scheduler.on_batch_complete = complete  # type: ignore[method-assign]
        engine.run(requests)
        assert violations == []


class TestEngineConfigValidation:
    def test_invalid_preemption_mode_via_api(self, tiny_deployment):
        from repro.api import ServingConfig

        # Validation moved to construction time: the typo fails where
        # it was written, not inside the scheduler factory.
        with pytest.raises(ValueError, match="preemption_mode"):
            ServingConfig(scheduler="vllm", preemption_mode="teleport")
