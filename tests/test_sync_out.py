"""Incremental sync-out: emitted tokens fold into ``token_times`` exactly.

The engine logs ``(time, rows)`` per iteration into a packed
``EmissionLog`` and folds only the entries logged since the previous
synchronization point, in bounded chunks; a commit that fills the log
to one chunk folds it at once.  However often (and wherever) syncs
happen, the requests must end up exactly as in a run synced once at
the end.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.api import ServingConfig, build_engine, clone_requests
from repro.cluster.fleet import (
    FaultSchedule,
    FleetConfig,
    _ReplicaSlot,
    simulate_fleet,
)
from repro.cluster.router import RoundRobinRouter
from repro.engine.arrays import EmissionLog, RequestArrays
from repro.types import SchedulerKind
from repro.workload.conversation import ConversationWorkload

from tests.conftest import make_request
from tests.test_conversation import small_spec


def _trace(seed: int = 0, n: int = 60) -> list:
    rng = random.Random(seed)
    requests, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(400.0)
        requests.append(
            make_request(
                prompt_len=rng.randint(16, 300),
                output_len=rng.randint(2, 40),
                arrival_time=t,
            )
        )
    return requests


def _drive(deployment, trace, sync_seed: int | None = None, on_step=None):
    """Deliver ``trace`` through the stepped API, syncing at random points.

    ``on_step(engine)`` runs after every delivery and engine step.
    """
    engine = build_engine(
        deployment, ServingConfig(scheduler=SchedulerKind.SARATHI, token_budget=128)
    )
    arrivals = sorted(clone_requests(trace), key=lambda r: r.arrival_time)
    rng = None if sync_seed is None else random.Random(sync_seed)
    num_syncs = 0
    cursor = 0
    while True:
        next_internal = engine.next_event_time()
        if cursor < len(arrivals) and (
            next_internal is None or arrivals[cursor].arrival_time <= next_internal
        ):
            request = arrivals[cursor]
            cursor += 1
            engine.deliver(request, request.arrival_time)
        elif next_internal is not None:
            engine.step()
        else:
            break
        if on_step is not None:
            on_step(engine)
        if rng is not None and rng.random() < 0.1:
            if rng.random() < 0.5:
                engine.all_requests
            else:
                engine.pending_requests()
            assert len(engine._emit_log) == 0
            num_syncs += 1
    requests = sorted(engine.all_requests, key=lambda r: r.request_id)
    assert len(engine._emit_log) == 0
    # batch_id is a process-global counter, so it differs between runs.
    records = [dataclasses.replace(r, batch_id=0) for r in engine.records]
    return requests, records, num_syncs


@pytest.mark.parametrize("chunk", [1, 7, RequestArrays._SYNC_CHUNK])
@pytest.mark.parametrize("sync_seed", [0, 1])
def test_incremental_sync_matches_single_final_sync(
    tiny_deployment, monkeypatch, chunk, sync_seed
):
    trace = _trace()
    reference, reference_records, _ = _drive(tiny_deployment, trace)
    monkeypatch.setattr(RequestArrays, "_SYNC_CHUNK", chunk)
    requests, records, num_syncs = _drive(tiny_deployment, trace, sync_seed)
    assert num_syncs > 10
    assert records == reference_records
    assert requests == reference
    for request in requests:
        assert len(request.token_times) == request.output_len
        assert request.token_times.tolist() == sorted(request.token_times)


def test_emission_log_never_outgrows_one_chunk(tiny_deployment, monkeypatch):
    trace = _trace()
    reference, reference_records, _ = _drive(tiny_deployment, trace)
    monkeypatch.setattr(RequestArrays, "_SYNC_CHUNK", 7)
    logged: list[int] = []
    requests, records, _ = _drive(
        tiny_deployment,
        trace,
        on_step=lambda engine: logged.append(len(engine._emit_log.rows)),
    )
    # Far more than one chunk is emitted, yet a full chunk is folded
    # by the commit that fills it.
    assert sum(r.output_len for r in trace) > 100 * 7
    assert max(logged) < 7
    assert records == reference_records
    assert requests == reference


@pytest.mark.parametrize("chunk", [7, RequestArrays._SYNC_CHUNK])
# 70,000 rows: rows sharing their low 16 bits share a sort key.
@pytest.mark.parametrize("num_rows", [300, 70_000])
def test_sync_out_matches_per_token_append(monkeypatch, chunk, num_rows):
    monkeypatch.setattr(RequestArrays, "_SYNC_CHUNK", chunk)
    rng = np.random.default_rng(num_rows)
    arrays = RequestArrays()
    arrays.ingest_many(
        [make_request(prompt_len=8, output_len=8) for _ in range(num_rows)]
    )
    failed_over = arrays.requests[-1].token_times
    failed_over.extend([0.25, 0.5])
    expected = [list(r.token_times) for r in arrays.requests]
    for step in range(3):
        log = EmissionLog()
        for i in range(40):
            now = step + i / 40 + 1.0
            rows = rng.choice(num_rows, size=int(rng.integers(1, 30)), replace=False)
            if num_rows > 1 << 16 and i % 3 == 0:
                rows = rng.permutation(np.union1d(rows, [5, 5 + (1 << 16)]))
            log.append(now, rows)
            for row in rows.tolist():
                expected[row].append(now)
        arrays.sync_out(log)
        assert len(log) == 0
        assert [r.token_times.tolist() for r in arrays.requests] == expected
    assert arrays.requests[-1].token_times is failed_over


def test_sync_out_is_idempotent(tiny_deployment):
    engine = build_engine(tiny_deployment, ServingConfig())
    result = engine.run(clone_requests(_trace(n=10)))
    before = [list(r.token_times) for r in result.requests]
    engine.all_requests
    engine.pending_requests()
    assert [r.token_times.tolist() for r in engine.all_requests] == before


def test_failover_keeps_pre_crash_times_then_appends(tiny_deployment, monkeypatch):
    crash_times: dict[int, tuple[float, list[float]]] = {}
    original_crash = _ReplicaSlot.crash

    def recording_crash(self, now):
        failed = original_crash(self, now)
        for request in failed:
            crash_times[request.request_id] = (now, list(request.token_times))
        return failed

    monkeypatch.setattr(_ReplicaSlot, "crash", recording_crash)
    trace = [
        make_request(prompt_len=200, output_len=40, arrival_time=0.001 * i)
        for i in range(24)
    ]
    result, _ = simulate_fleet(
        tiny_deployment,
        ServingConfig(),
        trace,
        FleetConfig(num_replicas=2, faults=FaultSchedule.single(0, down_at=0.05)),
        router=RoundRobinRouter(2),
    )
    assert not result.lost_requests()
    by_id = {r.request_id: r for r in result.finished_requests}
    mid_decode = 0
    for request_id, (crashed_at, before) in crash_times.items():
        times = by_id[request_id].token_times.tolist()
        assert times[: len(before)] == before
        assert all(t > crashed_at for t in times[len(before) :])
        assert times == sorted(times)
        assert len(times) == by_id[request_id].output_len
        mid_decode += 0 < len(before) < len(times)
    assert mid_decode > 0


def test_followup_handoff_sees_final_token_times(tiny_deployment):
    workload = ConversationWorkload(small_spec(num_conversations=8), seed=3)
    handed_off: dict[int, list[float]] = {}

    def followup(request, now):
        assert request.is_finished and request.finished_at == now
        handed_off[request.request_id] = list(request.token_times)
        return workload.followup(request, now)

    engine = build_engine(
        tiny_deployment, ServingConfig(scheduler=SchedulerKind.SARATHI)
    )
    result = engine.run(workload.initial_requests(), followup_fn=followup)
    assert len(engine._emit_log) == 0
    assert len(result.requests) > 8  # follow-up rounds ran
    assert handed_off == {r.request_id: r.token_times.tolist() for r in result.requests}
    for request in result.requests:
        assert len(request.token_times) == request.output_len
