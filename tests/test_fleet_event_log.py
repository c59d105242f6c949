"""The packed fleet event log against the event records it stores.

``FleetEventLog`` keeps each control decision as typed columns and
builds ``FleetEvent`` records only when read.  Every event must come
back field for field, the log must compare equal to the list of the
same events, and a fleet run must keep no ``FleetEvent`` alive until
something reads its log.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServingConfig
from repro.cluster.fleet import (
    EVENT_KINDS,
    FaultSchedule,
    FleetConfig,
    FleetEvent,
    FleetEventLog,
    simulate_fleet,
)
from repro.cluster.router import RoundRobinRouter

from tests.conftest import make_request

pytestmark = pytest.mark.tier1

_IDS = st.none() | st.integers(min_value=0, max_value=2**63 - 1)
_TIMES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

_EVENTS = st.builds(
    FleetEvent,
    time=_TIMES,
    kind=st.sampled_from(EVENT_KINDS),
    request_id=_IDS,
    replica=_IDS,
    attempt=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    reason=st.none() | st.text(max_size=12),
    queue_depth=_IDS,
    outstanding_tokens=_IDS,
    retry_at=st.none() | _TIMES,
)


def _log(events) -> FleetEventLog:
    log = FleetEventLog()
    for event in events:
        log.add(**{f.name: getattr(event, f.name) for f in dataclasses.fields(FleetEvent)})
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(_EVENTS, max_size=30), st.data())
def test_events_round_trip_field_for_field(events, data):
    log = _log(events)
    assert len(log) == len(events)
    assert list(log) == events
    assert log == events and events == log
    assert log == tuple(events)
    assert log == _log(events)
    for i, event in enumerate(events):
        for f in dataclasses.fields(FleetEvent):
            assert getattr(log[i], f.name) == getattr(event, f.name)
        assert log[i - len(events)] == event
    start = data.draw(st.integers(-35, 35) | st.none())
    stop = data.draw(st.integers(-35, 35) | st.none())
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    assert log[start:stop:step] == events[start:stop:step]
    if events:
        assert log != events[:-1]


def test_every_kind_is_covered():
    for kind in EVENT_KINDS:
        FleetEventLog().add(0.0, kind)
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS) < 256


def test_out_of_range_index_raises():
    log = _log([FleetEvent(time=1.0, kind="route")])
    with pytest.raises(IndexError):
        log[1]
    with pytest.raises(IndexError):
        log[-2]


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"kind": "teleport"}, ValueError),
        ({"kind": "route", "replica": -1}, ValueError),
        ({"kind": "route", "request_id": -7}, ValueError),
        ({"kind": "route", "attempt": 2**31}, OverflowError),
        ({"kind": "route", "request_id": 2**63}, OverflowError),
    ],
)
def test_a_value_that_does_not_fit_leaves_no_partial_row(fields, error):
    event = FleetEvent(time=0.5, kind="shed", request_id=3, reason="queue_full")
    log = _log([event])
    with pytest.raises(error):
        log.add(time=1.0, **fields)
    assert len(log) == 1
    log.add(time=2.0, kind="fault_up", replica=0)
    assert log == [event, FleetEvent(time=2.0, kind="fault_up", replica=0)]


def _live_events() -> int:
    # Instances of a slotted class are always tracked by gc.
    return sum(isinstance(o, FleetEvent) for o in gc.get_objects())


def test_a_fleet_run_builds_no_event_until_the_log_is_read(tiny_deployment):
    trace = [
        make_request(prompt_len=200, output_len=40, arrival_time=0.001 * i)
        for i in range(24)
    ]
    gc.collect()
    before = _live_events()
    result, _ = simulate_fleet(
        tiny_deployment,
        ServingConfig(),
        trace,
        FleetConfig(num_replicas=2, faults=FaultSchedule.single(0, down_at=0.05)),
        router=RoundRobinRouter(2),
    )
    gc.collect()
    assert isinstance(result.events, FleetEventLog)
    assert _live_events() == before
    kinds = [event.kind for event in result.events]
    assert kinds.count("fault_down") == 1
    assert kinds.count("failover") == result.num_failovers > 0
    held = list(result.events)
    assert _live_events() - before == len(held) == len(result.events)
