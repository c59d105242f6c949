"""Fleet runs leave no cyclic garbage behind.

An engine never holds a reference to its owner (its replica slot or
the fleet), so reference counting alone frees every engine, with its
requests, token times and records, the moment nothing uses it.  These
tests run with the cyclic collector disabled: any reference cycle a
call creates survives to the ``gc.collect()`` that counts it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import Deployment, ServingConfig, simulate
from repro.cluster.degradation import BrownoutConfig, DegradationLevel
from repro.cluster.fleet import (
    FaultSchedule,
    FleetConfig,
    FleetSimulator,
    ReplicaFault,
    simulate_fleet,
)
from repro.cluster.health import HealthConfig
from repro.hardware.catalog import A100_80G
from repro.models.catalog import TINY_1B
from repro.scheduling import registered_names
from repro.workload.datasets import SHAREGPT4, generate_requests

from tests.conftest import make_request

pytestmark = pytest.mark.tier1

_DEPLOYMENT = Deployment(model=TINY_1B, gpu=A100_80G)


def _cyclic_garbage(call) -> int:
    """Objects a second ``call()`` leaves only the cyclic collector to free.

    The first call warms imports, registries and memo tables, which
    would otherwise count as new garbage.
    """
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def _fleet_config() -> FleetConfig:
    return FleetConfig(
        num_replicas=4,
        faults=FaultSchedule(
            (
                ReplicaFault(0, down_at=0.3, up_at=1.0),
                ReplicaFault(1, 0.1, 2.0, "slowdown", 5.0),
            )
        ),
        health=HealthConfig(check_interval=0.1, min_samples=8),
        brownout=BrownoutConfig(
            levels=(DegradationLevel(token_budget=128),),
            tbt_slo=0.002,
            min_samples=8,
            min_dwell=0.2,
        ),
    )


def _fleet_trace():
    return [
        make_request(prompt_len=64, output_len=150, arrival_time=0.01 * i)
        for i in range(40)
    ]


@pytest.mark.parametrize("scheduler", registered_names())
def test_simulate_leaves_no_cycles(scheduler):
    trace = generate_requests(SHAREGPT4, num_requests=12, qps=4.0, seed=0)
    config = ServingConfig(scheduler=scheduler)
    assert _cyclic_garbage(lambda: simulate(_DEPLOYMENT, config, trace)) == 0


def test_faulted_fleet_with_control_loops_leaves_no_cycles():
    trace = _fleet_trace()
    config = ServingConfig(token_budget=256)
    fleet = _fleet_config()
    result, _ = simulate_fleet(_DEPLOYMENT, config, trace, fleet)
    # The run exercises what it claims to: a crash, a slowdown, a
    # drain-restart and a brownout step.
    kinds = {event.kind for event in result.events}
    assert {"fault_down", "fault_degrade", "health_restart", "brownout_enter"} <= kinds
    assert _cyclic_garbage(
        lambda: simulate_fleet(_DEPLOYMENT, config, trace, fleet)
    ) == 0


class _CrashProbe(FleetSimulator):
    """Records whether each crashed engine is gone when its handler returns."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.freed: list[bool] = []

    def _crash_replica(self, index, now, queue) -> None:
        engine = self.replicas[index].engine
        ref = None if engine is None else weakref.ref(engine)
        del engine
        super()._crash_replica(index, now, queue)
        if ref is not None:
            self.freed.append(ref() is None)


def test_crashed_engine_freed_when_crash_handler_returns():
    simulator = _CrashProbe(
        _DEPLOYMENT, ServingConfig(token_budget=256), _fleet_config()
    )
    gc.disable()
    try:
        simulator.run(_fleet_trace())
    finally:
        gc.enable()
    assert simulator.freed == [True]
