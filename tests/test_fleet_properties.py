"""Property tests: request conservation under arbitrary fault schedules.

The invariant the fleet simulator must never break: whatever the fault
schedule, admission bound or router, every offered request is either
finished exactly once or explicitly shed — never lost, never
double-finished, and never finished with the wrong number of tokens.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Deployment, ServingConfig
from repro.cluster import fleet as fleet_module
from repro.cluster.degradation import BrownoutConfig, DegradationLevel
from repro.cluster.fleet import (
    AdmissionPolicy,
    FaultSchedule,
    FleetConfig,
    FleetSimulator,
    HealthConfig,
    ReplicaFault,
    partition_domains,
)
from repro.cluster.router import LeastOutstandingTokensRouter, RoundRobinRouter
from repro.hardware.catalog import A100_80G
from repro.models.catalog import TINY_1B

from tests.conftest import make_request

pytestmark = pytest.mark.tier1

_DEPLOYMENT = Deployment(model=TINY_1B, gpu=A100_80G)


@pytest.fixture(autouse=True, scope="module")
def _two_retries():
    """Two retries keep the rejected requests' runs short."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fleet_module, "MAX_RETRIES", 2)
        yield


def _quantize(value: float) -> float:
    """Coarse time grid keeps fault instants reproducible in reports."""
    return round(value, 3)


@st.composite
def fault_schedules(draw, num_replicas: int):
    faults = []
    # Per-replica cursor keeps the generated windows disjoint in time:
    # overlapping same-replica faults are rejected by
    # ``FaultSchedule.validate`` by design, so conservation only has to
    # hold for schedules that pass validation.
    next_free: dict[int, float | None] = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        replica = draw(st.integers(min_value=0, max_value=num_replicas - 1))
        if replica in next_free and next_free[replica] is None:
            continue  # already down forever: anything later would overlap
        start = next_free.get(replica, 0.0)
        down_at = _quantize(start + draw(st.floats(min_value=0.0, max_value=0.8)))
        if draw(st.booleans()):
            up_at = _quantize(down_at + draw(st.floats(min_value=0.05, max_value=0.5)))
        else:
            up_at = None
        next_free[replica] = up_at
        faults.append(ReplicaFault(replica, down_at, up_at))
    return FaultSchedule(tuple(faults))


@st.composite
def fleet_scenarios(draw):
    num_replicas = draw(st.integers(min_value=1, max_value=3))
    schedule = draw(fault_schedules(num_replicas))
    max_queue_depth = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=3)))
    admission = draw(st.sampled_from(list(AdmissionPolicy)))
    round_robin = draw(st.booleans())
    num_requests = draw(st.integers(min_value=1, max_value=10))
    gap = _quantize(draw(st.floats(min_value=0.0, max_value=0.05)))
    return (
        FleetConfig(
            num_replicas=num_replicas,
            faults=schedule,
            max_queue_depth=max_queue_depth,
            admission=admission,
        ),
        round_robin,
        num_requests,
        gap,
    )


@pytest.mark.usefixtures("core")
@settings(max_examples=25, deadline=None)
@given(scenario=fleet_scenarios())
def test_no_request_lost_or_double_finished(scenario):
    fleet_config, round_robin, num_requests, gap = scenario
    trace = [
        make_request(prompt_len=600, output_len=5, arrival_time=gap * i)
        for i in range(num_requests)
    ]
    router = (
        RoundRobinRouter(fleet_config.num_replicas)
        if round_robin
        else LeastOutstandingTokensRouter(fleet_config.num_replicas)
    )
    config = ServingConfig()
    simulator = FleetSimulator(_DEPLOYMENT, config, fleet_config, router=router)
    result = simulator.run(trace)

    # Conservation: finished XOR shed, nothing lost.
    assert not result.lost_requests()
    shed_ids = {r.request_id for r in result.shed}
    for request in result.requests:
        assert request.is_finished != (request.request_id in shed_ids)

    # No double-finish / over-emission: a finished request emitted its
    # output exactly once, monotone token times, regardless of how many
    # failover restarts it survived.
    for request in result.requests:
        assert request.num_emitted <= request.output_len
        if request.is_finished:
            assert request.num_emitted == request.output_len
            assert len(request.token_times) == request.output_len
            assert request.token_times.tolist() == sorted(request.token_times)
            assert request.finished_at == request.token_times[-1]

    # Each request was delivered to at most one replica at a time:
    # across all replica incarnations, a request id appears in at most
    # one *live* engine's pool, and each finish is recorded once.
    finished_ids = [
        r.request_id
        for replica_result in result.replica_results
        for r in replica_result.requests
        if r.is_finished
    ]
    assert len(finished_ids) == len(set(finished_ids))


@pytest.mark.usefixtures("core")
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**10),
    rate=st.floats(min_value=0.1, max_value=1.5),
    kind=st.sampled_from(["crash", "slowdown", "capacity_loss"]),
    num_replicas=st.integers(min_value=2, max_value=4),
    brownout=st.booleans(),
    num_requests=st.integers(min_value=1, max_value=8),
)
def test_conservation_under_correlated_faults_and_degradation(
    seed, rate, kind, num_replicas, brownout, num_requests
):
    """Satellite invariant: correlated domain faults of every kind, with
    the health monitor draining/restarting replicas and the brownout
    controller stepping through degradation levels (including shedding
    a tenant class), must still conserve every request — finished once
    XOR explicitly shed, never lost."""
    domains = partition_domains(num_replicas, min(2, num_replicas))
    schedule = FaultSchedule.correlated(
        domains, rate=rate, mean_downtime=0.4, horizon=2.0, seed=seed, kind=kind
    )
    # An aggressive ladder so brownout transitions actually happen in
    # short runs: it enters as soon as pooled p99 TBT exceeds 1.1x a
    # deliberately tiny SLO, and sheds tenant class 2 at its top rung.
    brownout_config = BrownoutConfig(
        levels=(
            DegradationLevel(token_budget=64),
            DegradationLevel(token_budget=64, max_context=800, shed_client_ids=(2,)),
        ),
        tbt_slo=0.005,
        enter_margin=0.1,
        exit_margin=0.0,
        min_dwell=0.05,
        check_interval=0.05,
        min_samples=4,
    )
    fleet_config = FleetConfig(
        num_replicas=num_replicas,
        faults=schedule,
        domains=domains,
        max_queue_depth=3,
        admission=AdmissionPolicy.SHED,
        health=HealthConfig(check_interval=0.1, min_samples=4, inflation_factor=1.5),
        brownout=brownout_config if brownout else None,
    )
    trace = [
        make_request(prompt_len=600, output_len=5, arrival_time=0.02 * i)
        for i in range(num_requests)
    ]
    for i, request in enumerate(trace):
        request.client_id = i % 3
    config = ServingConfig()
    simulator = FleetSimulator(_DEPLOYMENT, config, fleet_config)
    result = simulator.run(trace)

    assert not result.lost_requests()
    shed_ids = {r.request_id for r in result.shed}
    for request in result.requests:
        assert request.is_finished != (request.request_id in shed_ids)
        assert request.num_emitted <= request.output_len
        if request.is_finished:
            assert request.num_emitted == request.output_len
            assert request.token_times.tolist() == sorted(request.token_times)
    finished_ids = [
        r.request_id
        for replica_result in result.replica_results
        for r in replica_result.requests
        if r.is_finished
    ]
    assert len(finished_ids) == len(set(finished_ids))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rate=st.floats(min_value=0.01, max_value=2.0),
)
def test_poisson_schedules_are_valid_and_deterministic(seed, rate):
    a = FaultSchedule.poisson(3, rate=rate, mean_downtime=0.5, horizon=5.0, seed=seed)
    b = FaultSchedule.poisson(3, rate=rate, mean_downtime=0.5, horizon=5.0, seed=seed)
    assert a == b
    a.validate(3)
    for fault in a.faults:
        assert fault.down_at < 5.0
        assert fault.up_at is None or fault.up_at > fault.down_at
