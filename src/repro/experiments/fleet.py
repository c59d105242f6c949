"""Fleet sweep: goodput across replica count × failure rate × load.

The paper evaluates single-replica capacity (§5.1); this experiment
extends the same SLO machinery to fleet operation, the regime the
disaggregation baselines (DistServe, SplitWise) report in: how much
*goodput* — requests that individually met their deadlines, divided by
everything offered — a fleet sustains as replicas are added, load rises
and replicas crash.  Zero-fault rows reproduce the static-scaling
picture; faulted rows show how failover recompute and bounded
admission bend it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api import Deployment, ServingConfig, execution_model_for
from repro.cluster.fleet import FaultSchedule, FleetConfig, FleetSimulator
from repro.cluster.router import (
    FleetRouter,
    LeastOutstandingTokensRouter,
    RoundRobinRouter,
    SloAwareRouter,
    as_fleet_router,
)
from repro.experiments.common import Scale, mistral_deployment
from repro.metrics.goodput import RequestSLO, fleet_goodput
from repro.metrics.slo import derived_slo
from repro.metrics.summary import summarize
from repro.runtime import map_tasks
from repro.workload.datasets import SHAREGPT4, generate_requests

# Deadline for the first token in the fleet goodput score: generous
# next to the strict TBT deadline, tight enough that a failover
# re-prefill during a backlog shows up as a violation.
DEFAULT_TTFT_DEADLINE = 2.0

# Bounded per-replica admission queue used by the sweep so overload
# actually sheds instead of queueing unboundedly at the highest loads.
SWEEP_MAX_QUEUE_DEPTH = 64


@dataclass(frozen=True)
class FleetSweepPoint:
    """One (replicas, fault rate, load) operating point."""

    num_replicas: int
    qps: float
    fault_rate: float
    num_offered: int
    num_finished: int
    num_shed: int
    num_failovers: int
    num_restarts: int
    attainment: float
    goodput_rps: float
    p99_tbt: float


def router_named(name: str, num_replicas: int, tbt_slo: float) -> FleetRouter:
    """Build a router from its CLI name."""
    if name == "round-robin":
        return as_fleet_router(RoundRobinRouter(num_replicas))
    if name == "least-outstanding":
        return LeastOutstandingTokensRouter(num_replicas)
    if name == "slo-aware":
        return SloAwareRouter(num_replicas, tbt_slo=tbt_slo)
    raise ValueError(
        f"unknown router {name!r}; choose one of "
        "'round-robin', 'least-outstanding', 'slo-aware'"
    )


@dataclass(frozen=True)
class FleetPointSpec:
    """One fleet operating point, picklable for the sweep engine."""

    deployment: Deployment
    config: ServingConfig
    scale: Scale
    num_replicas: int
    qps: float
    fault_rate: float
    mean_downtime: float
    router: str
    tbt_deadline: float
    ttft_deadline: float = DEFAULT_TTFT_DEADLINE


def run_fleet_point(spec: FleetPointSpec) -> FleetSweepPoint:
    """Simulate one fleet operating point (module-level: picklable)."""
    trace = generate_requests(
        SHAREGPT4,
        num_requests=spec.scale.num_requests,
        qps=spec.qps,
        seed=spec.scale.seed,
    )
    horizon = max(r.arrival_time for r in trace) + 30.0
    fleet_config = FleetConfig(
        num_replicas=spec.num_replicas,
        faults=FaultSchedule.poisson(
            spec.num_replicas,
            rate=spec.fault_rate,
            mean_downtime=spec.mean_downtime,
            horizon=horizon,
            seed=spec.scale.seed,
        ),
        max_queue_depth=SWEEP_MAX_QUEUE_DEPTH,
    )
    simulator = FleetSimulator(
        spec.deployment,
        spec.config,
        fleet_config,
        router=router_named(spec.router, spec.num_replicas, spec.tbt_deadline),
    )
    result = simulator.run(trace)
    request_slo = RequestSLO(
        ttft_deadline=spec.ttft_deadline, tbt_deadline=spec.tbt_deadline
    )
    report = fleet_goodput(result, request_slo)
    p99_tbt = (
        summarize(result.merged()).p99_tbt
        if result.finished_requests
        else float("inf")
    )
    return FleetSweepPoint(
        num_replicas=spec.num_replicas,
        qps=spec.qps,
        fault_rate=spec.fault_rate,
        num_offered=report.num_offered,
        num_finished=report.num_finished,
        num_shed=report.num_shed,
        num_failovers=report.num_failovers,
        num_restarts=report.num_restarts,
        attainment=report.attainment,
        goodput_rps=report.goodput_rps,
        p99_tbt=p99_tbt,
    )


def run_fleet_sweep(
    scale: Scale,
    replica_counts: Sequence[int] = (1, 2, 4),
    fault_rates: Sequence[float] = (0.0, 0.05),
    load_factors: Sequence[float] = (0.5, 1.0),
    qps_per_replica: float = 1.5,
    mean_downtime: float = 5.0,
    router: str = "least-outstanding",
    jobs: int | None = None,
    run_dir=None,
    resume: bool | None = None,
) -> list[FleetSweepPoint]:
    """Sweep the fleet grid and score each point's goodput.

    ``fault_rates`` are crashes per replica-second (Poisson, seeded by
    ``scale.seed``); load is ``load_factor * qps_per_replica *
    num_replicas`` so each replica sees comparable pressure across
    fleet sizes.  Points fan out through the sweep engine; each point's
    fleet builds its own execution model, shared by its replicas.
    """
    deployment = mistral_deployment()
    config = ServingConfig(scheduler="sarathi")
    slo = derived_slo(execution_model_for(deployment), strict=False)

    specs = [
        FleetPointSpec(
            deployment=deployment,
            config=config,
            scale=scale,
            num_replicas=num_replicas,
            qps=load * qps_per_replica * num_replicas,
            fault_rate=fault_rate,
            mean_downtime=mean_downtime,
            router=router,
            tbt_deadline=slo.p99_tbt,
        )
        for num_replicas in replica_counts
        for load in load_factors
        for fault_rate in fault_rates
    ]
    outcomes = map_tasks(
        run_fleet_point, specs, jobs=jobs, run_dir=run_dir, resume=resume
    )
    return [outcome.value for outcome in outcomes]
