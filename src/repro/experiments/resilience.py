"""Resilience sweep: fault rate × domain correlation × brownout.

The paper evaluates a healthy cluster; this experiment measures what
its serving stack does when the cluster is *not* healthy.  A
multi-tenant trace is offered to a fleet under seeded **slowdown**
faults — replicas that keep serving at a deterministic perf multiplier
(thermal throttling, a noisy neighbour) — arriving independently per
replica or correlated through rack-style failure domains so half the
fleet degrades at once.  The SLO-aware brownout controller is swept
off/on; each point reports fleet goodput, p99 TBT, the shed fraction,
and the MTTR-style time-to-SLO-reattainment from
:mod:`repro.metrics.recovery`.

Why slowdowns and a large baseline chunk: the sweep runs Sarathi with
``token_budget=1024``, so hybrid-batch iteration time is dominated by
the prefill chunk.  A ~2x slowdown pushes exactly those iterations
past the strict TBT deadline while decode-only iterations stay under
it — damage the brownout's first rung (shrink the chunk budget) can
actually repair, by moving along the paper's own chunk-size tradeoff
curve at degraded replicas' expense of prefill throughput.  The
headline comparison: at high fault rates the brownout-on rows beat
brownout-off on goodput — degrading deliberately beats violating the
SLO at full quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api import Deployment, ServingConfig, execution_model_for
from repro.cluster.degradation import BrownoutConfig, DegradationLevel
from repro.cluster.fleet import (
    FaultSchedule,
    FleetConfig,
    FleetSimulator,
    partition_domains,
)
from repro.experiments.common import Scale, mistral_deployment
from repro.metrics.goodput import RequestSLO, fleet_goodput
from repro.metrics.recovery import recovery_report
from repro.metrics.slo import derived_slo
from repro.metrics.summary import summarize
from repro.runtime import map_tasks
from repro.workload.datasets import SHAREGPT4, generate_requests

# Tenant classes cycled over the trace; class 0 is the most important
# (production), class NUM_TENANT_CLASSES-1 the first to be shed.
NUM_TENANT_CLASSES = 3

DEFAULT_TTFT_DEADLINE = 2.0
SWEEP_MAX_QUEUE_DEPTH = 64

# Failure domains per fleet: 2 racks, so a correlated event degrades
# half the replicas at once.
NUM_DOMAINS = 2

# Sweep baseline: a large chunk budget maximizes healthy prefill
# throughput and gives the brownout's budget rung real leverage.
SWEEP_TOKEN_BUDGET = 1024

# Slowdown multiplier drawn by every fault in the sweep: chunk-heavy
# iterations breach the strict TBT deadline, decode-only ones do not.
SWEEP_FAULT_SEVERITY = 2.0


def default_brownout(tbt_slo: float, token_budget: int) -> BrownoutConfig:
    """The three-rung ladder the sweep uses when brownout is on.

    Mild → severe: quarter the chunk budget, then also cap context,
    then also shed the lowest-priority tenant class.  The trigger is
    deliberately tight (enter at 1.05x the SLO, exit at the SLO) — a
    slowdown fault parks pooled p99 TBT just above the deadline, and
    waiting for a 2x breach would never engage.
    """
    budget = max(32, token_budget // 4)
    return BrownoutConfig(
        levels=(
            DegradationLevel(token_budget=budget),
            DegradationLevel(token_budget=budget, max_context=2048),
            DegradationLevel(
                token_budget=budget,
                max_context=2048,
                shed_client_ids=(NUM_TENANT_CLASSES - 1,),
            ),
        ),
        tbt_slo=tbt_slo,
        enter_margin=0.05,
        exit_margin=0.0,
        min_dwell=2.0,
        check_interval=0.25,
        min_samples=8,
    )


@dataclass(frozen=True)
class ResiliencePoint:
    """One (fault rate, correlation, brownout) operating point."""

    fault_rate: float
    correlated: bool
    brownout: bool
    num_offered: int
    num_finished: int
    attainment: float
    goodput_rps: float
    p99_tbt: float
    shed_fraction: float
    num_disruptions: int
    # Mean/max time-to-SLO-reattainment over measured disruptions
    # (None when there were no disruptions, or none recovered in-run).
    mean_recovery_s: float | None
    max_recovery_s: float | None
    num_censored: int


@dataclass(frozen=True)
class ResiliencePointSpec:
    """One resilience operating point, picklable for the sweep engine."""

    deployment: Deployment
    config: ServingConfig
    scale: Scale
    num_replicas: int
    qps: float
    fault_rate: float
    correlated: bool
    brownout: bool
    mean_downtime: float
    tbt_deadline: float
    ttft_deadline: float = DEFAULT_TTFT_DEADLINE
    fault_kind: str = "slowdown"
    fault_severity: float = SWEEP_FAULT_SEVERITY


def _multitenant_trace(spec: ResiliencePointSpec):
    """The shared arrival trace with tenant classes cycled over it."""
    trace = generate_requests(
        SHAREGPT4,
        num_requests=spec.scale.num_requests,
        qps=spec.qps,
        seed=spec.scale.seed,
    )
    for i, request in enumerate(trace):
        request.client_id = i % NUM_TENANT_CLASSES
    return trace


def run_resilience_point(spec: ResiliencePointSpec) -> ResiliencePoint:
    """Simulate one resilience operating point (module-level: picklable)."""
    trace = _multitenant_trace(spec)
    # Faults are drawn over the live arrival span, not the drain tail:
    # a window that opens after the last arrival cannot interact with
    # admission control, so it would only dilute the comparison.
    live_span = max(r.arrival_time for r in trace)
    domains = partition_domains(spec.num_replicas, NUM_DOMAINS)
    if spec.fault_rate == 0.0:
        faults = FaultSchedule()
    elif spec.correlated:
        # Same expected replica-hits as the independent arm: an event
        # at domain rate r_d hits `size` replicas, so r_d * domains *
        # size = rate * num_replicas when r_d = rate.
        faults = FaultSchedule.correlated(
            domains,
            rate=spec.fault_rate,
            mean_downtime=spec.mean_downtime,
            horizon=live_span,
            seed=spec.scale.seed,
            kind=spec.fault_kind,
            severity=spec.fault_severity,
        )
    else:
        faults = FaultSchedule.poisson(
            spec.num_replicas,
            rate=spec.fault_rate * NUM_DOMAINS,
            mean_downtime=spec.mean_downtime,
            horizon=live_span,
            seed=spec.scale.seed,
            kind=spec.fault_kind,
            severity=spec.fault_severity,
        )
    fleet_config = FleetConfig(
        num_replicas=spec.num_replicas,
        faults=faults,
        domains=domains,
        max_queue_depth=SWEEP_MAX_QUEUE_DEPTH,
        brownout=(
            default_brownout(spec.tbt_deadline, spec.config.token_budget)
            if spec.brownout
            else None
        ),
    )
    result = FleetSimulator(spec.deployment, spec.config, fleet_config).run(trace)

    report = fleet_goodput(
        result,
        RequestSLO(
            ttft_deadline=spec.ttft_deadline, tbt_deadline=spec.tbt_deadline
        ),
    )
    p99_tbt = (
        summarize(result.merged()).p99_tbt
        if result.finished_requests
        else float("inf")
    )
    recovery = recovery_report(result, slo_tbt=spec.tbt_deadline)
    return ResiliencePoint(
        fault_rate=spec.fault_rate,
        correlated=spec.correlated,
        brownout=spec.brownout,
        num_offered=report.num_offered,
        num_finished=report.num_finished,
        attainment=report.attainment,
        goodput_rps=report.goodput_rps,
        p99_tbt=p99_tbt,
        shed_fraction=report.shed_fraction,
        num_disruptions=recovery.num_disruptions,
        mean_recovery_s=recovery.mean_recovery_time,
        max_recovery_s=recovery.max_recovery_time,
        num_censored=recovery.num_censored,
    )


def run_resilience_sweep(
    scale: Scale,
    num_replicas: int = 4,
    fault_rates: Sequence[float] = (0.0, 0.05, 0.15),
    qps_per_replica: float = 1.5,
    mean_downtime: float = 6.0,
    jobs: int | None = None,
    run_dir=None,
    resume: bool | None = None,
) -> list[ResiliencePoint]:
    """Sweep fault rate × correlation × brownout on one fleet.

    ``fault_rates`` are domain-events per domain-second for the
    correlated arm; the independent arm scales its per-replica rate so
    both arms expect the same number of replica-hits.  A zero fault
    rate runs once per brownout setting (correlation is meaningless
    without faults).  Scored against the *strict* derived TBT SLO —
    the relaxed one leaves a 2x slowdown invisible.
    """
    deployment = mistral_deployment()
    config = ServingConfig(
        scheduler="sarathi", token_budget=SWEEP_TOKEN_BUDGET
    )
    slo = derived_slo(execution_model_for(deployment), strict=True)

    specs = [
        ResiliencePointSpec(
            deployment=deployment,
            config=config,
            scale=scale,
            num_replicas=num_replicas,
            qps=qps_per_replica * num_replicas,
            fault_rate=fault_rate,
            correlated=correlated,
            brownout=brownout,
            mean_downtime=mean_downtime,
            tbt_deadline=slo.p99_tbt,
        )
        for fault_rate in fault_rates
        for correlated in ((False,) if fault_rate == 0.0 else (False, True))
        for brownout in (False, True)
    ]
    outcomes = map_tasks(
        run_resilience_point, specs, jobs=jobs, run_dir=run_dir, resume=resume
    )
    return [outcome.value for outcome in outcomes]
