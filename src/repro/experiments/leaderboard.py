"""Scheduler leaderboard: every registered policy, identical workloads.

The plug-in registry's payoff experiment: all registered schedulers —
the paper's four baselines, the ablations, and the theory-grounded
plug-ins (SRPT oracle/predicted, priority+aging) — run the same
workload suite under identical seeds and are ranked by mean end-to-end
latency at saturation, where scheduling order matters most.  SRPT with
oracle lengths minimizes mean flow time on a single server, so it
should head the table; the gap each practical policy leaves to it is
the price of not knowing (or mispredicting) output lengths.

Three workloads per scheduler:

* ``static`` — the ShareGPT4 open-loop trace at a saturating arrival
  rate, through the 1-replica fleet path (`fleet_goodput` accounting);
* ``conversation`` — closed-loop multi-round chat with think times;
* ``production`` — the multi-tenant bursty/diurnal trace generator.

Plus, optionally, a strict-SLO capacity search per scheduler on the
static dataset.  Cells fan out through the sweep runtime exactly like
the capacity figures (``--jobs`` workers, ``--run-dir``/``--resume``
ledger); run it via ``python -m repro reproduce leaderboard`` or
``python -m repro leaderboard`` (which can restrict the scheduler set).

Caveat for plug-in authors: where worker processes are spawned rather
than forked (macOS, Windows), sweep workers import ``repro`` fresh, so
schedulers registered imperatively in the parent process are only
visible with ``--jobs 1`` (the default).  Package your policy as an
importable module to leaderboard it at higher job counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment, ServingConfig
from repro.experiments.capacity_runner import (
    CapacityCellSpec,
    run_capacity_cells,
    serving_config_for,
)
from repro.experiments.common import DEFAULT, Scale, mistral_deployment
from repro.metrics.goodput import RequestSLO, fleet_goodput, goodput
from repro.metrics.slo import derived_slo
from repro.metrics.stats import jain_fairness
from repro.runtime import map_tasks
from repro.scheduling.registry import registered_names
from repro.workload.datasets import SHAREGPT4, generate_requests

# The suite's workloads, in display order.
WORKLOADS = ("static", "conversation", "production")
# Arrival rates per workload.  The static rate deliberately saturates a
# single Mistral/A100 replica (strict-SLO capacity is well below it),
# so queueing — and therefore scheduling order — dominates latency.
# 4.0 sits in the moderately-overloaded band where SRPT's ordering
# advantage shows; far beyond it raw batch throughput dominates and
# the hybrid/dynamic cores win on makespan instead.
SATURATION_QPS = 4.0
CONVERSATION_QPS = 0.5
PRODUCTION_QPS = 1.5
# Per-request TTFT deadline for goodput accounting (the fleet sweep's
# default, repro.experiments.fleet.DEFAULT_TTFT_DEADLINE).
TTFT_DEADLINE = 2.0


@dataclass(frozen=True)
class LeaderboardCellSpec:
    """One (scheduler, workload) cell, picklable for sweep workers."""

    deployment: Deployment
    config: ServingConfig
    workload: str
    qps: float
    num_requests: int
    seed: int
    ttft_deadline: float
    tbt_deadline: float

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"choose one of {', '.join(WORKLOADS)}"
            )
        if self.qps <= 0:
            raise ValueError(f"qps must be positive, got {self.qps}")
        if self.num_requests <= 0:
            raise ValueError(
                f"num_requests must be positive, got {self.num_requests}"
            )


@dataclass(frozen=True)
class LeaderboardCell:
    """One scheduler's measurements on one workload."""

    scheduler: str
    workload: str
    qps: float
    num_offered: int
    num_finished: int
    mean_latency: float
    median_ttft: float
    p99_tbt: float
    attainment: float
    goodput_rps: float
    num_preemptions: int
    # Fairness: a policy can buy a great mean by starving the tail.
    # ``max_wait`` is the worst scheduling delay any request saw;
    # ``latency_fairness`` is Jain's index over per-request end-to-end
    # latencies (1.0 = everyone waited alike, 1/n = one request ate it).
    max_wait: float = 0.0
    latency_fairness: float = 1.0


@dataclass(frozen=True)
class LeaderboardRow:
    """A cell joined with its scheduler's capacity (static dataset)."""

    cell: LeaderboardCell
    capacity_qps: float | None  # None when capacity search was skipped
    rank: int                   # 1 = best mean latency on the static cell


def run_leaderboard_cell(spec: LeaderboardCellSpec) -> LeaderboardCell:
    """Execute one cell (module-level: the sweep engine pickles this)."""
    slo = RequestSLO(
        ttft_deadline=spec.ttft_deadline, tbt_deadline=spec.tbt_deadline
    )
    if spec.workload == "conversation":
        from repro.workload.conversation import (
            ConversationSpec,
            simulate_conversations,
        )

        conv = ConversationSpec(
            num_conversations=spec.num_requests, arrival_qps=spec.qps
        )
        result, metrics = simulate_conversations(
            spec.deployment, spec.config, conv, seed=spec.seed
        )
        report = goodput(result, slo)
        num_offered = report.num_requests
        attainment = report.attainment
        goodput_rps = report.goodput_rps
    else:
        from repro.cluster.fleet import FleetConfig, simulate_fleet

        if spec.workload == "production":
            from repro.workload.production import (
                ProductionSpec,
                generate_production_trace,
            )

            trace = generate_production_trace(
                ProductionSpec(
                    num_requests=spec.num_requests, base_qps=spec.qps
                ),
                seed=spec.seed,
            )
        else:
            trace = generate_requests(
                SHAREGPT4,
                num_requests=spec.num_requests,
                qps=spec.qps,
                seed=spec.seed,
            )
        fleet_result, metrics = simulate_fleet(
            spec.deployment, spec.config, trace, FleetConfig(num_replicas=1)
        )
        result = fleet_result.merged()
        report = fleet_goodput(fleet_result, slo)
        num_offered = report.num_offered
        attainment = report.attainment
        goodput_rps = report.goodput_rps

    latencies = [
        r.e2e_latency for r in result.requests if r.e2e_latency is not None
    ]
    waits = [
        r.scheduling_delay
        for r in result.requests
        if r.scheduling_delay is not None
    ]
    return LeaderboardCell(
        scheduler=spec.config.scheduler,
        workload=spec.workload,
        qps=spec.qps,
        num_offered=num_offered,
        num_finished=len(result.finished_requests),
        mean_latency=sum(latencies) / len(latencies) if latencies else float("inf"),
        median_ttft=metrics.median_ttft,
        p99_tbt=metrics.p99_tbt,
        attainment=attainment,
        goodput_rps=goodput_rps,
        num_preemptions=metrics.num_preemptions,
        max_wait=max(waits) if waits else 0.0,
        latency_fairness=jain_fairness(latencies) if latencies else 1.0,
    )


def leaderboard_config(
    deployment: Deployment, scheduler: str
) -> ServingConfig:
    """The level playing field: strict-regime knobs for every policy."""
    return serving_config_for(deployment, scheduler, strict=True)


def build_specs(
    deployment: Deployment,
    schedulers: tuple[str, ...],
    scale: Scale,
    tbt_deadline: float,
) -> list[LeaderboardCellSpec]:
    """The cell grid: workload-major, scheduler order preserved inside."""
    loads = (
        ("static", SATURATION_QPS, scale.num_requests),
        # Conversations fan out into ~3 rounds each; divide so the
        # closed-loop cells stay comparable in simulated work.
        ("conversation", CONVERSATION_QPS, max(8, scale.num_requests // 4)),
        ("production", PRODUCTION_QPS, scale.num_requests),
    )
    return [
        LeaderboardCellSpec(
            deployment=deployment,
            config=leaderboard_config(deployment, name),
            workload=workload,
            qps=qps,
            num_requests=num_requests,
            seed=scale.seed,
            ttft_deadline=TTFT_DEADLINE,
            tbt_deadline=tbt_deadline,
        )
        for workload, qps, num_requests in loads
        for name in schedulers
    ]


def run_leaderboard(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    schedulers: tuple[str, ...] | None = None,
    include_capacity: bool = True,
) -> list[LeaderboardRow]:
    """Rank schedulers across the workload suite under identical seeds.

    Returns one row per (scheduler, workload), grouped by scheduler in
    rank order — rank 1 is the lowest mean end-to-end latency on the
    saturating static workload.  ``schedulers`` defaults to every
    registered name; ``include_capacity=False`` skips the per-scheduler
    strict-SLO capacity search (the expensive part).
    """
    deployment = deployment or mistral_deployment()
    names = tuple(schedulers) if schedulers is not None else tuple(registered_names())
    if not names:
        raise ValueError("no schedulers to rank")
    slo = derived_slo(deployment.execution_model(), strict=False)

    specs = build_specs(deployment, names, scale, tbt_deadline=slo.p99_tbt)
    cells: list[LeaderboardCell] = [
        outcome.value for outcome in map_tasks(run_leaderboard_cell, specs)
    ]

    capacity: dict[str, float] = {}
    if include_capacity:
        capacity_specs = [
            CapacityCellSpec(
                deployment=deployment,
                scheduler=name,
                dataset=SHAREGPT4,
                scale=scale,
                strict=None,
                config=leaderboard_config(deployment, name),
                slo=derived_slo(deployment.execution_model(), strict=True),
            )
            for name in names
        ]
        for outcome in run_capacity_cells(capacity_specs):
            capacity[outcome.cell.scheduler] = outcome.cell.capacity_qps

    by_scheduler: dict[str, dict[str, LeaderboardCell]] = {}
    for cell in cells:
        by_scheduler.setdefault(cell.scheduler, {})[cell.workload] = cell
    ranked = sorted(
        names, key=lambda n: by_scheduler[n]["static"].mean_latency
    )
    return [
        LeaderboardRow(
            cell=by_scheduler[name][workload],
            capacity_qps=capacity.get(name),
            rank=rank,
        )
        for rank, name in enumerate(ranked, start=1)
        for workload in WORKLOADS
        if workload in by_scheduler[name]
    ]


def leaderboard_table(
    rows: list[LeaderboardRow],
) -> tuple[list[str], list[list[str]]]:
    """Render leaderboard rows into (headers, table-rows)."""
    headers = [
        "rank", "scheduler", "workload", "qps", "capacity qps",
        "mean latency (s)", "med TTFT (s)", "P99 TBT (s)",
        "attainment", "goodput rps", "max wait (s)", "fairness",
    ]
    table: list[list[str]] = []
    for row in rows:
        cell = row.cell
        first = cell.workload == WORKLOADS[0]
        table.append([
            str(row.rank) if first else "",
            cell.scheduler if first else "",
            cell.workload,
            f"{cell.qps:.2f}",
            f"{row.capacity_qps:.2f}"
            if first and row.capacity_qps is not None
            else "-",
            f"{cell.mean_latency:.2f}",
            f"{cell.median_ttft:.3f}",
            f"{cell.p99_tbt:.3f}",
            f"{cell.attainment:.0%}",
            f"{cell.goodput_rps:.2f}",
            f"{cell.max_wait:.2f}",
            f"{cell.latency_fairness:.3f}",
        ])
    return headers, table
