"""Shared capacity-search runner used by the Fig. 10-13 experiments.

One call = one bar in the paper's capacity figures: a (deployment,
scheduler, dataset, SLO) tuple searched for its maximum sustainable
QPS.  SLOs are derived from the substrate's own reference decode
latency (5×/25×, §5.1) so strictness is self-consistent with the
simulator's calibration; token budgets follow the paper's choices
(512 strict / 2048 relaxed / 1536 for LLaMA2-70B relaxed).

Grids run through the sweep engine (:mod:`repro.runtime`): cells are
described by picklable :class:`CapacityCellSpec`\\ s, fanned out across
worker processes, and **warm-started** — each neighbourhood of cells
(same deployment and dataset by default) runs one anchor cell first,
then seeds every remaining cell's bracket with the anchor's measured
capacity.  The two-wave plan is a pure function of the spec list, and
every cell is a pure function of its spec, so the grid's output is
bit-identical at any ``--jobs``.  Each cell builds one memoized
execution model, shares it across its own probes and drops it on
return; no pricing state is kept across cells.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.api import Deployment, ServingConfig, execution_model_for, simulate
from repro.experiments.common import (
    LLAMA_RELAXED_TOKEN_BUDGET,
    RELAXED_TOKEN_BUDGET,
    STRICT_TOKEN_BUDGET,
    Scale,
)
from repro.metrics.capacity import CapacityResult, find_capacity
from repro.metrics.slo import SLOSpec, derived_slo
from repro.perf.surrogate import SurrogateStore
from repro.runtime import cache_dir_from_env, map_tasks, surrogate_from_env
from repro.scheduling.registry import scheduler_name
from repro.telemetry.sweep import capacity_probe_rows
from repro.types import SchedulerKind
from repro.workload.datasets import DatasetSpec, generate_requests


@dataclass(frozen=True)
class CapacityCell:
    """One bar of a capacity figure."""

    deployment: str
    scheduler: str
    dataset: str
    slo_name: str
    slo_p99_tbt: float
    capacity_qps: float
    num_probes: int


def token_budget_for(deployment: Deployment, strict: bool) -> int:
    """The paper's token budget for an SLO regime (§5.1)."""
    if strict:
        return STRICT_TOKEN_BUDGET
    if deployment.model.name.lower() == "llama2-70b":
        return LLAMA_RELAXED_TOKEN_BUDGET
    return RELAXED_TOKEN_BUDGET


def serving_config_for(
    deployment: Deployment,
    scheduler: SchedulerKind | str,
    strict: bool,
    max_batch_size: int = 128,
    token_budget: int | None = None,
) -> ServingConfig:
    """A scheduler's serving config for one SLO regime."""
    if token_budget is None:
        budget = token_budget_for(deployment, strict)
    elif token_budget <= 0:
        # An explicit 0 used to silently fall back to the regime default
        # (`token_budget or ...`); fail loudly instead.
        raise ValueError(
            f"token_budget must be positive or None, got {token_budget}"
        )
    else:
        budget = token_budget
    reserve_len = 16384  # worst-case sequence across both datasets
    return ServingConfig(
        scheduler=scheduler,
        token_budget=budget,
        max_batch_size=max_batch_size,
        reserve_len=reserve_len,
    )


# Each capacity probe must offer load for at least this long; with a
# fixed request count, high-QPS probes would otherwise finish arriving
# before any request completes, hiding both stalls and queue growth.
MIN_LOAD_DURATION = 60.0


def measure_capacity(
    deployment: Deployment,
    scheduler: SchedulerKind | str,
    dataset: DatasetSpec,
    slo: SLOSpec,
    scale: Scale,
    config: ServingConfig | None = None,
    strict: bool | None = None,
    qps_hint: float = 0.5,
    min_load_duration: float = MIN_LOAD_DURATION,
    exec_model=None,
) -> CapacityResult:
    """Search the maximum sustainable QPS for one configuration.

    Pass ``exec_model`` to supply (and afterwards inspect) the model
    shared by every probe — e.g. a ``CachedExecutionModel`` whose hit
    counters a caller wants to read back.
    """
    if config is None:
        if strict is None:
            raise ValueError("pass either config or strict")
        config = serving_config_for(deployment, scheduler, strict)

    # One memoized execution model serves every probe: the model's
    # inputs are immutable, so later probes run on the warm cache
    # earlier probes populated.
    if exec_model is None:
        exec_model = execution_model_for(deployment)

    def run_at_qps(qps: float):
        num_requests = max(scale.num_requests, int(qps * min_load_duration))
        trace = generate_requests(
            dataset, num_requests=num_requests, qps=qps, seed=scale.seed
        )
        _, metrics = simulate(deployment, config, trace, exec_model=exec_model)
        return metrics

    return find_capacity(
        run_at_qps,
        slo,
        rel_tol=scale.capacity_rel_tol,
        max_probes=scale.capacity_max_probes,
        qps_hint=qps_hint,
    )


def capacity_cell(
    deployment: Deployment,
    scheduler: SchedulerKind | str,
    dataset: DatasetSpec,
    strict: bool,
    scale: Scale,
    qps_hint: float = 0.5,
) -> CapacityCell:
    """Convenience wrapper returning a flat result row.

    This is the legacy serial path — one fresh, cold execution model
    per cell.  Grids should go through :func:`run_capacity_cells`.
    """
    slo = derived_slo(deployment.execution_model(), strict)
    result = measure_capacity(
        deployment, scheduler, dataset, slo, scale, strict=strict, qps_hint=qps_hint
    )
    return CapacityCell(
        deployment=deployment.label,
        scheduler=scheduler_name(scheduler),
        dataset=dataset.name,
        slo_name=slo.name,
        slo_p99_tbt=slo.p99_tbt,
        capacity_qps=result.capacity_qps,
        num_probes=result.num_probes,
    )


# ----------------------------------------------------------------------
# Sweep-engine grid execution
# ----------------------------------------------------------------------
# Warm-start hints below this are considered degenerate (an anchor that
# measured ~zero capacity says nothing useful about its neighbours).
MIN_WARM_HINT = 1e-3


@dataclass(frozen=True)
class CapacityCellSpec:
    """Everything one grid cell needs, picklable for worker processes.

    Either ``strict`` (SLO and config derived the §5.1 way) or both
    ``config`` and ``slo`` (explicit, e.g. Fig. 12's variants) must be
    given.  ``group`` names the warm-start neighbourhood — cells with
    equal groups seed each other; it defaults to (deployment, dataset).
    ``variant`` is a display name for figures that label cells by
    something other than the scheduler.
    """

    deployment: Deployment
    scheduler: SchedulerKind | str
    dataset: DatasetSpec
    scale: Scale
    strict: bool | None = None
    config: ServingConfig | None = None
    slo: SLOSpec | None = None
    qps_hint: float = 0.5
    group: tuple[str, ...] = ()
    variant: str | None = None
    hinted: bool = False  # set by the wave planner, not by callers

    def __post_init__(self) -> None:
        if self.strict is None and (self.config is None or self.slo is None):
            raise ValueError("pass strict, or both config and slo")
        if self.qps_hint <= 0:
            raise ValueError(f"qps_hint must be positive, got {self.qps_hint}")

    @property
    def group_key(self) -> tuple[str, ...]:
        if self.group:
            return self.group
        return (self.deployment.label, self.dataset.name)


def cell_features(spec: CapacityCellSpec) -> dict[str, Any]:
    """The surrogate fingerprint of one cell (:mod:`repro.perf.surrogate`).

    Everything that determines a cell's capacity, flattened to scalars:
    the same spec always maps to the same features, so a rerun hits the
    store's exact-replay tier, while grids over schedulers/SLOs share
    observations through the ratio-transfer tier.
    """
    deployment = spec.deployment
    config = spec.config
    if config is None:
        config = serving_config_for(deployment, spec.scheduler, spec.strict)
    slo = spec.slo
    if slo is None:
        slo = derived_slo(deployment.execution_model(), spec.strict)
    return {
        "model": deployment.model.name,
        "gpu": deployment.gpu.name,
        "tp": deployment.parallel.tensor_parallel,
        "pp": deployment.parallel.pipeline_parallel,
        "scheduler": scheduler_name(spec.scheduler),
        "token_budget": config.token_budget,
        "max_batch_size": config.max_batch_size,
        "dataset": spec.dataset.name,
        "slo": slo.name,
        "p99_tbt": slo.p99_tbt,
        "num_requests": spec.scale.num_requests,
        "seed": spec.scale.seed,
        "rel_tol": spec.scale.capacity_rel_tol,
    }


@dataclass(frozen=True)
class CellOutcome:
    """One executed grid cell: its figure row plus telemetry."""

    cell: CapacityCell
    variant: str | None
    qps_hint: float
    hinted: bool
    num_bracket_probes: int
    num_bisect_probes: int
    seconds: float
    worker_pid: int
    probe_rows: list[dict[str, Any]] = field(default_factory=list)
    cache_row: dict[str, Any] = field(default_factory=dict)
    # Set by run_capacity_cells from the sweep report, not by the worker:
    resumed: bool = False  # replayed from the run ledger (a "ledger hit")
    attempt: int = 0       # >0 = the cell survived that many retries


def run_capacity_cell(spec: CapacityCellSpec) -> CellOutcome:
    """Execute one cell (module-level: the sweep engine pickles this).

    The cell builds its own memoized execution model, shared by its
    probes; ``cache_row`` reports that model's counters.
    """
    deployment = spec.deployment
    config = spec.config
    if config is None:
        config = serving_config_for(deployment, spec.scheduler, spec.strict)
    slo = spec.slo
    if slo is None:
        slo = derived_slo(deployment.execution_model(), spec.strict)

    exec_model = execution_model_for(deployment)
    start = time.perf_counter()
    result = measure_capacity(
        deployment,
        spec.scheduler,
        spec.dataset,
        slo,
        spec.scale,
        config=config,
        qps_hint=spec.qps_hint,
        exec_model=exec_model,
    )
    seconds = time.perf_counter() - start
    stats = exec_model.cache_stats

    labels = {
        "deployment": deployment.label,
        "scheduler": scheduler_name(spec.scheduler),
        "dataset": spec.dataset.name,
        "slo": slo.name,
        "variant": spec.variant,
    }
    return CellOutcome(
        cell=CapacityCell(
            deployment=deployment.label,
            scheduler=scheduler_name(spec.scheduler),
            dataset=spec.dataset.name,
            slo_name=slo.name,
            slo_p99_tbt=slo.p99_tbt,
            capacity_qps=result.capacity_qps,
            num_probes=result.num_probes,
        ),
        variant=spec.variant,
        qps_hint=spec.qps_hint,
        hinted=spec.hinted,
        num_bracket_probes=result.num_bracket_probes,
        num_bisect_probes=result.num_bisect_probes,
        seconds=seconds,
        worker_pid=os.getpid(),
        probe_rows=capacity_probe_rows(result, **labels),
        cache_row={
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "cache_work_hits": stats.work_hits,
            "cache_work_misses": stats.work_misses,
        },
    )


def plan_waves(
    specs: list[CapacityCellSpec],
) -> tuple[list[tuple[int, CapacityCellSpec]], list[int]]:
    """Split a grid into (anchor wave, follower indices).

    The first cell of each warm-start group — first in the caller's
    canonical order — anchors the group; everything else follows,
    hinted by its anchor's measured capacity.  A pure function of the
    spec list, so serial and parallel runs execute the same plan.
    """
    anchors: list[tuple[int, CapacityCellSpec]] = []
    followers: list[int] = []
    seen: set[tuple[str, ...]] = set()
    for index, spec in enumerate(specs):
        key = spec.group_key
        if key in seen:
            followers.append(index)
        else:
            seen.add(key)
            anchors.append((index, spec))
    return anchors, followers


def _collect_cells(
    report, positions: list[int], outcomes: list[CellOutcome | None]
) -> None:
    """File a wave's completed cells by task index (ledger-resume and
    interrupted reports may cover only a subset of the wave)."""
    for task_outcome in report.outcomes:
        cell_outcome = replace(
            task_outcome.value,
            resumed=task_outcome.resumed,
            attempt=task_outcome.attempt,
        )
        outcomes[positions[task_outcome.index]] = cell_outcome


def run_capacity_cells(
    specs: list[CapacityCellSpec],
    jobs: int | None = None,
    cache_dir=None,
    run_dir=None,
    resume: bool | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
    chaos=None,
    strict: bool = True,
    reports: list | None = None,
    surrogate: bool | None = None,
    surrogate_store: SurrogateStore | None = None,
) -> list[CellOutcome]:
    """Run a capacity grid through the sweep engine, warm-started.

    Wave 0 runs one anchor cell per warm-start group in parallel; each
    remaining cell then runs with its bracket seeded by its group
    anchor's measured capacity (falling back to the spec's static hint
    when the anchor found no capacity).  Outcomes come back in the
    order of ``specs`` regardless of ``jobs``.

    With ``surrogate`` (default: ``REPRO_SURROGATE``), a
    :class:`~repro.perf.surrogate.SurrogateStore` — persisted at
    ``cache_dir/surrogate.json`` when a cache directory is given, else
    in-memory — predicts starting brackets from previously measured
    cells.  Predictions seed anchors before wave 0 and take precedence
    over anchor hints for followers; because every ``find_capacity``
    probe lands on the same global QPS ladder, the seeds change probe
    counts only, never the measured capacities.  New observations are
    recorded and persisted once the grid completes (never after an
    interrupt, so a resumed run re-predicts from the same store state
    and re-derives identical follower specs).

    With ``run_dir``, each wave journals to its own fingerprint-keyed
    ledger and ``resume=True`` replays completed cells bit-identically:
    a resumed anchor re-seeds its followers from the ledger, so the
    follower wave's specs — and therefore *its* ledger fingerprint —
    match the original run's.  An interrupted wave returns the cells
    completed so far (and skips the follower wave); quarantined cells
    raise :class:`repro.runtime.SweepFailedError` unless
    ``strict=False``, which drops them from the result instead.
    Append-only sweep reports land in ``reports`` when given, for
    telemetry (:func:`repro.telemetry.sweep.sweep_run_rows`).
    """
    anchors, followers = plan_waves(specs)
    outcomes: list[CellOutcome | None] = [None] * len(specs)
    options = dict(
        jobs=jobs,
        run_dir=run_dir,
        resume=resume,
        task_timeout=task_timeout,
        max_retries=max_retries,
        chaos=chaos,
        strict=strict,
    )

    if surrogate is None:
        surrogate = surrogate_from_env()
    store: SurrogateStore | None = None
    features: list[dict[str, Any]] = []
    if surrogate:
        store = surrogate_store
        if store is None:
            store_dir = Path(cache_dir) if cache_dir is not None else cache_dir_from_env()
            store = SurrogateStore(
                store_dir / "surrogate.json" if store_dir is not None else None
            )
        features = [cell_features(spec) for spec in specs]

    def predicted_hint(index: int) -> float | None:
        if store is None:
            return None
        guess = store.predict(features[index])
        if guess is None or guess <= MIN_WARM_HINT:
            return None
        return guess

    # Wave 0: anchors, surrogate-seeded when possible, else their
    # static hints.
    anchor_specs = []
    for index, spec in anchors:
        guess = predicted_hint(index)
        if guess is not None:
            spec = replace(spec, qps_hint=guess, hinted=True)
        anchor_specs.append(spec)
    report = map_tasks(run_capacity_cell, anchor_specs, **options)
    if reports is not None:
        reports.append(report)
    _collect_cells(report, [index for index, _ in anchors], outcomes)
    hint_by_group: dict[tuple[str, ...], float] = {}
    for index, spec in anchors:
        outcome = outcomes[index]
        if outcome is not None and outcome.cell.capacity_qps > MIN_WARM_HINT:
            hint_by_group[spec.group_key] = outcome.cell.capacity_qps

    # Wave 1: everything else, hinted by the surrogate when it knows
    # the cell (exact replays beat cross-scheduler anchor transfer),
    # else by its group's anchor.  Skipped after an interrupt: the
    # anchors' ledger already holds wave 0, and the resumed run will
    # re-derive identical hints from it.
    if followers and not report.interrupted:
        hinted_specs = []
        for index in followers:
            spec = specs[index]
            hint = predicted_hint(index)
            if hint is None:
                hint = hint_by_group.get(spec.group_key)
            if hint is not None:
                spec = replace(spec, qps_hint=hint, hinted=True)
            hinted_specs.append(spec)
        report = map_tasks(run_capacity_cell, hinted_specs, **options)
        if reports is not None:
            reports.append(report)
        _collect_cells(report, followers, outcomes)

    # Feed the surrogate only from a completed grid: predictions above
    # were made against the store as loaded, so an interrupted run that
    # resumes sees the same store state and rebuilds identical waves.
    if store is not None and not report.interrupted:
        for index, outcome in enumerate(outcomes):
            if outcome is not None:
                store.observe(features[index], outcome.cell.capacity_qps)
        store.save()

    return [outcome for outcome in outcomes if outcome is not None]
