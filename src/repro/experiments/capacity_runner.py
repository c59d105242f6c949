"""Shared capacity-search runner used by the Fig. 10-13 experiments.

One call = one bar in the paper's capacity figures: a (deployment,
scheduler, dataset, SLO) tuple searched for its maximum sustainable
QPS.  SLOs are derived from the substrate's own reference decode
latency (5×/25×, §5.1) so strictness is self-consistent with the
simulator's calibration; token budgets follow the paper's choices
(512 strict / 2048 relaxed / 1536 for LLaMA2-70B relaxed).

Grids run through the sweep engine (:mod:`repro.runtime`): cells are
described by picklable :class:`CapacityCellSpec`\\ s and fanned out
across worker processes in one :func:`~repro.runtime.map_tasks` call,
optionally journaled to a resume ledger (``--run-dir``/``--resume``).
Every cell searches from its own spec's ``qps_hint``, so a cell's
outcome is a pure function of its spec alone — the same whether it
runs by itself or inside any grid, and bit-identical at any
``--jobs``.  Each cell builds one memoized execution model, shares it
across its own probes and drops it on return; no pricing state is kept
across cells.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
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
from repro.runtime import map_tasks
from repro.telemetry.sweep import capacity_probe_rows
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
    scheduler: str,
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
    scheduler: str,
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


# ----------------------------------------------------------------------
# Sweep-engine grid execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CapacityCellSpec:
    """Everything one grid cell needs, picklable for worker processes.

    Either ``strict`` (SLO and config derived the §5.1 way) or both
    ``config`` and ``slo`` (explicit, e.g. Fig. 12's variants) must be
    given.  ``qps_hint`` is the search's starting rung.  ``variant`` is
    a display name for figures that label cells by something other than
    the scheduler.
    """

    deployment: Deployment
    scheduler: str
    dataset: DatasetSpec
    scale: Scale
    strict: bool | None = None
    config: ServingConfig | None = None
    slo: SLOSpec | None = None
    qps_hint: float = 0.5
    variant: str | None = None

    def __post_init__(self) -> None:
        if self.strict is None and (self.config is None or self.slo is None):
            raise ValueError("pass strict, or both config and slo")
        if self.qps_hint <= 0:
            raise ValueError(f"qps_hint must be positive, got {self.qps_hint}")


@dataclass(frozen=True)
class CellOutcome:
    """One executed grid cell: its figure row plus telemetry."""

    cell: CapacityCell
    variant: str | None
    qps_hint: float
    num_bracket_probes: int
    num_bisect_probes: int
    seconds: float
    worker_pid: int
    probe_rows: list[dict[str, Any]] = field(default_factory=list)
    cache_row: dict[str, Any] = field(default_factory=dict)
    # Set by run_capacity_cells from the sweep outcome, not by the worker:
    resumed: bool = False  # replayed from the run ledger (a "ledger hit")


def run_capacity_cell(spec: CapacityCellSpec) -> CellOutcome:
    """Execute one cell (module-level: the sweep engine pickles this).

    The cell builds its own memoized execution model, shared by its
    probes; ``cache_row`` reports that model's counters.
    """
    deployment = spec.deployment
    config = spec.config
    if config is None:
        config = serving_config_for(deployment, spec.scheduler, spec.strict)
    exec_model = execution_model_for(deployment)
    slo = spec.slo
    if slo is None:
        slo = derived_slo(exec_model, spec.strict)
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
        "scheduler": spec.scheduler,
        "dataset": spec.dataset.name,
        "slo": slo.name,
        "variant": spec.variant,
    }
    return CellOutcome(
        cell=CapacityCell(
            deployment=deployment.label,
            scheduler=spec.scheduler,
            dataset=spec.dataset.name,
            slo_name=slo.name,
            slo_p99_tbt=slo.p99_tbt,
            capacity_qps=result.capacity_qps,
            num_probes=result.num_probes,
        ),
        variant=spec.variant,
        qps_hint=spec.qps_hint,
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


def run_capacity_cells(
    specs: list[CapacityCellSpec],
    jobs: int | None = None,
    run_dir=None,
    resume: bool | None = None,
) -> list[CellOutcome]:
    """Run a capacity grid through the sweep engine, one task per cell.

    Every cell searches from its own spec's ``qps_hint``; outcomes come
    back in the order of ``specs`` regardless of ``jobs``.  With
    ``run_dir``, the grid journals to a fingerprint-keyed ledger and
    ``resume=True`` replays completed cells bit-identically.  A failing
    cell or an interrupt propagates; the ledger keeps the cells that
    finished before it.
    """
    outcomes = map_tasks(
        run_capacity_cell, specs, jobs=jobs, run_dir=run_dir, resume=resume
    )
    return [replace(outcome.value, resumed=outcome.resumed) for outcome in outcomes]
