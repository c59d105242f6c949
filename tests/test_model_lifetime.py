"""No execution model outlives the sweep task that built it.

Every sweep task — a capacity cell, a fleet point, a resilience point,
a leaderboard cell — builds its own memoized execution model with
``repro.api.execution_model_for``.  Nothing may keep that model once
the task returns: no per-process registry, no module-level cache, no
reference from the returned outcome.  Each test records a weakref to
every :class:`CachedExecutionModel` constructed while one runner
executes and checks that all of them are dead afterwards.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import Deployment, ServingConfig
from repro.experiments.capacity_runner import CapacityCellSpec, run_capacity_cells
from repro.experiments.common import Scale
from repro.experiments.fleet import FleetPointSpec, run_fleet_point
from repro.experiments.leaderboard import LeaderboardCellSpec, run_leaderboard_cell
from repro.experiments.resilience import ResiliencePointSpec, run_resilience_point
from repro.hardware.catalog import A100_80G
from repro.models.catalog import YI_34B
from repro.parallel.config import ParallelConfig
from repro.perf.cache import CachedExecutionModel
from repro.workload.datasets import SHAREGPT4

TINY = Scale(num_requests=8, capacity_rel_tol=0.5, capacity_max_probes=3)
CELL_CACHE_COUNTERS = {
    "cache_hits", "cache_misses", "cache_work_hits", "cache_work_misses",
}


@pytest.fixture
def built_models(monkeypatch):
    """Weakrefs to every ``CachedExecutionModel`` built during the test."""
    refs: list[weakref.ref] = []
    original = CachedExecutionModel.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(CachedExecutionModel, "__init__", recording_init)
    return refs


def assert_all_dead(refs: list[weakref.ref]) -> None:
    assert refs, "the runner built no cached execution model"
    gc.collect()
    alive = sum(ref() is not None for ref in refs)
    assert alive == 0, f"{alive} of {len(refs)} execution models outlived the task"


def test_capacity_cells(built_models):
    # Yi-34B/TP2 keeps capacities near 1 QPS, so probes stay small.
    deployment = Deployment(
        model=YI_34B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=2)
    )
    specs = [
        CapacityCellSpec(
            deployment=deployment,
            scheduler=scheduler,
            dataset=SHAREGPT4,
            scale=TINY,
            strict=True,
            qps_hint=1.0,
        )
        for scheduler in ("vllm", "sarathi_dynamic")
    ]
    outcomes = run_capacity_cells(specs, jobs=1)
    assert len(outcomes) == 2
    # cache_row carries the cell's own model counters.
    assert all(set(o.cache_row) == CELL_CACHE_COUNTERS for o in outcomes)
    assert_all_dead(built_models)


def test_fleet_point(built_models, tiny_deployment):
    spec = FleetPointSpec(
        deployment=tiny_deployment,
        config=ServingConfig(scheduler="sarathi"),
        scale=TINY,
        num_replicas=2,
        qps=2.0,
        fault_rate=0.0,
        mean_downtime=5.0,
        router="least-outstanding",
        tbt_deadline=1.0,
    )
    point = run_fleet_point(spec)
    assert point.num_offered == TINY.num_requests
    assert_all_dead(built_models)


def test_resilience_point(built_models, tiny_deployment):
    spec = ResiliencePointSpec(
        deployment=tiny_deployment,
        config=ServingConfig(scheduler="sarathi"),
        scale=TINY,
        num_replicas=2,
        qps=2.0,
        fault_rate=0.1,
        correlated=True,
        brownout=True,
        mean_downtime=2.0,
        tbt_deadline=1.0,
    )
    point = run_resilience_point(spec)
    assert point.num_offered == TINY.num_requests
    assert_all_dead(built_models)


def test_leaderboard_cell(built_models, tiny_deployment):
    spec = LeaderboardCellSpec(
        deployment=tiny_deployment,
        config=ServingConfig(scheduler="sarathi"),
        workload="static",
        qps=2.0,
        num_requests=8,
        seed=0,
        ttft_deadline=2.0,
        tbt_deadline=1.0,
    )
    cell = run_leaderboard_cell(spec)
    assert cell.num_offered == 8
    assert_all_dead(built_models)
