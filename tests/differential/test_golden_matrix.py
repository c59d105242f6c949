"""The golden matrix: the engine against its frozen digests.

Every cell runs one fixed workload and must hash to the digest frozen
in ``golden_digests.json`` (full iteration records, full request
timelines; see ``digests.py``).  A small slice of the matrix gates
every change; the full schedulers × workloads × fault/no-fault × seeds
matrix runs under ``--runslow`` (nightly in CI).
"""

from __future__ import annotations

import pytest

from repro.api import ServingConfig, build_engine, clone_requests

from tests.conftest import BUILTIN_NAMES
from tests.differential.conftest import WORKLOADS
from tests.differential.digests import (
    ALL_SCHEDULERS,
    FLEET_FAULTS,
    PR_SCHEDULERS,
    SEEDS,
    catalogue,
    check,
)

pytestmark = pytest.mark.tier1


def test_every_builtin_has_single_pp2_and_fleet_cells():
    """Each built-in scheduler is pinned on one replica, under pp=2 and
    in a fleet (failover and re-delivery), over the whole grid."""
    assert sorted(ALL_SCHEDULERS) == sorted(BUILTIN_NAMES)
    names = catalogue()
    for kind in BUILTIN_NAMES:
        for workload in sorted(WORKLOADS):
            for seed in SEEDS:
                assert f"single/{kind}/{workload}/n20/s{seed}" in names
                assert f"pp2/{kind}/{workload}/n20/s{seed}" in names
                for mode in sorted(FLEET_FAULTS):
                    assert f"fleet/{kind}/{workload}/{mode}/n16/s{seed}" in names


# ----------------------------------------------------------------------
# Single replica
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", PR_SCHEDULERS)
def test_single_replica_small(kind, workload):
    """The every-change slice: 4 schedulers × 3 workloads at small N."""
    check(f"single/{kind}/{workload}/n14/s0")


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", ALL_SCHEDULERS)
def test_single_replica_full_matrix(kind, workload, seed):
    check(f"single/{kind}/{workload}/n20/s{seed}")


@pytest.mark.parametrize("mode", ["recompute", "swap"])
@pytest.mark.parametrize("kind", ["vllm", "sarathi"])
def test_preemption_and_swap_pressure(kind, mode):
    """Eviction, restart and swap paths are pinned too."""
    out = dict(check(f"pressure/{kind}/{mode}"))
    # The cell must actually exercise the pressure path, not pass
    # vacuously on an unpressured run.
    assert out["num_preemptions"] > 0


def test_engine_stats_agree_on_work_done(tiny_deployment):
    """Event and batch counts describe the simulation that ran."""
    config = ServingConfig(scheduler="sarathi", token_budget=256)
    engine = build_engine(tiny_deployment, config)
    result = engine.run(clone_requests(WORKLOADS["sharegpt"](14, 0)))
    stats = result.engine_stats
    assert stats is not None
    # One stage: every batch leaves exactly one iteration record.
    assert stats.num_batches == len(result.records)
    assert stats.num_events >= stats.num_batches


# ----------------------------------------------------------------------
# Pipeline parallelism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", PR_SCHEDULERS)
def test_pipeline_small(kind):
    """Every-change pipeline slice: pp=2 stage overlap."""
    check(f"pp2/{kind}/sharegpt/n14/s0")


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", ALL_SCHEDULERS)
def test_pipeline_full_matrix(kind, workload, seed):
    check(f"pp2/{kind}/{workload}/n20/s{seed}")


@pytest.mark.parametrize(
    "kind", ["sarathi", "sarathi_dynamic"]
)
def test_pipeline_preemption_pressure(kind):
    """In-flight rows must be exempt from eviction."""
    out = dict(check(f"pp2/pressure/{kind}"))
    assert out["num_preemptions"] > 0


# ----------------------------------------------------------------------
# Fleet: fault / no-fault
# ----------------------------------------------------------------------
def _fleet_preemptions(out) -> int:
    return sum(num_preemptions for _, num_preemptions, _ in out["replicas"])


@pytest.mark.parametrize("fault_mode", sorted(FLEET_FAULTS))
@pytest.mark.parametrize("kind", ALL_SCHEDULERS)
def test_fleet_small(kind, fault_mode):
    """Every-change fleet slice: routing, failover, restarts and the
    degraded-mode fault kinds (slowdown, capacity_loss)."""
    check(f"fleet/{kind}/sharegpt/{fault_mode}/n16/s0")


@pytest.mark.parametrize("kind", ["sarathi", "vllm"])
def test_fleet_capacity_pressure(kind):
    """A near-total mid-run KV shrink must force preemptions on the
    degraded replica — the free pool goes negative and the engine
    works the deficit off."""
    out = dict(check(f"fleet/capacity_pressure/{kind}"))
    assert _fleet_preemptions(out) > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fault_mode", sorted(FLEET_FAULTS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", ALL_SCHEDULERS)
def test_fleet_full_matrix(kind, workload, fault_mode, seed):
    """The acceptance matrix: 7 schedulers × 3 workloads ×
    4 fault modes × 3 seeds."""
    check(f"fleet/{kind}/{workload}/{fault_mode}/n16/s{seed}")
