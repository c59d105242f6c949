"""Surrogate-guided capacity search: savings without influence.

The contract under test (DESIGN.md §13): a surrogate prediction — or
any ``qps_hint``, however wrong — may change how many probes
``find_capacity`` spends, but never which capacity it returns, because
every probe lands on the same global QPS ladder and the winning rung
is always verified by full simulation.  The property tests drive that
with synthetic monotone oracles under hypothesis; the engine tests
check it end-to-end on real simulations.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Deployment, ServingConfig
from repro.experiments.capacity_runner import (
    CapacityCellSpec,
    cell_features,
    measure_capacity,
    run_capacity_cells,
)
from repro.experiments.common import Scale
from repro.hardware.catalog import A100_80G
from repro.metrics.capacity import find_capacity, ladder_qps, ladder_rung
from repro.metrics.slo import SLOSpec, derived_slo
from repro.models.catalog import YI_34B
from repro.parallel.config import ParallelConfig
from repro.perf.surrogate import SurrogateStore, split_features
from repro.types import SchedulerKind
from repro.workload.datasets import get_dataset

pytestmark = pytest.mark.tier1

SLO = SLOSpec(name="t", p99_tbt=1.0)


class _StubMetrics:
    """The only thing find_capacity asks of a run: does it meet the SLO."""

    def __init__(self, ok: bool) -> None:
        self._ok = ok

    def meets(self, slo: SLOSpec) -> bool:
        return self._ok


# ----------------------------------------------------------------------
# Property: hints (surrogate or otherwise) never change the answer
# ----------------------------------------------------------------------
@given(
    threshold_rung=st.integers(min_value=-30, max_value=30),
    hint=st.one_of(
        st.none(), st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    ),
    rel_tol=st.sampled_from([0.05, 0.10, 0.25]),
)
@settings(max_examples=80, deadline=None)
def test_wrong_hint_widens_search_but_not_the_answer(
    threshold_rung, hint, rel_tol
):
    """A monotone oracle feasible up to a ladder rung: any starting
    hint must converge to exactly that rung's QPS."""
    threshold = ladder_qps(threshold_rung, rel_tol) * (1 + rel_tol / 4)

    def run(qps):
        return _StubMetrics(qps <= threshold)

    baseline = find_capacity(run, SLO, rel_tol=rel_tol, max_probes=200)
    seeded = find_capacity(
        run, SLO, rel_tol=rel_tol, max_probes=200, qps_hint=hint
    )
    assert baseline.capacity_qps == ladder_qps(threshold_rung, rel_tol)
    assert seeded.capacity_qps == baseline.capacity_qps
    # A perfect hint collapses bracketing to the two boundary probes.
    perfect = find_capacity(
        run,
        SLO,
        rel_tol=rel_tol,
        max_probes=200,
        qps_hint=baseline.capacity_qps,
    )
    assert perfect.capacity_qps == baseline.capacity_qps
    assert perfect.num_probes <= 3


@given(
    hint=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    rel_tol=st.sampled_from([0.10, 0.25]),
)
@settings(max_examples=30, deadline=None)
def test_hint_cannot_conjure_capacity_from_nothing(hint, rel_tol):
    """Always-infeasible oracle: every hint still reports zero."""

    def run(qps):
        return _StubMetrics(False)

    result = find_capacity(run, SLO, rel_tol=rel_tol, max_probes=200, qps_hint=hint)
    assert result.capacity_qps == 0.0


# ----------------------------------------------------------------------
# The surrogate store
# ----------------------------------------------------------------------
def _features(**overrides):
    base = {
        "model": "Tiny-1B",
        "gpu": "A100-80G",
        "tp": 1,
        "pp": 1,
        "scheduler": "sarathi",
        "token_budget": 512,
        "max_batch_size": 128,
        "dataset": "openchat_sharegpt4",
        "slo": "strict",
        "p99_tbt": 0.1,
        "num_requests": 64,
        "seed": 0,
        "rel_tol": 0.1,
    }
    base.update(overrides)
    return base


class TestSurrogateStore:
    def test_exact_replay_roundtrips_through_disk(self, tmp_path):
        path = tmp_path / "surrogate.json"
        store = SurrogateStore(path)
        store.observe(_features(), 2.5)
        store.observe(_features(scheduler="vllm"), 0.8)
        store.save()
        reloaded = SurrogateStore(path)
        assert len(reloaded) == 2
        assert reloaded.predict(_features()) == 2.5
        assert reloaded.predict(_features(scheduler="vllm")) == 0.8

    def test_unknown_cell_with_no_bridges_predicts_none(self):
        store = SurrogateStore()
        assert store.predict(_features()) is None
        store.observe(_features(), 2.5)
        # Different context, no shared variants elsewhere: still clueless.
        assert store.predict(_features(model="Yi-34B", scheduler="orca")) is None

    def test_zero_capacity_observation_predicts_none(self):
        store = SurrogateStore()
        store.observe(_features(), 0.0)
        assert store.predict(_features()) is None

    def test_ratio_transfer_recovers_multiplicative_structure(self):
        # cap(ctx, var) = c_ctx * v_var: the bridge estimate is exact.
        store = SurrogateStore()
        contexts = {"Tiny-1B": 1.0, "Yi-34B": 0.25}
        variants = {"sarathi": 2.0, "vllm": 0.5}
        for model, c in contexts.items():
            for sched, v in variants.items():
                if model == "Yi-34B" and sched == "sarathi":
                    continue  # the cell we want predicted
                store.observe(_features(model=model, scheduler=sched), c * v)
        predicted = store.predict(_features(model="Yi-34B", scheduler="sarathi"))
        assert predicted == pytest.approx(0.25 * 2.0)

    def test_corrupt_store_loads_empty(self, tmp_path):
        path = tmp_path / "surrogate.json"
        path.write_text("{ not json")
        store = SurrogateStore(path)
        assert len(store) == 0
        assert store.predict(_features()) is None
        store.observe(_features(), 1.0)
        store.save()  # and saving repairs the file
        assert json.loads(path.read_text())["entries"]

    def test_split_features_separates_variant_keys(self):
        ctx, var = split_features(_features())
        assert "scheduler" in var and "slo" in var and "token_budget" in var
        assert "scheduler" not in ctx and "model" in ctx


# ----------------------------------------------------------------------
# End to end on real simulations
# ----------------------------------------------------------------------
_SCALE = Scale(num_requests=16, capacity_rel_tol=0.3, capacity_max_probes=30, seed=3)


# Yi-34B keeps capacities in the ~1 QPS range, so even badly seeded
# probes simulate a handful of requests rather than thousands.
def _small_deployment() -> Deployment:
    return Deployment(
        model=YI_34B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=2)
    )


@pytest.mark.parametrize(
    "scheduler", [SchedulerKind.SARATHI, SchedulerKind.SARATHI_DYNAMIC]
)
def test_capacity_is_hint_independent(scheduler):
    deployment = _small_deployment()
    slo = derived_slo(deployment.execution_model(), strict=True)
    config = ServingConfig(scheduler=scheduler, token_budget=256)
    dataset = get_dataset("openchat_sharegpt4")

    def search(hint):
        kwargs = {} if hint is None else {"qps_hint": hint}
        return measure_capacity(
            deployment,
            scheduler,
            dataset,
            slo,
            _SCALE,
            config=config,
            min_load_duration=1.0,
            **kwargs,
        )

    baseline = search(None)
    assert baseline.capacity_qps > 0
    for wrong_hint in (0.01, 40.0):
        seeded = search(wrong_hint)
        assert seeded.capacity_qps == baseline.capacity_qps


@pytest.mark.slow
def test_wrong_surrogate_store_cannot_change_grid_capacities():
    """A grid seeded by a deliberately wrong surrogate store converges
    to the same capacities as a surrogate-off run, probe counts aside."""
    deployment = _small_deployment()
    dataset = get_dataset("openchat_sharegpt4")
    scale = Scale(num_requests=16, capacity_rel_tol=0.3, capacity_max_probes=20, seed=3)
    specs = [
        CapacityCellSpec(
            deployment=deployment,
            scheduler=kind,
            dataset=dataset,
            strict=True,
            scale=scale,
        )
        for kind in (SchedulerKind.SARATHI, SchedulerKind.VLLM)
    ]
    baseline = run_capacity_cells(list(specs), surrogate=False)

    wrong = SurrogateStore()
    for spec in specs:
        wrong.observe(cell_features(spec), 37.0)  # absurdly high
    seeded = run_capacity_cells(list(specs), surrogate=True, surrogate_store=wrong)

    assert [o.cell.capacity_qps for o in baseline] == [
        o.cell.capacity_qps for o in seeded
    ]
    assert all(o.hinted for o in seeded)
