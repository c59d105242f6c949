"""``find_capacity``: a starting hint changes the path, not the answer.

Any ``qps_hint``, however wrong, may change how many probes
``find_capacity`` spends, but never which capacity it returns, because
every probe lands on the same global QPS ladder and the winning rung is
always verified by full simulation.  The property tests drive that with
synthetic monotone oracles under hypothesis; the last test checks it
end-to-end on real simulations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Deployment, ServingConfig
from repro.experiments.capacity_runner import measure_capacity
from repro.experiments.common import Scale
from repro.hardware.catalog import A100_80G
from repro.metrics.capacity import find_capacity, ladder_qps
from repro.metrics.slo import SLOSpec, derived_slo
from repro.models.catalog import YI_34B
from repro.parallel.config import ParallelConfig
from repro.workload.datasets import get_dataset

pytestmark = pytest.mark.tier1

SLO = SLOSpec(name="t", p99_tbt=1.0)


class _StubMetrics:
    """The only thing find_capacity asks of a run: does it meet the SLO."""

    def __init__(self, ok: bool) -> None:
        self._ok = ok

    def meets(self, slo: SLOSpec) -> bool:
        return self._ok


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
    assert result.bounded


@pytest.mark.parametrize("max_probes", [1, 5, 12])
def test_a_search_that_never_fails_is_only_a_lower_bound(max_probes):
    result = find_capacity(
        lambda qps: _StubMetrics(True), SLO, max_probes=max_probes, qps_hint=1.0
    )
    assert not result.bounded
    assert result.num_probes == max_probes
    assert all(ok for _, _, ok in result.probes)
    assert result.capacity_qps == max(qps for qps, _, _ in result.probes)


def test_a_never_failing_search_stops_at_the_float_range():
    # 18 probes would walk to rung 2**17 - 1, but at rel_tol 0.08 the
    # float range ends near rung 9,200.
    result = find_capacity(
        lambda qps: _StubMetrics(True), SLO, rel_tol=0.08, max_probes=18, qps_hint=1.0
    )
    assert not result.bounded
    assert result.num_probes < 18
    assert result.capacity_qps == max(qps for qps, _, _ in result.probes)
    assert result.capacity_qps < float("inf")


def test_a_bracketed_search_is_bounded():
    result = find_capacity(lambda qps: _StubMetrics(qps <= 3.0), SLO, qps_hint=1.0)
    assert result.bounded
    assert 0 < result.capacity_qps <= 3.0


_SCALE = Scale(num_requests=16, capacity_rel_tol=0.3, capacity_max_probes=30, seed=3)


# Yi-34B keeps capacities in the ~1 QPS range, so even badly seeded
# probes simulate a handful of requests rather than thousands.
def _small_deployment() -> Deployment:
    return Deployment(
        model=YI_34B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=2)
    )


@pytest.mark.parametrize("kind", ["sarathi", "sarathi_dynamic"])
def test_capacity_is_hint_independent(kind):
    deployment = _small_deployment()
    slo = derived_slo(deployment.execution_model(), strict=True)
    config = ServingConfig(scheduler=kind, token_budget=256)
    dataset = get_dataset("openchat_sharegpt4")

    def search(hint):
        kwargs = {} if hint is None else {"qps_hint": hint}
        return measure_capacity(
            deployment,
            kind,
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
