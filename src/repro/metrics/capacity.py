"""Capacity search: the maximum sustainable QPS under an SLO (§5.1).

Capacity is the paper's headline throughput metric.  The search walks a
fixed geometric ladder of QPS rungs ``(1 + rel_tol) ** k`` anchored at
1.0: an exponential walk from the starting rung brackets the feasible/
infeasible boundary, then an integer bisection narrows it to adjacent
rungs.  Each probe is a full simulation at that QPS supplied by the
caller, so the search is policy- and substrate-agnostic.

The starting rung can be seeded with a ``qps_hint`` (each sweep cell
passes its spec's static hint).  Because every probe lands on the same
global ladder regardless of the seed, the search converges to the
*same rung* — bit-identical capacity — whether the hint was absent,
perfect, or wrong, as long as SLO attainment is monotone in QPS; a hint
only changes how many probes the walk needs to bracket the boundary.
Two caveats: an exhausted ``max_probes`` truncates the search
path-dependently, so probe budgets must be adequate for identity
guarantees (the defaults are); and where attainment is *not* monotone
(a probe fails below a rung that passes), the starting rung decides
which boundary the walk brackets.  Accounting splits probes into
bracketing vs bisection so sweeps can see where a search spent them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.metrics.slo import SLOSpec
from repro.metrics.summary import RunMetrics

RunAtQPS = Callable[[float], RunMetrics]

# Fallback bracket when no hint is supplied (matches the historical
# qps_lo/qps_hi defaults of find_capacity).
DEFAULT_QPS_LO = 0.05
DEFAULT_QPS_HI = 4.0

# The zero-capacity floor sits this factor below qps_lo: walking down
# to it without finding a feasible rung declares capacity 0.0.  The
# floor depends only on qps_lo (never the hint), preserving
# hint-independence of the outcome.
_FLOOR_FACTOR = 64.0


@dataclass
class CapacityResult:
    """Outcome of one capacity search.

    ``probes`` records every simulation the search ran, in execution
    order: the first ``num_bracket_probes`` established the feasible/
    infeasible bracket, the remaining ``num_bisect_probes`` narrowed
    it.  ``qps_hint`` is the starting-rung seed (None when the search
    cold-started from ``qps_hi``) — comparing it with
    ``num_bracket_probes`` across a sweep shows what a hint costs or
    saves.  ``bounded`` is False when every probe passed and the probe
    budget, or the float range of the ladder, ran out first:
    ``capacity_qps`` is then only a lower bound.
    """

    capacity_qps: float
    slo: SLOSpec
    probes: list[tuple[float, RunMetrics, bool]] = field(default_factory=list)
    qps_hint: float | None = None
    num_bracket_probes: int = 0
    num_bisect_probes: int = 0
    bounded: bool = True

    @property
    def num_probes(self) -> int:
        return len(self.probes)


def ladder_rung(qps: float, rel_tol: float) -> int:
    """Index of the largest ladder rung ``<= qps`` (grid anchored at 1.0)."""
    if qps <= 0:
        raise ValueError(f"qps must be positive, got {qps}")
    return math.floor(math.log(qps) / math.log(1.0 + rel_tol) + 1e-9)


def ladder_qps(rung: int, rel_tol: float) -> float:
    """The QPS of ladder rung ``rung`` — a pure function of the index."""
    return (1.0 + rel_tol) ** rung


def find_capacity(
    run_at_qps: RunAtQPS,
    slo: SLOSpec,
    qps_lo: float = DEFAULT_QPS_LO,
    qps_hi: float = DEFAULT_QPS_HI,
    rel_tol: float = 0.10,
    max_probes: int = 20,
    qps_hint: float | None = None,
) -> CapacityResult:
    """Largest ladder QPS whose run meets ``slo``.

    The returned capacity is ``(1 + rel_tol) ** k`` for the largest
    ``k`` with a feasible probe adjacent to an infeasible ``k + 1`` —
    a property of the feasibility oracle and the grid alone.  The
    search starts at the rung of ``qps_hint`` when given (else
    ``qps_hi``), walks exponentially toward the boundary, and bisects
    the bracketing rungs; a good hint collapses the walk to a couple of
    probes without ever changing the answer.  Returns 0.0 when no rung
    down to ``qps_lo / 64`` is feasible.
    """
    if qps_lo <= 0 or qps_hi < qps_lo:
        raise ValueError("need 0 < qps_lo <= qps_hi")
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if qps_hint is not None and qps_hint <= 0:
        raise ValueError(f"qps_hint must be positive, got {qps_hint}")
    result = CapacityResult(capacity_qps=0.0, slo=slo, qps_hint=qps_hint)

    seen: dict[int, bool] = {}

    def probe(rung: int) -> bool:
        ok = seen.get(rung)
        if ok is None:
            qps = ladder_qps(rung, rel_tol)
            metrics = run_at_qps(qps)
            ok = metrics.meets(slo)
            result.probes.append((qps, metrics, ok))
            seen[rung] = ok
        return ok

    def finish(capacity: float) -> CapacityResult:
        result.capacity_qps = capacity
        result.num_bisect_probes = result.num_probes - result.num_bracket_probes
        return result

    k_floor = ladder_rung(qps_lo / _FLOOR_FACTOR, rel_tol)
    start = ladder_rung(qps_hint if qps_hint is not None else qps_hi, rel_tol)
    start = max(start, k_floor)

    # Phase 1: exponential walk from the starting rung to a bracket
    # (lo feasible, hi infeasible, probed at adjacent-in-walk rungs).
    lo: int | None = None
    hi: int | None = None
    if probe(start):
        lo = start
        step = 1
        while result.num_probes < max_probes:
            candidate = lo + step
            try:
                ladder_qps(candidate, rel_tol)
            except OverflowError:
                # The walk doubles its step, so a search whose every
                # probe passes can outrun the float range first.
                break
            if probe(candidate):
                lo = candidate
                step *= 2
            else:
                hi = candidate
                break
        if hi is None:  # budget (or float range) exhausted while still feasible
            result.num_bracket_probes = result.num_probes
            result.bounded = False
            return finish(ladder_qps(lo, rel_tol))
    else:
        hi = start
        step = 1
        while True:
            if hi <= k_floor or result.num_probes >= max_probes:
                result.num_bracket_probes = result.num_probes
                return finish(0.0)
            candidate = max(hi - step, k_floor)
            if probe(candidate):
                lo = candidate
                break
            hi = candidate
            step *= 2
    result.num_bracket_probes = result.num_probes

    # Phase 2: integer bisection to adjacent rungs.  The bracket
    # endpoints move monotonically toward each other, so the final
    # (lo, hi = lo + 1) pair — and hence the capacity — is a function
    # of the oracle and the grid, not of the starting rung.
    while hi - lo > 1 and result.num_probes < max_probes:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid

    return finish(ladder_qps(lo, rel_tol))
