"""Time-to-SLO-reattainment: an MTTR-style recovery metric for fleets.

Goodput and aggregate percentiles say *how much* damage a fault did;
an operator also needs to know *how long* the fleet took to get back
inside its SLO.  This module scans a fleet run's token stream around
each disruption (a crash or a degraded-mode fault window opening) and
reports, per disruption, the delay until the fleet's windowed p99 TBT
was back under the SLO — the serving-system analogue of mean time to
recovery.

Derived purely from :class:`~repro.cluster.fleet.FleetResult` (events
plus per-request token timestamps), so it is bit-identical across the
two engines and costs nothing during simulation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.stats import percentile

if TYPE_CHECKING:
    from repro.cluster.fleet import FleetResult

# Fleet event kinds that open a disruption.  Recoveries/restores close
# windows on their own; only the onset starts a recovery clock.
DISRUPTION_KINDS = frozenset({"fault_down", "fault_degrade"})


@dataclass(frozen=True)
class Disruption:
    """One disruption onset and its measured recovery."""

    time: float
    # Replica indices hit at this instant (a correlated domain event
    # lands several fault events on one timestamp — one disruption).
    replicas: tuple[int, ...]
    kinds: tuple[str, ...]
    # Seconds until windowed p99 TBT was back under the SLO, or None
    # when the run ended first (censored).
    recovery_time: float | None


@dataclass(frozen=True)
class RecoveryReport:
    """All disruptions of one run plus the MTTR-style summary."""

    slo_tbt: float
    window: float
    disruptions: tuple[Disruption, ...]

    @property
    def num_disruptions(self) -> int:
        return len(self.disruptions)

    @property
    def num_censored(self) -> int:
        return sum(1 for d in self.disruptions if d.recovery_time is None)

    @property
    def mean_recovery_time(self) -> float | None:
        """Mean over *measured* recoveries (censored ones excluded)."""
        measured = [
            d.recovery_time
            for d in self.disruptions
            if d.recovery_time is not None
        ]
        if not measured:
            return None
        return sum(measured) / len(measured)

    @property
    def max_recovery_time(self) -> float | None:
        measured = [
            d.recovery_time
            for d in self.disruptions
            if d.recovery_time is not None
        ]
        return max(measured) if measured else None


def _tbt_samples(result: "FleetResult") -> tuple[list[float], list[float]]:
    """All (timestamp, TBT) decode samples of the run, time-sorted.

    Each sample is stamped at the instant its token landed, so windowed
    percentiles reflect what users experienced *during* that window —
    including tokens from requests that only finished much later.
    """
    stamps = [np.frombuffer(r.token_times) for r in result.requests]
    times = np.concatenate([t[1:] for t in stamps] or [np.empty(0)])
    gaps = np.concatenate([t[1:] - t[:-1] for t in stamps] or [np.empty(0)])
    # Time-major, gap-minor: the order of sorting (time, gap) pairs.
    order = np.lexsort((gaps, times))
    return times[order].tolist(), gaps[order].tolist()


def recovery_report(
    result: "FleetResult",
    slo_tbt: float,
    window: float = 2.0,
    min_samples: int = 4,
) -> RecoveryReport:
    """Measure time-to-SLO-reattainment for every disruption in a run.

    A disruption is recovered at the first instant ``t`` at or after
    its onset whose following ``window`` seconds contain at least
    ``min_samples`` decode samples with p99 TBT at or under ``slo_tbt``.
    Candidate instants are the sample timestamps themselves (plus the
    onset), so the scan is exact, not grid-quantized.  A disruption the
    run ends on before reattainment is reported censored
    (``recovery_time=None``) rather than optimistically clamped.
    """
    if slo_tbt <= 0:
        raise ValueError(f"slo_tbt must be positive, got {slo_tbt}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")

    onsets: dict[float, tuple[list[int], list[str]]] = {}
    for event in result.events:
        if event.kind in DISRUPTION_KINDS:
            replicas, kinds = onsets.setdefault(event.time, ([], []))
            if event.replica is not None:
                replicas.append(event.replica)
            kinds.append(event.kind)

    times, gaps = _tbt_samples(result)

    def recovered_at(onset: float) -> float | None:
        start = bisect_left(times, onset)
        # Candidate window starts: the onset itself, then every sample
        # timestamp after it (the windowed p99 only changes there).
        candidates = [onset] + times[start:]
        for t in candidates:
            lo = bisect_left(times, t)
            hi = bisect_right(times, t + window)
            if hi - lo < min_samples:
                continue
            if t + window > result.makespan + 1e-9:
                # Window runs past the end of the run: whatever it
                # holds is truncated evidence, not a recovery.
                return None
            if percentile(sorted(gaps[lo:hi]), 99) <= slo_tbt:
                return t - onset
        return None

    disruptions = tuple(
        Disruption(
            time=onset,
            replicas=tuple(replicas),
            kinds=tuple(kinds),
            recovery_time=recovered_at(onset),
        )
        for onset, (replicas, kinds) in sorted(onsets.items())
    )
    return RecoveryReport(
        slo_tbt=slo_tbt, window=window, disruptions=disruptions
    )
