"""Event-driven replica health monitoring: flag, drain, restart.

Production gateways do not wait for a replica to crash — a straggler
GPU (thermal throttle, noisy neighbour, failing HBM) silently eats the
fleet's p99 TBT long before it dies.  The monitor compares each
replica's windowed TBT median against the fleet median at a fixed
check cadence; a replica inflated past ``inflation_factor`` is
*drained* (the router stops sending it new work, in-flight requests
finish) and then *restarted* once idle, clearing its stale window.

The monitor is a pure decision function over the fleet's replica
state table and TBT windows; the
:class:`~repro.cluster.fleet.FleetSimulator` drives it from the
control-tick event stream and owns the drain flags and restarts, so a
replayed run sees identical decisions at identical instants.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.stats import percentile

if TYPE_CHECKING:
    from repro.cluster.router import ReplicaTable, TbtWindow


@dataclass(frozen=True)
class HealthConfig:
    """Straggler detection knobs."""

    # Control-loop cadence in simulated seconds.
    check_interval: float = 0.5
    # Drain a replica whose windowed median TBT exceeds the fleet
    # median by this factor.
    inflation_factor: float = 2.0
    # Minimum TBT samples in a replica's window before it is judged —
    # fresh (just restarted) replicas are never flagged on noise.
    min_samples: int = 16
    # Never drain below this many routable (alive, not draining)
    # replicas, whatever the windows say.
    min_healthy: int = 1

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ValueError(
                f"check_interval must be positive, got {self.check_interval}"
            )
        if self.inflation_factor <= 1.0:
            raise ValueError(
                f"inflation_factor must be > 1, got {self.inflation_factor}"
            )
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.min_healthy < 1:
            raise ValueError(f"min_healthy must be >= 1, got {self.min_healthy}")


class HealthMonitor:
    """Flags replicas whose TBT window inflates against the fleet."""

    def __init__(self, config: HealthConfig, num_replicas: int) -> None:
        self.config = config
        self.num_replicas = num_replicas

    def flag_stragglers(
        self, table: "ReplicaTable", windows: "Sequence[TbtWindow]"
    ) -> list[tuple[int, float]]:
        """Replicas to drain now, as ``(index, inflation_ratio)`` pairs.

        Deterministic: replicas are scanned in index order (``table``
        supplies the ``alive`` and ``draining`` columns, ``windows`` one
        TBT window per replica) and the fleet median is taken over the
        judged replicas' window medians.
        Flagging respects ``min_healthy`` — when several replicas
        inflate at once, lower indices are drained first and the rest
        wait for capacity to return.
        """
        cfg = self.config
        healthy = np.flatnonzero(table.alive & ~table.draining).tolist()
        medians: list[tuple[int, float]] = [
            (index, windows[index].percentile(50))
            for index in healthy
            if windows[index].count >= cfg.min_samples
        ]
        # A median needs company to be an outlier: with fewer than two
        # judged replicas there is no fleet to compare against.
        if len(medians) < 2:
            return []
        fleet_median = percentile(sorted(m for _, m in medians), 50)
        if fleet_median <= 0:
            return []
        flagged: list[tuple[int, float]] = []
        routable = len(healthy)
        for index, median in medians:
            ratio = median / fleet_median
            if ratio > cfg.inflation_factor and routable - 1 >= cfg.min_healthy:
                flagged.append((index, ratio))
                routable -= 1
        return flagged
