"""SLO-aware brownout control: graceful degradation under overload.

When the fleet's pooled p99 TBT blows past the SLO — because a rack
went down, half the replicas are throttling, or demand simply spiked —
shedding *everything* is the wrong answer.  A brownout controller
instead steps through configured :class:`DegradationLevel`\\ s, each
trading a little quality for a lot of headroom:

* shrink the per-iteration token budget (smaller chunks → lower TBT at
  the cost of prefill throughput),
* cap admissible context length (long-context requests are the most
  expensive to admit mid-incident),
* shed the lowest-priority tenant classes outright.

Levels are ordered mild → severe.  The controller steps one level at a
time: *up* when pooled p99 TBT exceeds ``tbt_slo * (1 + enter_margin)``
and *down* when it falls below ``tbt_slo * (1 + exit_margin)``, with
``exit_margin < enter_margin`` and a minimum dwell time between steps
so the fleet cannot oscillate across the boundary (classic hysteresis).

Like the health monitor, the controller is a pure decision function
over the fleet's replica state table and TBT windows — the fleet
simulator drives it from control ticks and applies its outputs, so its
decisions are deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.stats import percentile_in_place

if TYPE_CHECKING:
    from repro.cluster.router import ReplicaTable, TbtWindow
    from repro.types import Request


@dataclass(frozen=True)
class DegradationLevel:
    """One rung of the brownout ladder; unset knobs inherit baseline."""

    # Clamp the scheduler's per-iteration token budget to this value
    # (dynamic-budget schedulers clamp their search range instead).
    token_budget: int | None = None
    # Reject new requests whose total (prompt + output) length exceeds
    # this many tokens.
    max_context: int | None = None
    # Shed new arrivals from these tenant classes (``Request.client_id``;
    # lower ids are the more important tenants by convention).
    shed_client_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.token_budget is not None and self.token_budget < 1:
            raise ValueError(
                f"token_budget must be >= 1, got {self.token_budget}"
            )
        if self.max_context is not None and self.max_context < 1:
            raise ValueError(
                f"max_context must be >= 1, got {self.max_context}"
            )
        if not isinstance(self.shed_client_ids, tuple):
            object.__setattr__(
                self, "shed_client_ids", tuple(self.shed_client_ids)
            )


@dataclass(frozen=True)
class BrownoutConfig:
    """Brownout ladder plus the hysteresis that keeps it stable."""

    levels: tuple[DegradationLevel, ...]
    # The TBT SLO the controller defends, in seconds.
    tbt_slo: float = 0.2
    # Step up (degrade) when pooled p99 TBT > tbt_slo * (1 + enter_margin).
    enter_margin: float = 1.0
    # Step down (recover) when pooled p99 TBT < tbt_slo * (1 + exit_margin).
    exit_margin: float = 0.6
    # Minimum simulated seconds between level changes.
    min_dwell: float = 1.0
    # Control-loop cadence in simulated seconds.
    check_interval: float = 0.25
    # Minimum pooled TBT samples before the controller acts at all.
    min_samples: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.levels, tuple):
            object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("brownout needs at least one degradation level")
        for level in self.levels:
            if not isinstance(level, DegradationLevel):
                raise TypeError(f"expected DegradationLevel, got {level!r}")
        if self.tbt_slo <= 0:
            raise ValueError(f"tbt_slo must be positive, got {self.tbt_slo}")
        if self.enter_margin < 0 or self.exit_margin < 0:
            raise ValueError("brownout margins must be non-negative")
        if self.exit_margin >= self.enter_margin:
            raise ValueError(
                "exit_margin must be < enter_margin for hysteresis, got "
                f"exit={self.exit_margin} enter={self.enter_margin}"
            )
        if self.min_dwell < 0:
            raise ValueError(f"min_dwell must be >= 0, got {self.min_dwell}")
        if self.check_interval <= 0:
            raise ValueError(
                f"check_interval must be positive, got {self.check_interval}"
            )
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")


@dataclass(frozen=True)
class BrownoutChange:
    """A level transition the controller just decided on."""

    direction: int  # +1 stepped up (more degraded), -1 stepped down
    level: int  # new level, 0 = fully healthy
    p99_tbt: float | None  # pooled p99 that triggered the step


@dataclass
class BrownoutController:
    """Steps the fleet through degradation levels with hysteresis."""

    config: BrownoutConfig
    level: int = 0
    _last_change: float = field(default=float("-inf"), repr=False)

    @property
    def active(self) -> DegradationLevel | None:
        """The currently-applied level, or None at full health."""
        if self.level == 0:
            return None
        return self.config.levels[self.level - 1]

    def active_budget(self) -> int | None:
        """Token-budget clamp to apply fleet-wide right now."""
        active = self.active
        return None if active is None else active.token_budget

    def admission_veto(self, request: "Request") -> str | None:
        """Reason to shed this arrival under the active level, if any."""
        active = self.active
        if active is None:
            return None
        if request.client_id in active.shed_client_ids:
            return "brownout_tenant"
        if (
            active.max_context is not None
            and request.total_len > active.max_context
        ):
            return "brownout_context"
        return None

    def evaluate(
        self, now: float, table: "ReplicaTable", windows: "Sequence[TbtWindow]"
    ) -> BrownoutChange | None:
        """Decide whether to step the ladder; at most one step per call.

        The signal pools the TBT windows of the replicas ``table``
        marks alive.
        """
        cfg = self.config
        if now - self._last_change < cfg.min_dwell:
            return None
        alive = np.flatnonzero(table.alive).tolist()
        num_pooled = sum(windows[index].count for index in alive)
        if num_pooled < cfg.min_samples:
            # No signal.  An idle or just-recovered fleet steps back
            # toward health rather than staying browned out forever.
            if self.level > 0 and num_pooled == 0:
                self.level -= 1
                self._last_change = now
                return BrownoutChange(-1, self.level, None)
            return None
        pooled = np.concatenate([windows[index].samples() for index in alive])
        p99 = percentile_in_place(pooled, 99)
        enter = cfg.tbt_slo * (1.0 + cfg.enter_margin)
        exit_ = cfg.tbt_slo * (1.0 + cfg.exit_margin)
        if p99 > enter and self.level < len(cfg.levels):
            self.level += 1
            self._last_change = now
            return BrownoutChange(+1, self.level, p99)
        if p99 < exit_ and self.level > 0:
            self.level -= 1
            self._last_change = now
            return BrownoutChange(-1, self.level, p99)
        return None
