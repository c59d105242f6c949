"""Request routers for multi-replica serving, and the fleet state they read.

Two router generations coexist:

* :class:`Router` — the legacy *state-blind* interface.  It sees only
  the request and its own bookkeeping (cumulative assigned work), which
  is what a front-end that never hears back from replicas can run.
* :class:`FleetRouter` — the state-aware interface used by the
  event-driven fleet simulator (:mod:`repro.cluster.fleet`).  A fleet
  router declares the :class:`ReplicaTable` columns it reads and, at
  every arrival, gets read-only array views of them — queue depth,
  outstanding tokens, KV occupancy, recently observed TBT tail — exactly
  the feedback a production gateway gets from replica health/metrics
  endpoints.

Legacy routers still work everywhere: the fleet wraps them in an
adapter that reads no columns (and fails over deterministically when a
state-blind router picks a crashed replica).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.metrics.stats import percentile_in_place
from repro.types import Request


# ----------------------------------------------------------------------
# Live replica state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaSnapshot:
    """One replica's state as an object: a debugging view built on demand.

    Routers read :class:`ReplicaTable` columns instead; the fleet builds
    a snapshot only for a scheduler's admission hook.
    """

    index: int
    alive: bool
    # Requests queued at the replica but not yet admitted to KV memory.
    queue_depth: int
    # Requests admitted and progressing (prefill or decode).
    num_running: int
    # All unfinished requests resident on the replica.
    num_pending: int
    # Remaining prefill + remaining output tokens across pending work.
    outstanding_tokens: int
    # Fraction of KV-cache capacity currently claimed, in [0, 1].
    kv_occupancy: float
    # P99 over the replica's recent TBT samples (None before any
    # decode tokens have been observed, right after a restart, or when
    # no reader asked the fleet to keep TBT windows).
    recent_p99_tbt: float | None
    # Health monitor is draining this replica: alive and finishing its
    # in-flight work, but not accepting new arrivals.
    draining: bool = False


class TbtWindow:
    """One replica's most recent TBT samples, in a numpy ring buffer.

    The replica engine pushes each commit's samples as one array, in
    batch item order, and the window keeps the last ``size`` of them.
    The fleet owns the windows and hands each slot's window to every
    engine the slot boots, so no engine holds a reference to its owner.
    ``changed`` is a list shared by a fleet's windows: a window appends
    its ``index`` the first time it moves after a
    :meth:`ReplicaTable.refresh_p99`, so that refresh touches only the
    windows that moved.
    """

    __slots__ = ("index", "count", "moved", "_buf", "_pos", "_changed")

    def __init__(
        self, size: int, index: int = 0, changed: list[int] | None = None
    ) -> None:
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.index = index
        self.count = 0
        self.moved = False
        self._buf = np.empty(size)
        # Next write position; equals ``count`` until the buffer wraps.
        self._pos = 0
        self._changed = changed if changed is not None else []

    def push(self, tbts: np.ndarray) -> None:
        """Append samples, oldest first, dropping what falls off the window."""
        buf = self._buf
        size = len(buf)
        n = len(tbts)
        if n >= size:
            buf[:] = tbts[n - size :]
            self._pos = 0
        else:
            pos = self._pos
            end = pos + n
            if end <= size:
                buf[pos:end] = tbts
            else:
                head = size - pos
                buf[pos:] = tbts[:head]
                buf[: n - head] = tbts[head:]
            self._pos = end % size
        self.count = min(self.count + n, size)
        self._mark()

    def clear(self) -> None:
        self.count = 0
        self._pos = 0
        self._mark()

    def _mark(self) -> None:
        if not self.moved:
            self.moved = True
            self._changed.append(self.index)

    def samples(self) -> np.ndarray:
        """The samples in the window, oldest first."""
        buf, pos = self._buf, self._pos
        if self.count < len(buf):
            return buf[: self.count].copy()
        return np.concatenate((buf[pos:], buf[:pos]))

    def percentile(self, q: float) -> float | None:
        """The window's ``q``-th percentile, or None while it is empty.

        The float ``numpy.percentile`` (linear method) returns for the
        samples, without that function's per-call overhead, which is
        many times the partition's.
        """
        if self.count == 0:
            return None
        return percentile_in_place(self._buf[: self.count].copy(), q)


class ReplicaTable:
    """The fleet's live state as columns: one row per replica.

    Each replica slot writes its own row whenever its state changes
    (a step, a delivery, a fault), so routing an arrival reads arrays
    instead of polling every replica.  ``recent_p99_tbt`` is NaN where
    a replica has no samples, and is brought up to date by
    :meth:`refresh_p99` only for the windows that moved.
    """

    COLUMNS = (
        "queue_depth",
        "num_running",
        "num_pending",
        "outstanding_tokens",
        "kv_occupancy",
        "recent_p99_tbt",
        "alive",
        "draining",
    )

    def __init__(self, num_replicas: int) -> None:
        n = num_replicas
        self.queue_depth = np.zeros(n, dtype=np.int64)
        self.num_running = np.zeros(n, dtype=np.int64)
        self.num_pending = np.zeros(n, dtype=np.int64)
        self.outstanding_tokens = np.zeros(n, dtype=np.int64)
        self.kv_occupancy = np.zeros(n)
        self.recent_p99_tbt = np.full(n, np.nan)
        self.alive = np.ones(n, dtype=bool)
        self.draining = np.zeros(n, dtype=bool)
        # Indices of TBT windows that moved since the last refresh_p99.
        self.changed: list[int] = []

    def refresh_p99(self, windows: list[TbtWindow]) -> None:
        column = self.recent_p99_tbt
        for index in self.changed:
            window = windows[index]
            window.moved = False
            p99 = window.percentile(99)
            column[index] = np.nan if p99 is None else p99
        self.changed.clear()


class ReplicaView:
    """Read-only array views of the :class:`ReplicaTable` columns a router reads.

    ``alive`` is always present and marks the replicas the router may
    pick: the fleet hides draining replicas behind it while another
    replica can take the work.
    """

    def __init__(self, table: ReplicaTable, columns: tuple[str, ...]) -> None:
        self.alive: np.ndarray
        for name in ("alive", *columns):
            if name not in ReplicaTable.COLUMNS:
                raise ValueError(f"unknown replica-table column {name!r}")
            column = getattr(table, name).view()
            column.flags.writeable = False
            setattr(self, name, column)


def lexicographic_argmin(pool: np.ndarray, *keys: np.ndarray) -> int:
    """Index of the smallest ``keys`` tuple among the rows ``pool`` marks.

    Ties on every key go to the lowest index, like ``min`` over
    ``(key..., index)`` tuples.
    """
    rows = pool.nonzero()[0]
    for key in keys:
        if len(rows) == 1:
            break
        values = key[rows]
        rows = rows[values == values[values.argmin()]]
    return int(rows[0])


# ----------------------------------------------------------------------
# Legacy state-blind routers
# ----------------------------------------------------------------------
class Router(abc.ABC):
    """Assigns each arriving request to a replica index (state-blind)."""

    def __init__(self, num_replicas: int) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.num_replicas = num_replicas

    @abc.abstractmethod
    def route(self, request: Request) -> int:
        """Replica index in ``[0, num_replicas)`` for this request."""


class RoundRobinRouter(Router):
    """Cycle through replicas regardless of request size."""

    def __init__(self, num_replicas: int) -> None:
        super().__init__(num_replicas)
        self._next = 0

    def route(self, request: Request) -> int:
        choice = self._next
        self._next = (self._next + 1) % self.num_replicas
        return choice


class LeastTokensRouter(Router):
    """Send to the replica with the fewest *cumulatively assigned* tokens.

    Outstanding work is tracked as the total (prompt + expected output)
    tokens assigned so far, decayed by nothing — a conservative
    front-end estimate that balances heavy-tailed prompt lengths much
    better than round-robin.  For the live-state version see
    :class:`LeastOutstandingTokensRouter`.
    """

    def __init__(self, num_replicas: int) -> None:
        super().__init__(num_replicas)
        self._assigned_tokens = [0] * num_replicas

    def route(self, request: Request) -> int:
        choice = min(range(self.num_replicas), key=lambda i: self._assigned_tokens[i])
        self._assigned_tokens[choice] += request.total_len
        return choice


# ----------------------------------------------------------------------
# State-aware fleet routers
# ----------------------------------------------------------------------
class FleetRouter(abc.ABC):
    """Routes arrivals against live replica state (fleet simulator).

    ``columns`` names the :class:`ReplicaTable` columns the router
    reads; ``route`` gets them as read-only arrays on its ``view``,
    next to the always-present ``alive`` mask.  A router that reads
    nothing declares nothing.
    """

    columns: tuple[str, ...] = ()

    def __init__(self, num_replicas: int) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.num_replicas = num_replicas

    @abc.abstractmethod
    def route(self, request: Request, now: float, view: ReplicaView) -> int:
        """Replica index for this request; should pick an alive replica."""


def _least_loaded(view: ReplicaView, pool: np.ndarray) -> int:
    """Lowest outstanding work in ``pool``; queue depth then index break ties."""
    return lexicographic_argmin(pool, view.outstanding_tokens, view.queue_depth)


class LeastOutstandingTokensRouter(FleetRouter):
    """Join the replica with the least *live* outstanding work.

    Unlike :class:`LeastTokensRouter`, which only ever accumulates, this
    reads each replica's actual remaining prefill+decode tokens at the
    moment of arrival — finished work stops counting, so a replica that
    drained its backlog immediately becomes attractive again (true
    join-shortest-queue on token work rather than request count).
    """

    columns = ("outstanding_tokens", "queue_depth")

    def route(self, request: Request, now: float, view: ReplicaView) -> int:
        if not view.alive.any():
            raise ValueError("no alive replica to route to")
        return _least_loaded(view, view.alive)


class SloAwareRouter(FleetRouter):
    """Avoid replicas whose recent TBT tail violates the SLO.

    Replicas whose observed recent P99 TBT exceeds ``tbt_slo`` are
    treated as degraded and skipped while at least one healthy replica
    exists (a degraded replica keeps its current work; it just stops
    receiving new arrivals until its tail recovers).  Within the chosen
    pool the least-outstanding-tokens rule applies.
    """

    columns = ("outstanding_tokens", "queue_depth", "recent_p99_tbt")

    def __init__(self, num_replicas: int, tbt_slo: float) -> None:
        super().__init__(num_replicas)
        if tbt_slo <= 0:
            raise ValueError("tbt_slo must be positive")
        self.tbt_slo = tbt_slo

    def route(self, request: Request, now: float, view: ReplicaView) -> int:
        alive = view.alive
        if not alive.any():
            raise ValueError("no alive replica to route to")
        # NaN (no samples yet) compares False, so such replicas count
        # as healthy.
        healthy = alive & ~(view.recent_p99_tbt > self.tbt_slo)
        return _least_loaded(view, healthy if healthy.any() else alive)


class _LegacyRouterAdapter(FleetRouter):
    """Run a state-blind :class:`Router` under the fleet interface."""

    def __init__(self, router: Router) -> None:
        super().__init__(router.num_replicas)
        self.wrapped = router

    def route(self, request: Request, now: float, view: ReplicaView) -> int:
        return self.wrapped.route(request)


def as_fleet_router(router: FleetRouter | Router) -> FleetRouter:
    """Coerce either router generation into the fleet interface."""
    if isinstance(router, FleetRouter):
        return router
    if isinstance(router, Router):
        return _LegacyRouterAdapter(router)
    raise TypeError(
        f"expected a FleetRouter or Router, got {type(router).__name__}"
    )
