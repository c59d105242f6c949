"""Event-driven fleet simulation: online routing, faults, overload.

This is the production-shaped multi-replica layer.  Where the old
cluster path statically pre-partitioned the whole trace and simulated
replicas independently, the fleet simulator advances every replica
through one shared virtual clock and makes *online* decisions:

* **State-aware routing** — each arrival is routed against a live
  replica state table (queue depth, outstanding tokens, KV occupancy,
  recent TBT tail) that every replica slot writes as its state
  changes, so routers see the consequences of their own past
  decisions, exactly like a real gateway.
* **Fault injection** — a deterministic :class:`FaultSchedule` crashes
  and restores replicas mid-run.  A crash throws away the replica's
  uncommitted work; its unfinished requests fail over through the
  router to surviving replicas, restarting prefill (counted via
  ``Request.num_restarts``) while keeping every token the user already
  saw.
* **Overload control** — per-replica admission with bounded queues and
  configurable shed/reject/spill policies plus jittered backoff retry,
  so goodput degrades gracefully instead of queueing unboundedly.

Determinism: the event loop is driven by min-heaps — global events by
(time, insertion order), the replicas' next events by (time, replica
index) — and contains no randomness of its own; fault schedules carry
their own seed.  With zero faults and unbounded admission the fleet
path reproduces the old static-partition results bit for bit, and a
1-replica fleet run is exactly the replica engine's ``run`` (the single-replica
``repro.api.simulate`` is implemented as this special case).
"""

from __future__ import annotations

import enum
import heapq
import random
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.degradation import BrownoutConfig, BrownoutController
from repro.cluster.health import HealthConfig, HealthMonitor
from repro.cluster.router import (
    FleetRouter,
    LeastOutstandingTokensRouter,
    ReplicaSnapshot,
    ReplicaTable,
    ReplicaView,
    Router,
    TbtWindow,
    as_fleet_router,
    lexicographic_argmin,
)
from repro.engine.simulator import EventQueue
from repro.engine.replica import EngineStats, SimulationResult
from repro.engine.vectorized import VectorizedReplicaEngine
from repro.metrics.summary import RunMetrics, summarize
from repro.memory.prefix import PrefixCacheStats
from repro.metrics.timeline import IterationLog
from repro.types import Request, RequestPhase

if TYPE_CHECKING:
    from repro.api import Deployment, ServingConfig
    from repro.perf.cache import CacheStats
    from repro.perf.iteration import ExecutionModel

_ARRIVE = "arrive"          # payload: (request, attempt)
_FAULT_DOWN = "fault_down"  # payload: ReplicaFault
_FAULT_UP = "fault_up"      # payload: ReplicaFault
_CONTROL_TICK = "control_tick"  # payload: None (health/brownout loops)

# A rejected request retries after RETRY_BACKOFF * RETRY_BACKOFF_FACTOR
# ** attempt seconds, stretched by up to RETRY_JITTER through a seeded
# draw per (reject rank, attempt): deterministic, but de-synchronized
# across requests so a crash's failed-over cohort does not hammer the
# fleet in lockstep (a retry storm).  After MAX_RETRIES retries it is
# shed.  The longest scheduled wait is 0.25 * 2**3 * 1.25 = 2.5 s.
RETRY_BACKOFF = 0.25
RETRY_BACKOFF_FACTOR = 2.0
RETRY_JITTER = 0.25
MAX_RETRIES = 4
# Recent TBT samples kept per replica for the SLO-aware router, the
# control loops and admission-hook snapshots.
TBT_WINDOW = 128


# ----------------------------------------------------------------------
# Fault schedules
# ----------------------------------------------------------------------
class FaultKind(str, enum.Enum):
    """What a scheduled fault does to its replica."""

    CRASH = "crash"                  # whole-replica loss (today's behaviour)
    SLOWDOWN = "slowdown"            # straggler GPU / thermal throttle
    CAPACITY_LOSS = "capacity_loss"  # mid-run shrink of the KV block pool


@dataclass(frozen=True)
class ReplicaFault:
    """One scheduled fault (and optional recovery) of one replica.

    ``crash`` kills the engine and fails its requests over; ``slowdown``
    multiplies every iteration's execution time by ``severity`` (a
    perf factor > 1) while the replica keeps serving; ``capacity_loss``
    removes a ``severity`` fraction (in (0, 1)) of the KV pool, forcing
    evictions and preemptions until ``up_at`` restores it.  ``severity``
    is unused for ``crash`` and defaults per kind otherwise.
    """

    replica: int
    down_at: float
    up_at: float | None = None  # None = never recovers
    kind: FaultKind = FaultKind.CRASH
    severity: float | None = None

    _DEFAULT_SEVERITIES = {"slowdown": 2.0, "capacity_loss": 0.5}

    def __post_init__(self) -> None:
        if self.replica < 0:
            raise ValueError(f"replica must be >= 0, got {self.replica}")
        if self.down_at < 0:
            raise ValueError(f"down_at must be >= 0, got {self.down_at}")
        if self.up_at is not None and self.up_at <= self.down_at:
            raise ValueError(
                f"up_at ({self.up_at}) must be after down_at ({self.down_at})"
            )
        try:
            kind = FaultKind(self.kind)
        except ValueError:
            choices = ", ".join(repr(k.value) for k in FaultKind)
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose one of {choices}"
            ) from None
        object.__setattr__(self, "kind", kind)
        if kind is FaultKind.CRASH:
            if self.severity is not None:
                raise ValueError("crash faults take no severity")
            return
        severity = self.severity
        if severity is None:
            severity = self._DEFAULT_SEVERITIES[kind.value]
            object.__setattr__(self, "severity", severity)
        if kind is FaultKind.SLOWDOWN and severity <= 1.0:
            raise ValueError(
                f"slowdown severity is a perf multiplier > 1, got {severity}"
            )
        if kind is FaultKind.CAPACITY_LOSS and not 0.0 < severity < 1.0:
            raise ValueError(
                f"capacity_loss severity is a fraction in (0, 1), got {severity}"
            )


@dataclass(frozen=True)
class FailureDomain:
    """A correlated blast radius: replicas sharing a host/rack/zone.

    Members fail *together* under :meth:`FaultSchedule.correlated` —
    the topology models the paper-adjacent production reality that a
    rack event takes out every replica it powers at once.
    """

    name: str
    replicas: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", tuple(self.replicas))
        if not self.name:
            raise ValueError("domain name must be non-empty")
        if not self.replicas:
            raise ValueError(f"domain {self.name!r} has no replicas")
        if any(r < 0 for r in self.replicas):
            raise ValueError(f"domain {self.name!r} has negative replica indices")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError(f"domain {self.name!r} lists a replica twice")


def partition_domains(
    num_replicas: int, num_domains: int, prefix: str = "domain"
) -> tuple[FailureDomain, ...]:
    """Split replica indices into contiguous, near-equal failure domains."""
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")
    if not 1 <= num_domains <= num_replicas:
        raise ValueError(
            f"need 1 <= num_domains <= num_replicas, "
            f"got {num_domains} domains for {num_replicas} replicas"
        )
    base, extra = divmod(num_replicas, num_domains)
    domains: list[FailureDomain] = []
    start = 0
    for i in range(num_domains):
        size = base + (1 if i < extra else 0)
        domains.append(
            FailureDomain(f"{prefix}{i}", tuple(range(start, start + size)))
        )
        start += size
    return tuple(domains)


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic set of replica crash/restore events."""

    faults: tuple[ReplicaFault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def validate(self, num_replicas: int) -> None:
        """Reject faults that target missing replicas or overlap in time.

        Two overlapping faults on the same replica would crash an
        already-down slot and later double-restore it, corrupting the
        slot's queue bookkeeping; a fault with no recovery
        (``up_at=None``) overlaps everything after it.  Back-to-back
        faults (``next.down_at == prev.up_at``) are allowed.
        """
        by_replica: dict[int, list[ReplicaFault]] = {}
        for fault in self.faults:
            if fault.replica >= num_replicas:
                raise ValueError(
                    f"fault targets replica {fault.replica}, "
                    f"fleet has {num_replicas}"
                )
            by_replica.setdefault(fault.replica, []).append(fault)
        for replica, faults in by_replica.items():
            faults.sort(key=lambda fault: fault.down_at)
            for previous, current in zip(faults, faults[1:]):
                if previous.up_at is None or current.down_at < previous.up_at:
                    raise ValueError(
                        f"overlapping faults on replica {replica}: "
                        f"down_at={previous.down_at:g} "
                        f"(up_at={'never' if previous.up_at is None else f'{previous.up_at:g}'}) "
                        f"overlaps down_at={current.down_at:g}"
                    )

    @classmethod
    def single(
        cls,
        replica: int,
        down_at: float,
        up_at: float | None = None,
        kind: FaultKind | str = FaultKind.CRASH,
        severity: float | None = None,
    ) -> "FaultSchedule":
        return cls(faults=(ReplicaFault(replica, down_at, up_at, kind, severity),))

    @classmethod
    def poisson(
        cls,
        num_replicas: int,
        rate: float,
        mean_downtime: float | None,
        horizon: float,
        seed: int = 0,
        kind: FaultKind | str = FaultKind.CRASH,
        severity: float | None = None,
    ) -> "FaultSchedule":
        """Seedable memoryless faults: ``rate`` faults/replica-second.

        Each replica independently draws exponential time-to-failure;
        after a fault it stays degraded for an exponential downtime with
        the given mean (or forever when ``mean_downtime`` is None) and
        the failure clock restarts.  Deterministic for a given seed.
        """
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if rate < 0:
            raise ValueError("rate must be >= 0")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if mean_downtime is not None and mean_downtime <= 0:
            raise ValueError("mean_downtime must be positive (or None)")
        if rate == 0:
            return cls()
        rng = random.Random(seed)
        faults: list[ReplicaFault] = []
        for replica in range(num_replicas):
            t = 0.0
            while True:
                t += rng.expovariate(rate)
                if t >= horizon:
                    break
                if mean_downtime is None:
                    faults.append(ReplicaFault(replica, t, None, kind, severity))
                    break
                downtime = rng.expovariate(1.0 / mean_downtime)
                faults.append(
                    ReplicaFault(replica, t, t + downtime, kind, severity)
                )
                t += downtime
        return cls(tuple(faults))

    @classmethod
    def correlated(
        cls,
        domains: Sequence[FailureDomain],
        rate: float,
        mean_downtime: float | None,
        horizon: float,
        seed: int = 0,
        kind: FaultKind | str = FaultKind.CRASH,
        severity: float | None = None,
    ) -> "FaultSchedule":
        """Seeded domain-level events faulting every member at once.

        ``rate`` is events per domain-second.  Each domain draws its
        own exponential event stream from ``Random(f"{seed}:{name}")``,
        so adding or renaming one domain never perturbs the others'
        draws.  Domains must be disjoint — a shared member would
        receive overlapping faults, which :meth:`validate` rejects.
        """
        if not domains:
            raise ValueError("correlated() needs at least one domain")
        if rate < 0:
            raise ValueError("rate must be >= 0")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if mean_downtime is not None and mean_downtime <= 0:
            raise ValueError("mean_downtime must be positive (or None)")
        seen: set[int] = set()
        for domain in domains:
            overlap = seen.intersection(domain.replicas)
            if overlap:
                raise ValueError(
                    f"domain {domain.name!r} shares replicas "
                    f"{sorted(overlap)} with an earlier domain"
                )
            seen.update(domain.replicas)
        if rate == 0:
            return cls()
        faults: list[ReplicaFault] = []
        for domain in domains:
            rng = random.Random(f"{seed}:{domain.name}")
            t = 0.0
            while True:
                t += rng.expovariate(rate)
                if t >= horizon:
                    break
                if mean_downtime is None:
                    faults.extend(
                        ReplicaFault(r, t, None, kind, severity)
                        for r in domain.replicas
                    )
                    break
                downtime = rng.expovariate(1.0 / mean_downtime)
                faults.extend(
                    ReplicaFault(r, t, t + downtime, kind, severity)
                    for r in domain.replicas
                )
                t += downtime
        return cls(tuple(faults))


# ----------------------------------------------------------------------
# Overload control
# ----------------------------------------------------------------------
class AdmissionPolicy(str, enum.Enum):
    """What happens when the routed replica's queue is full."""

    REJECT = "reject"  # bounce back to the front-end; retry with backoff
    SHED = "shed"      # drop the arriving request immediately (counted)
    SPILL = "spill"    # try any other replica with room, else reject


@dataclass(frozen=True)
class FleetConfig:
    """Fleet topology plus failure/overload knobs."""

    num_replicas: int = 1
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    # Correlated-failure topology (host/rack/zone); informational for
    # routing/telemetry and validated against num_replicas.  Fault
    # schedules over domains come from FaultSchedule.correlated.
    domains: tuple[FailureDomain, ...] = ()
    # Per-replica bound on *waiting* (not yet memory-admitted) requests;
    # None keeps the old unbounded-queue behaviour.
    max_queue_depth: int | None = None
    admission: AdmissionPolicy = AdmissionPolicy.REJECT
    # Optional control loops: the straggler health monitor
    # (repro.cluster.health) and the SLO-aware brownout controller
    # (repro.cluster.degradation).  None disables each.
    health: HealthConfig | None = None
    brownout: BrownoutConfig | None = None

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {self.num_replicas}")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {self.max_queue_depth}"
            )
        try:
            admission = AdmissionPolicy(self.admission)
        except ValueError:
            choices = ", ".join(repr(p.value) for p in AdmissionPolicy)
            raise ValueError(
                f"unknown admission policy {self.admission!r}; "
                f"choose one of {choices}"
            ) from None
        object.__setattr__(self, "admission", admission)
        object.__setattr__(self, "domains", tuple(self.domains))
        members: set[int] = set()
        for domain in self.domains:
            if not isinstance(domain, FailureDomain):
                raise ValueError(f"domains must be FailureDomain, got {domain!r}")
            for member in domain.replicas:
                if member >= self.num_replicas:
                    raise ValueError(
                        f"domain {domain.name!r} lists replica {member}, "
                        f"fleet has {self.num_replicas}"
                    )
                if member in members:
                    raise ValueError(
                        f"replica {member} appears in two failure domains"
                    )
                members.add(member)
        # A monitor that needs more samples than the windows hold could
        # never judge anything.
        if self.health is not None and self.health.min_samples > TBT_WINDOW:
            raise ValueError(
                f"health.min_samples ({self.health.min_samples}) exceeds "
                f"TBT_WINDOW ({TBT_WINDOW}): no replica could be judged"
            )
        pooled = self.num_replicas * TBT_WINDOW
        if self.brownout is not None and self.brownout.min_samples > pooled:
            raise ValueError(
                f"brownout.min_samples ({self.brownout.min_samples}) exceeds "
                f"num_replicas * TBT_WINDOW ({pooled}): the controller "
                "could never act"
            )


# ----------------------------------------------------------------------
# Telemetry events
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FleetEvent:
    """One control-plane decision, for telemetry and determinism tests.

    Kinds: ``route`` (delivery to a replica), ``reject`` (bounced by
    admission control; ``retry_at`` set when a retry was scheduled),
    ``shed`` (dropped for good — brownout sheds carry
    ``brownout_tenant``/``brownout_context`` reasons), ``failover``
    (re-routed off a crashed replica), ``fault_down`` / ``fault_up``
    (crash/restore), ``fault_degrade`` / ``fault_recover``
    (slowdown and capacity-loss windows), ``drain_start`` /
    ``health_restart`` (straggler monitor) and ``brownout_enter`` /
    ``brownout_exit`` (degradation-level changes).
    """

    time: float
    kind: str
    request_id: int | None = None
    replica: int | None = None
    attempt: int = 0
    reason: str | None = None
    queue_depth: int | None = None
    outstanding_tokens: int | None = None
    retry_at: float | None = None


# The documented event kinds; a kind's index is its code in the log.
EVENT_KINDS = (
    "route",
    "reject",
    "shed",
    "failover",
    "fault_down",
    "fault_up",
    "fault_degrade",
    "fault_recover",
    "drain_start",
    "health_restart",
    "brownout_enter",
    "brownout_exit",
)
_KIND_CODES = {kind: code for code, kind in enumerate(EVENT_KINDS)}
_NAN = float("nan")


class FleetEventLog(Sequence):
    """Fleet events as packed columns: a read-only sequence.

    :meth:`add` stores one decision without building an object: the
    time and ``retry_at`` (NaN for ``None``) as float64, the kind as a
    uint8 code into :data:`EVENT_KINDS`, ``request_id``, ``replica``,
    ``queue_depth`` and ``outstanding_tokens`` as four int64 per row
    (-1 for ``None``, so they must not be negative), ``attempt`` as
    int32, and the rare ``reason`` in a dict keyed by position.
    Indexing and iteration build :class:`FleetEvent` records on demand.
    """

    __slots__ = ("_times", "_kinds", "_ints", "_attempts", "_retry_at", "_reasons")

    def __init__(self) -> None:
        self._times = array("d")
        self._kinds = array("B")
        # request_id, replica, queue_depth, outstanding_tokens per row.
        self._ints = array("q")
        self._attempts = array("i")
        self._retry_at = array("d")
        self._reasons: dict[int, str] = {}

    def add(
        self,
        time: float,
        kind: str,
        request_id: int | None = None,
        replica: int | None = None,
        attempt: int = 0,
        reason: str | None = None,
        queue_depth: int | None = None,
        outstanding_tokens: int | None = None,
        retry_at: float | None = None,
    ) -> None:
        """Append one event; the arguments are :class:`FleetEvent`'s fields."""
        code = _KIND_CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown fleet event kind {kind!r}")
        ints = (
            -1 if request_id is None else request_id,
            -1 if replica is None else replica,
            -1 if queue_depth is None else queue_depth,
            -1 if outstanding_tokens is None else outstanding_tokens,
        )
        if min(ints) < 0 and any(
            v is not None and v < 0
            for v in (request_id, replica, queue_depth, outstanding_tokens)
        ):
            raise ValueError(f"negative id or count in a {kind!r} event")
        try:
            self._times.append(time)
            self._ints.extend(ints)
            self._attempts.append(attempt)
            self._retry_at.append(_NAN if retry_at is None else retry_at)
        except (TypeError, OverflowError):
            # A value that does not fit its column leaves no partial row
            # (the kinds, appended last, count the complete rows).
            n = len(self._kinds)
            del self._times[n:], self._ints[4 * n :], self._attempts[n:], self._retry_at[n:]
            raise
        if reason is not None:
            self._reasons[len(self._kinds)] = reason
        self._kinds.append(code)

    # -- sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self._kinds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self._kinds)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("FleetEventLog index out of range")
        q = 4 * index
        return _event(
            self._times[index], self._kinds[index], self._ints[q : q + 4],
            self._attempts[index], self._reasons.get(index), self._retry_at[index],
        )

    def __iter__(self) -> Iterator[FleetEvent]:
        reasons = self._reasons
        rows = zip(
            self._times, self._kinds, zip(*[iter(self._ints)] * 4),
            self._attempts, self._retry_at,
        )
        for index, (time, code, ints, attempt, retry_at) in enumerate(rows):
            yield _event(time, code, ints, attempt, reasons.get(index), retry_at)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (FleetEventLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FleetEventLog({len(self)} events)"


def _event(
    time: float,
    code: int,
    ints: Sequence[int],
    attempt: int,
    reason: str | None,
    retry_at: float,
) -> FleetEvent:
    request_id, replica, queue_depth, outstanding = ints
    return FleetEvent(
        time=time,
        kind=EVENT_KINDS[code],
        request_id=None if request_id < 0 else request_id,
        replica=None if replica < 0 else replica,
        attempt=attempt,
        reason=reason,
        queue_depth=None if queue_depth < 0 else queue_depth,
        outstanding_tokens=None if outstanding < 0 else outstanding,
        retry_at=None if retry_at != retry_at else retry_at,
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _add_prefix_stats(
    total: PrefixCacheStats | None, stats: PrefixCacheStats | None
) -> PrefixCacheStats | None:
    """Accumulate prefix-cache counters without mutating ``stats``."""
    if stats is None:
        return total
    if total is None:
        total = PrefixCacheStats()
    total.hits += stats.hits
    total.misses += stats.misses
    total.hit_tokens += stats.hit_tokens
    total.cow_copies += stats.cow_copies
    total.registrations += stats.registrations
    total.evictions += stats.evictions
    return total


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    # Cloned input trace, in input order (includes shed requests).
    requests: list[Request]
    # Requests dropped by overload control, in shed order.
    shed: list[Request]
    # One result per replica slot.  With faults a request that moved
    # between replicas appears in each incarnation's request list; use
    # ``requests``/``merged()`` for fleet-wide accounting.
    replica_results: list[SimulationResult]
    # Every routing/rejection/failover decision, in decision order.
    events: FleetEventLog
    # request_id -> replica of the *first* delivery.
    assignments: dict[int, int]
    makespan: float
    num_replicas: int
    num_rejections: int
    num_failovers: int
    cache_stats: "CacheStats | None" = None

    @property
    def finished_requests(self) -> list[Request]:
        return [r for r in self.requests if r.is_finished]

    @property
    def num_shed(self) -> int:
        return len(self.shed)

    @property
    def num_restarts(self) -> int:
        return sum(r.num_restarts for r in self.requests)

    def lost_requests(self) -> list[Request]:
        """Requests neither finished nor explicitly shed.

        Empty for every finished run (the conservation invariant): a
        run that drains its queues with any left raises instead.
        """
        shed_ids = {r.request_id for r in self.shed}
        return [
            r
            for r in self.requests
            if not r.is_finished and r.request_id not in shed_ids
        ]

    def merged(self) -> SimulationResult:
        """The fleet-wide view used for metric aggregation."""
        num_stages = 0
        preemptions = 0
        engine_stats = None
        prefix_stats = None
        for result in self.replica_results:
            num_stages = max(num_stages, result.num_stages)
            preemptions += result.num_preemptions
            stats = result.engine_stats
            if stats is not None:
                engine_stats = (
                    stats
                    if engine_stats is None
                    else EngineStats(
                        num_events=engine_stats.num_events + stats.num_events,
                        num_batches=engine_stats.num_batches + stats.num_batches,
                    )
                )
            # Per-replica prefix stores are independent; the fleet view
            # sums their counters (incarnations after a crash included).
            prefix_stats = _add_prefix_stats(prefix_stats, result.prefix_stats)
        replica_logs = tuple(IterationLog.of(r.records) for r in self.replica_results)
        return SimulationResult(
            requests=list(self.requests),
            records=IterationLog.chain(replica_logs),
            makespan=self.makespan,
            num_stages=num_stages,
            num_preemptions=preemptions,
            unfinished=[r for r in self.requests if not r.is_finished],
            cache_stats=self.cache_stats,
            engine_stats=engine_stats,
            prefix_stats=prefix_stats,
            replica_logs=replica_logs,
        )


# ----------------------------------------------------------------------
# One replica slot (survives crash/restore cycles)
# ----------------------------------------------------------------------
class _ReplicaSlot:
    """A replica index that engines come and go from across faults.

    The slot writes its row of the fleet's :class:`ReplicaTable` and
    hands its :class:`TbtWindow`, when the fleet keeps windows, to every
    engine it boots.  Neither those objects nor the engine refer back
    to the slot, so a crashed incarnation is freed the moment the slot
    drops it.
    """

    def __init__(
        self,
        index: int,
        deployment: "Deployment",
        config: "ServingConfig",
        exec_model: "ExecutionModel",
        table: ReplicaTable,
    ) -> None:
        self.index = index
        self._deployment = deployment
        self._config = config
        self._exec_model = exec_model
        self._table = table
        self.window: TbtWindow | None = None
        self._alive = True
        self._draining = False
        self.engine: VectorizedReplicaEngine | None = None
        self.num_stages = 0
        self.num_incarnations = 0
        # Carried across incarnations: completed iteration records,
        # preemption counts, and requests that finished here.
        self._past_records = IterationLog()
        self._past_preemptions = 0
        self._finished_past: list[Request] = []
        self._past_events = 0
        self._past_batches = 0
        self._past_prefix: PrefixCacheStats | None = None
        # Active degraded-mode fault state, persisted across reboots so
        # a restart inside a slowdown/capacity window stays degraded.
        self._perf_scale = 1.0
        self._capacity_fraction = 0.0
        self._capacity_lost = 0
        # Brownout budget clamp, re-applied to every new incarnation.
        self.budget_override: int | None = None
        self._boot()

    def _boot(self) -> None:
        from repro.api import build_engine

        self.engine = build_engine(
            self._deployment, self._config, exec_model=self._exec_model
        )
        self.engine.tbt_window = self.window
        self.num_stages = self.engine.num_stages
        self.num_incarnations += 1
        if self._perf_scale != 1.0:
            self.engine.perf_scale = self._perf_scale
        if self._capacity_fraction:
            self._capacity_lost = self.engine.scheduler.memory.shed_capacity(
                self._capacity_fraction
            )
        if self.budget_override is not None:
            self.engine.scheduler.override_token_budget(self.budget_override)

    def attach_window(self, window: TbtWindow) -> None:
        self.window = window
        self.engine.tbt_window = window

    @property
    def alive(self) -> bool:
        return self._alive

    @alive.setter
    def alive(self, value: bool) -> None:
        self._alive = value
        self._table.alive[self.index] = value

    @property
    def draining(self) -> bool:
        """Health-monitor drain flag: the router stops new work, the
        in-flight requests finish, then the monitor restarts the slot."""
        return self._draining

    @draining.setter
    def draining(self, value: bool) -> None:
        self._draining = value
        self._table.draining[self.index] = value

    def publish(self) -> None:
        """Write this replica's live counters into its table row."""
        table, i = self._table, self.index
        if not self._alive:
            table.queue_depth[i] = table.num_running[i] = 0
            table.num_pending[i] = table.outstanding_tokens[i] = 0
            table.kv_occupancy[i] = 0.0
            return
        # The engine keeps these as O(1) counters, so publishing never
        # forces a full state synchronization.
        scheduler = self.engine.scheduler
        table.queue_depth[i] = scheduler.num_waiting
        table.num_pending[i] = scheduler.num_pending
        table.outstanding_tokens[i] = scheduler.outstanding_tokens
        table.num_running[i] = scheduler.num_running
        table.kv_occupancy[i] = scheduler.memory.occupancy

    # -- event-loop interface -----------------------------------------
    def next_event_time(self) -> float | None:
        if not self.alive:
            return None
        return self.engine.next_event_time()

    def snapshot(self, now: float) -> ReplicaSnapshot:
        """This replica's state as an object, built on demand.

        Routers read the state table; the fleet builds a snapshot only
        for a scheduler's admission hook.
        """
        if not self.alive:
            return ReplicaSnapshot(
                index=self.index,
                alive=False,
                queue_depth=0,
                num_running=0,
                num_pending=0,
                outstanding_tokens=0,
                kv_occupancy=0.0,
                recent_p99_tbt=None,
                draining=False,
            )
        scheduler = self.engine.scheduler
        return ReplicaSnapshot(
            index=self.index,
            alive=True,
            queue_depth=scheduler.num_waiting,
            num_running=scheduler.num_running,
            num_pending=self.engine.num_pending(),
            outstanding_tokens=self.engine.outstanding_tokens(),
            kv_occupancy=scheduler.memory.occupancy,
            recent_p99_tbt=(
                None if self.window is None else self.window.percentile(99)
            ),
            draining=self.draining,
        )

    # -- fault transitions --------------------------------------------
    def crash(self, now: float) -> list[Request]:
        """Kill the current incarnation; return requests to fail over.

        Committed iteration records are kept (that work ran), in-flight
        iterations are discarded (they never completed), and every
        unfinished resident request restarts its prefill — emitted
        tokens were already streamed to users, so they fold into the
        restarted prefill exactly like a recompute preemption.
        """
        assert self.alive and self.engine is not None
        failed = self.engine.pending_requests()
        log = self.engine.records
        self._past_records = IterationLog.chain(
            [self._past_records, log.select(log.column("end") <= now + 1e-12)]
        )
        self._past_preemptions += self.engine.scheduler.num_preemptions
        self._finished_past.extend(
            r for r in self.engine.all_requests if r.is_finished
        )
        stats = self.engine.engine_stats()
        self._past_events += stats.num_events
        self._past_batches += stats.num_batches
        self._past_prefix = _add_prefix_stats(
            self._past_prefix,
            getattr(self.engine.scheduler.memory, "prefix_stats", None),
        )
        self.engine = None
        self.alive = False
        self.draining = False
        # The dead engine's shed KV pool died with it; a reboot inside
        # the fault window re-sheds from the fresh pool.
        self._capacity_lost = 0
        if self.window is not None:
            self.window.clear()
        for request in failed:
            if request.phase is not RequestPhase.QUEUED or request.context_len > 0:
                request.restart_after_preemption()
        return failed

    def restore(self, now: float) -> None:
        assert not self.alive
        self.alive = True
        self._boot()

    def recycle(self, now: float) -> list[Request]:
        """Drain-restart: crash plus immediate reboot.

        Returns stragglers to fail over — empty when the caller waited
        for the drain to complete (``engine.num_pending() == 0``).
        """
        failed = self.crash(now)
        self.restore(now)
        return failed

    # -- degraded-mode faults ------------------------------------------
    def slow_down(self, factor: float) -> None:
        self._perf_scale = factor
        if self.engine is not None:
            self.engine.perf_scale = factor

    def restore_speed(self) -> None:
        self._perf_scale = 1.0
        if self.engine is not None:
            self.engine.perf_scale = 1.0

    def lose_capacity(self, fraction: float) -> None:
        self._capacity_fraction = fraction
        if self.engine is not None:
            self._capacity_lost = self.engine.scheduler.memory.shed_capacity(
                fraction
            )

    def restore_capacity(self) -> None:
        self._capacity_fraction = 0.0
        if self.engine is not None and self._capacity_lost:
            self.engine.scheduler.memory.restore_capacity(self._capacity_lost)
        self._capacity_lost = 0

    def apply_budget_override(self, budget: int | None) -> None:
        self.budget_override = budget
        if self.engine is not None:
            self.engine.scheduler.override_token_budget(budget)

    # -- end of run ----------------------------------------------------
    def finalize(
        self, makespan: float, cache_stats: "CacheStats | None"
    ) -> SimulationResult:
        logs = [self._past_records]
        preemptions = self._past_preemptions
        requests = list(self._finished_past)
        events = self._past_events
        batches = self._past_batches
        prefix_stats = self._past_prefix
        if self.engine is not None:
            logs.append(self.engine.records)
            preemptions += self.engine.scheduler.num_preemptions
            requests.extend(self.engine.all_requests)
            stats = self.engine.engine_stats()
            events += stats.num_events
            batches += stats.num_batches
            prefix_stats = _add_prefix_stats(
                prefix_stats,
                getattr(self.engine.scheduler.memory, "prefix_stats", None),
            )
        return SimulationResult(
            requests=requests,
            records=IterationLog.chain(logs),
            makespan=makespan,
            num_stages=self.num_stages,
            num_preemptions=preemptions,
            unfinished=[r for r in requests if not r.is_finished],
            cache_stats=cache_stats,
            engine_stats=EngineStats(num_events=events, num_batches=batches),
            prefix_stats=prefix_stats,
        )


# ----------------------------------------------------------------------
# The fleet simulator
# ----------------------------------------------------------------------
class FleetSimulator:
    """Discrete-event co-simulation of N replicas behind one router."""

    def __init__(
        self,
        deployment: "Deployment",
        config: "ServingConfig",
        fleet: FleetConfig,
        router: FleetRouter | Router | None = None,
        exec_model: "ExecutionModel | None" = None,
    ) -> None:
        from repro.api import execution_model_for

        fleet.faults.validate(fleet.num_replicas)
        self.fleet = fleet
        # One (typically cached) execution model warms across replicas:
        # identical deployments price identical batches, so the fleet
        # shares cache entries instead of rebuilding a cold model per
        # replica.
        self.exec_model = (
            exec_model
            if exec_model is not None
            else execution_model_for(deployment)
        )
        self.router = as_fleet_router(
            router
            if router is not None
            else LeastOutstandingTokensRouter(fleet.num_replicas)
        )
        if self.router.num_replicas != fleet.num_replicas:
            raise ValueError(
                f"router is configured for {self.router.num_replicas} replicas, "
                f"cluster has {fleet.num_replicas}"
            )
        num = fleet.num_replicas
        self.table = ReplicaTable(num)
        self.replicas = [
            _ReplicaSlot(i, deployment, config, self.exec_model, self.table)
            for i in range(num)
        ]
        self._view = ReplicaView(self.table, self.router.columns)
        self._alive_view = self._view.alive
        self._reads_p99 = "recent_p99_tbt" in self.router.columns
        self.events = FleetEventLog()
        self.assignments: dict[int, int] = {}
        self.shed: list[Request] = []
        self.num_rejections = 0
        # request_id -> rank of its first reject in this run: the key of
        # its retry-jitter draws, independent of what ran before.
        self._reject_ranks: dict[int, int] = {}
        self.num_failovers = 0
        # Control loops, both optional and both driven by the shared
        # control-tick event stream.
        self.health = (
            HealthMonitor(fleet.health, fleet.num_replicas)
            if fleet.health is not None
            else None
        )
        self.brownout = (
            BrownoutController(fleet.brownout)
            if fleet.brownout is not None
            else None
        )
        intervals = [
            cfg.check_interval
            for cfg in (fleet.health, fleet.brownout)
            if cfg is not None
        ]
        self._tick_interval = min(intervals) if intervals else None
        # TBT windows exist only when something reads them: the router,
        # a control loop, or a scheduler's admission hook (through its
        # snapshot).  Without a reader the engines emit no samples.
        hook = getattr(self.replicas[0].engine.scheduler, "admission_hook", None)
        self.windows: list[TbtWindow] | None = None
        if self._reads_p99 or intervals or hook is not None:
            self.windows = [
                TbtWindow(TBT_WINDOW, i, self.table.changed)
                for i in range(num)
            ]
            for slot, window in zip(self.replicas, self.windows):
                slot.attach_window(window)
        for slot in self.replicas:
            slot.publish()
        # Next replica event: a (time, index) heap.  Every loop
        # iteration mutates at most one slot (a step, a delivery, or a
        # fault transition); the slot is marked dirty and re-polled
        # lazily (see _next_replica_event), so no event scans all N.
        self._slot_times: list[float | None] = [None] * num
        self._slot_dirty: list[bool] = [True] * num
        self._event_heap: list[tuple[float, int]] = [(0.0, i) for i in range(num)]

    # -- main loop -----------------------------------------------------
    def run(self, requests: list[Request]) -> FleetResult:
        from repro.api import clone_requests

        if not requests:
            raise ValueError("simulate_fleet needs at least one request")
        cloned = clone_requests(requests)
        queue = EventQueue()
        # Fault events enqueue first so a crash at the exact instant of
        # an arrival is observed by that arrival's routing decision.
        for fault in self.fleet.faults.faults:
            queue.push(fault.down_at, _FAULT_DOWN, fault)
            if fault.up_at is not None:
                queue.push(fault.up_at, _FAULT_UP, fault)
        for request in cloned:
            queue.push(request.arrival_time, _ARRIVE, (request, 0))
        if self._tick_interval is not None:
            queue.push(self._tick_interval, _CONTROL_TICK, None)

        heap = self._event_heap
        times = self._slot_times
        now = 0.0
        # Only a global event's handler pushes to the queue, so its head
        # is re-read after each global event, not on every replica step.
        global_time = queue.peek_time()
        while True:
            replica_time, replica_idx = self._next_replica_event(global_time)
            if global_time is None and replica_time is None:
                break
            # Global events win ties, as arrivals do in the replica
            # engine's own loop (``VectorizedReplicaEngine.run``).
            take_global = replica_time is None or (
                global_time is not None and global_time <= replica_time
            )
            if take_global:
                now, kind, payload = queue.pop()
                self._handle(kind, payload, now, queue)
                global_time = queue.peek_time()
            else:
                slot = self.replicas[replica_idx]
                now = slot.engine.step()
                # The stepped slot's entry is the heap top: replace it
                # with the slot's next event.
                times[replica_idx] = new = slot.engine.next_event_time()
                if new is None:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(heap, (new, replica_idx))
                slot.publish()

        cache_stats = getattr(self.exec_model, "cache_stats", None)
        result = FleetResult(
            requests=cloned,
            # A simulator runs once: the result takes its logs as they are.
            shed=self.shed,
            replica_results=[
                slot.finalize(now, cache_stats) for slot in self.replicas
            ],
            events=self.events,
            assignments=self.assignments,
            makespan=now,
            num_replicas=self.fleet.num_replicas,
            num_rejections=self.num_rejections,
            num_failovers=self.num_failovers,
            cache_stats=cache_stats,
        )
        lost = result.lost_requests()
        if lost:
            raise RuntimeError(
                f"fleet simulation drained its event queue with {len(lost)} "
                "unfinished requests — scheduler/memory deadlock "
                f"(first stuck: request {lost[0].request_id})"
            )
        return result

    def _touch(self, index: int, now: float) -> None:
        """Slot ``index`` changed at ``now``: publish its row, re-poll it lazily."""
        if not self._slot_dirty[index]:
            self._slot_dirty[index] = True
            # No event of the slot can precede the instant it changed.
            heapq.heappush(self._event_heap, (now, index))
        self.replicas[index].publish()

    def _next_replica_event(self, bound: float | None) -> tuple[float | None, int]:
        """The earliest replica event as ``(time, index)``, or ``(None, -1)``.

        Ties go to the lowest index.  A dirty slot sits in the heap
        under a lower bound on its next event time and is polled only
        when that bound surfaces below ``bound``, the next global event
        (which wins ties, so a bound at or after it decides nothing).
        Entries of slots that have since moved are dropped as they
        surface.
        """
        heap = self._event_heap
        times = self._slot_times
        dirty = self._slot_dirty
        while heap:
            t, i = heap[0]
            if dirty[i]:
                if bound is not None and bound <= t:
                    return t, i
                heapq.heappop(heap)
                dirty[i] = False
                times[i] = new = self.replicas[i].next_event_time()
                if new is not None:
                    heapq.heappush(heap, (new, i))
            elif times[i] != t:
                heapq.heappop(heap)
            else:
                return t, i
        return None, -1

    # -- event handlers ------------------------------------------------
    def _handle(self, kind: str, payload: Any, now: float, queue: EventQueue) -> None:
        if kind == _ARRIVE:
            request, attempt = payload
            self._route(request, attempt, now, queue)
        elif kind == _FAULT_DOWN:
            if payload.kind is FaultKind.CRASH:
                self._crash_replica(payload.replica, now, queue)
            else:
                self._degrade_replica(payload, now)
        elif kind == _FAULT_UP:
            if payload.kind is FaultKind.CRASH:
                self._restore_replica(payload.replica, now)
            else:
                self._recover_replica(payload, now)
        elif kind == _CONTROL_TICK:
            self._control_tick(now, queue)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown fleet event kind {kind!r}")

    def _crash_replica(self, index: int, now: float, queue: EventQueue) -> None:
        slot = self.replicas[index]
        if not slot.alive:
            return
        failed = slot.crash(now)
        self._touch(index, now)
        self.events.add(
            time=now, kind="fault_down", replica=index, reason=f"{len(failed)} failed over"
        )
        # Fail over in arrival order so re-routing is deterministic and
        # FCFS-fair regardless of the engine's internal pool order.
        for request in sorted(failed, key=lambda r: (r.arrival_time, r.request_id)):
            self.num_failovers += 1
            self.events.add(
                time=now,
                kind="failover",
                request_id=request.request_id,
                replica=index,
            )
            queue.push(now, _ARRIVE, (request, 0))

    def _restore_replica(self, index: int, now: float) -> None:
        slot = self.replicas[index]
        if slot.alive:
            return
        slot.restore(now)
        self._touch(index, now)
        self.events.add(time=now, kind="fault_up", replica=index)

    def _degrade_replica(self, fault: ReplicaFault, now: float) -> None:
        slot = self.replicas[fault.replica]
        # A slowdown only scales iterations not yet priced, so neither
        # the slot's next event nor its row moves.
        if fault.kind is FaultKind.SLOWDOWN:
            slot.slow_down(fault.severity)
        else:
            slot.lose_capacity(fault.severity)
            self._touch(fault.replica, now)
        self.events.add(
            time=now,
            kind="fault_degrade",
            replica=fault.replica,
            reason=f"{fault.kind.value}:{fault.severity:g}",
        )

    def _recover_replica(self, fault: ReplicaFault, now: float) -> None:
        slot = self.replicas[fault.replica]
        if fault.kind is FaultKind.SLOWDOWN:
            slot.restore_speed()
        else:
            slot.restore_capacity()
            if slot.alive:
                # The shrunken pool may have stalled the replica with
                # waiting-but-unadmittable work and no internal events;
                # restoring capacity must nudge the scheduler.
                slot.engine.kick(now)
            self._touch(fault.replica, now)
        self.events.add(
            time=now,
            kind="fault_recover",
            replica=fault.replica,
            reason=fault.kind.value,
        )

    # -- control loops -------------------------------------------------
    def _control_tick(self, now: float, queue: EventQueue) -> None:
        if self.health is not None:
            self._run_health(now)
        if self.brownout is not None:
            self._run_brownout(now)
        # Re-arm only while the run can still make progress, so the
        # tick stream never keeps a drained event loop alive.
        if queue.peek_time() is not None or self.table.num_pending.max() > 0:
            queue.push(now + self._tick_interval, _CONTROL_TICK, None)

    def _run_health(self, now: float) -> None:
        table = self.table
        for index, ratio in self.health.flag_stragglers(table, self.windows):
            slot = self.replicas[index]
            slot.draining = True
            self.events.add(
                time=now,
                kind="drain_start",
                replica=index,
                reason=f"tbt_inflation={ratio:.2f}",
            )
        idle = table.draining & table.alive & (table.num_pending == 0)
        for index in np.flatnonzero(idle).tolist():
            slot = self.replicas[index]
            slot.draining = False
            slot.recycle(now)
            self._touch(index, now)
            self.events.add(time=now, kind="health_restart", replica=index)

    def _run_brownout(self, now: float) -> None:
        change = self.brownout.evaluate(now, self.table, self.windows)
        if change is None:
            return
        # A budget clamp shapes batches not yet formed: no slot's next
        # event or row moves.
        budget = self.brownout.active_budget()
        for slot in self.replicas:
            slot.apply_budget_override(budget)
        self.events.add(
            time=now,
            kind="brownout_enter" if change.direction > 0 else "brownout_exit",
            reason=(
                f"level={change.level}"
                if change.p99_tbt is None
                else f"level={change.level} p99_tbt={change.p99_tbt:.3f}"
            ),
        )

    def _route(
        self, request: Request, attempt: int, now: float, queue: EventQueue
    ) -> None:
        if self.brownout is not None:
            veto = self.brownout.admission_veto(request)
            if veto is not None:
                self._shed(request, attempt, now, None, veto)
                return
        table = self.table
        routable = self._alive_view
        if table.draining.any():
            # Draining replicas take no new work while at least one
            # routable replica remains: state-blind routers see them as
            # down and the dead-pick failover below walks past them.
            open_ = table.alive & ~table.draining
            if open_.any():
                open_.flags.writeable = False
                routable = open_
        if not routable.any():
            self._reject(request, attempt, now, queue, None, "no_alive_replica")
            return
        if self._reads_p99:
            table.refresh_p99(self.windows)
        self._view.alive = routable
        choice = self.router.route(request, now, self._view)
        num = self.fleet.num_replicas
        if not isinstance(choice, int) or not 0 <= choice < num:
            raise ValueError(f"router returned invalid replica {choice!r}")
        if not routable[choice]:
            # A state-blind router picked a crashed replica; fail over
            # deterministically to the next alive index.
            for shift in range(1, num):
                candidate = (choice + shift) % num
                if routable[candidate]:
                    choice = candidate
                    break
        depth_limit = self.fleet.max_queue_depth
        if depth_limit is not None and table.queue_depth[choice] >= depth_limit:
            policy = self.fleet.admission
            if policy is AdmissionPolicy.SPILL:
                open_ = routable & (table.queue_depth < depth_limit)
                if not open_.any():
                    self._reject(request, attempt, now, queue, choice, "fleet_saturated")
                    return
                choice = lexicographic_argmin(
                    open_, table.queue_depth, table.outstanding_tokens
                )
            elif policy is AdmissionPolicy.SHED:
                self._shed(request, attempt, now, choice, "queue_full")
                return
            else:
                self._reject(request, attempt, now, queue, choice, "queue_full")
                return
        slot = self.replicas[choice]
        # Policy admission hook (see repro.scheduling.policy): a
        # scheduler exposing ``admission_hook`` sees the chosen
        # replica's live snapshot and may defer the request into the
        # backoff-retry loop.  Schedulers without the hook — including
        # every vectorized core — admit unconditionally, as before.
        hook = getattr(slot.engine.scheduler, "admission_hook", None)
        if hook is not None and not hook(slot.snapshot(now), request, now):
            self._reject(request, attempt, now, queue, choice, "policy_deferred")
            return
        queue_depth = int(table.queue_depth[choice])
        outstanding = int(table.outstanding_tokens[choice])
        slot.engine.deliver(request, now)
        self._touch(choice, now)
        self.assignments.setdefault(request.request_id, choice)
        self.events.add(
            time=now,
            kind="route",
            request_id=request.request_id,
            replica=choice,
            attempt=attempt,
            queue_depth=queue_depth,
            outstanding_tokens=outstanding,
        )

    def _reject(
        self,
        request: Request,
        attempt: int,
        now: float,
        queue: EventQueue,
        replica: int | None,
        reason: str,
    ) -> None:
        self.num_rejections += 1
        ranks = self._reject_ranks
        rank = ranks.setdefault(request.request_id, len(ranks))
        # Stateless seeded jitter keyed by (rank, attempt): concurrent
        # rejects de-synchronize without consuming shared RNG state,
        # which would couple determinism to reject order.
        draw = random.Random(f"{rank}:{attempt}").random()
        retry_at = now + (
            RETRY_BACKOFF * RETRY_BACKOFF_FACTOR**attempt * (1.0 + RETRY_JITTER * draw)
        )
        if attempt >= MAX_RETRIES:
            self.events.add(
                time=now,
                kind="reject",
                request_id=request.request_id,
                replica=replica,
                attempt=attempt,
                reason=reason,
            )
            self._shed(request, attempt, now, replica, "retries_exhausted")
            return
        self.events.add(
            time=now,
            kind="reject",
            request_id=request.request_id,
            replica=replica,
            attempt=attempt,
            reason=reason,
            retry_at=retry_at,
        )
        queue.push(retry_at, _ARRIVE, (request, attempt + 1))

    def _shed(
        self,
        request: Request,
        attempt: int,
        now: float,
        replica: int | None,
        reason: str,
    ) -> None:
        self.shed.append(request)
        self.events.add(
            time=now,
            kind="shed",
            request_id=request.request_id,
            replica=replica,
            attempt=attempt,
            reason=reason,
        )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def simulate_fleet(
    deployment: "Deployment",
    config: "ServingConfig",
    requests: list[Request],
    fleet: FleetConfig | None = None,
    *,
    router: FleetRouter | Router | None = None,
    exec_model: "ExecutionModel | None" = None,
) -> tuple[FleetResult, RunMetrics]:
    """Run a trace through an online fleet and summarize it.

    The unified entry point: ``repro.api.simulate`` is the 1-replica
    special case.  The input trace is cloned, so it can be replayed across
    fleet sizes, routers and fault schedules.  ``exec_model`` (see
    ``repro.api.execution_model_for``) shares one — typically cached —
    execution model across the whole fleet and across calls.
    """
    simulator = FleetSimulator(
        deployment,
        config,
        fleet if fleet is not None else FleetConfig(),
        router=router,
        exec_model=exec_model,
    )
    result = simulator.run(requests)
    # Free the engines, their request arrays and pricing memos before
    # summarizing: the result holds everything summarize reads.
    del simulator
    return result, summarize(result.merged())
