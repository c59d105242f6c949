"""What a replica simulation produces, and the engine's callback type.

The engine itself is :class:`repro.engine.vectorized.VectorizedReplicaEngine`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.metrics.timeline import IterationLog, IterationRecord
from repro.types import Request

if TYPE_CHECKING:
    from repro.memory.prefix import PrefixCacheStats
    from repro.perf.cache import CacheStats

# Called once per finished request; returns follow-up requests to
# inject (e.g. the next round of a conversation).
FollowupFn = Callable[[Request, float], list[Request]]


@dataclass(frozen=True)
class EngineStats:
    """How the engine itself performed (not the simulated system)."""

    num_events: int
    num_batches: int


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    requests: list[Request]
    # Packed per-iteration records; a plain list of IterationRecords
    # also works (analyses turn it into a log at entry).
    records: "IterationLog | list[IterationRecord]"
    makespan: float
    num_stages: int
    num_preemptions: int = 0
    unfinished: list[Request] = field(default_factory=list)
    # Snapshot of the execution-model cache counters at the end of the
    # run (None when the engine ran on an uncached model).  A model
    # shared across runs (e.g. one capacity search) accumulates, so
    # per-run deltas require differencing consecutive snapshots.
    cache_stats: "CacheStats | None" = None
    # Filled by every engine and fleet result (a fleet replica's and the
    # merged view's counters sum all incarnations); None only for
    # results built by hand.  Left out of the golden digests alongside
    # cache_stats — it describes the engine, not the simulated system.
    engine_stats: "EngineStats | None" = None
    # Prefix-cache counters from the scheduler's memory manager (None
    # when prefix caching is off or the allocator is reservation-style).
    prefix_stats: "PrefixCacheStats | None" = None
    # A fleet's merged view keeps each replica's log here (``records``
    # chains them).  Replicas run concurrently, so per-stage timeline
    # metrics are computed per log, never over the interleaved chain.
    replica_logs: "tuple[IterationLog, ...]" = ()

    @property
    def finished_requests(self) -> list[Request]:
        return [r for r in self.requests if r.is_finished]
