"""Memoized execution model: exact-key caching of iteration pricing.

Capacity searches, SLO sweeps and the Table-4 ablations evaluate
thousands of near-identical batch compositions per run, and the
analytical roofline model re-derives every one of them from scratch.
``CachedExecutionModel`` wraps an :class:`ExecutionModel` with two
memoization tiers, both keyed on values that fully determine the
result (the wrapped model's constants are immutable per run, so
entries never need invalidating):

* **batch tier** — the canonical batch signature (every work's token
  count, KV-context length, phase and ``emits_token`` flag, plus the
  first/last-stage flags) maps straight to the finished
  :class:`IterationTime`;
* **component tier** — on a batch-tier miss, the per-work attention
  time, the linear time (a function of total/logit token counts only)
  and the "others"/TP-communication times (functions of the total
  token count only) are memoized individually.  Real workloads repeat
  component keys far more often than whole batch compositions (decode
  contexts recur across requests and probes), so even cold batches are
  mostly assembled from warm parts.

Results are **bit-identical** to the uncached model: cache hits replay
previously computed floats, and misses recompute each component with
the same calls in the same summation order the uncached path uses.

Both tiers are FIFO-bounded so long multitenant runs cannot grow the
cache without limit; hit/miss/eviction counters are exposed as
:class:`CacheStats` and surfaced through ``repro.telemetry``.

A model lives exactly as long as one sweep task — a capacity cell's
probes, one fleet or resilience point, one leaderboard cell — which
builds it with :func:`repro.api.execution_model_for`.  Nothing is kept
across tasks, across processes or on disk: the engine and the dynamic
scheduler price from their own per-run memo tables, so this wrapper
sees few lookups and a longer-lived copy would buy nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.parallel.comm import pp_send_time, tp_comm_time
from repro.perf.iteration import ExecutionModel
from repro.types import IterationTime, TokenWork, ZERO_TIME

# Roomy enough that a full capacity search never evicts (a smoke sweep
# produces ~30k distinct batch signatures), small enough that a day-long
# multitenant run stays bounded.
DEFAULT_MAX_ENTRIES = 1 << 17

BatchSignature = tuple[bool, bool, tuple[tuple[int, int, bool, bool], ...]]


def batch_signature(
    works: Sequence[TokenWork],
    is_first_stage: bool = True,
    is_last_stage: bool = True,
) -> BatchSignature:
    """The canonical, order-preserving key of one stage iteration.

    Work order is part of the key: the uncached model sums per-work
    attention times in batch order, and float addition is not
    associative, so collapsing permuted batches onto one entry could
    break bit-identity.
    """
    return (
        is_first_stage,
        is_last_stage,
        tuple((w.num_tokens, w.past_len, w.is_prefill, w.emits_token) for w in works),
    )


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`CachedExecutionModel`.

    ``hits``/``misses``/``evictions``/``size`` describe the batch tier;
    ``work_hits``/``work_misses`` describe the per-work attention tier,
    where most of the wall-clock savings come from, and
    ``component_evictions`` counts evictions from *any* component tier
    (work/linear/token/send) — kept separate so batch-tier telemetry
    stays truthful.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_entries: int = DEFAULT_MAX_ENTRIES
    work_hits: int = 0
    work_misses: int = 0
    component_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def work_hit_rate(self) -> float:
        total = self.work_hits + self.work_misses
        return self.work_hits / total if total else 0.0

    def as_row(self) -> dict[str, int | float]:
        """Flat counters for telemetry tables (see ``run_counters``)."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_component_evictions": self.component_evictions,
            "cache_size": self.size,
            "cache_hit_rate": self.hit_rate,
            "cache_work_hits": self.work_hits,
            "cache_work_misses": self.work_misses,
            "cache_work_hit_rate": self.work_hit_rate,
        }


class CachedExecutionModel(ExecutionModel):
    """Drop-in :class:`ExecutionModel` with exact-key memoization.

    Construct it around an existing model::

        cached = CachedExecutionModel(deployment.execution_model())

    Everything the base class offers (derived helpers, the attributes
    engines and schedulers read) keeps working and routes through the
    cache.  One instance may be shared across every simulation of a
    capacity search — the model's inputs are immutable per run, so
    warm entries stay valid across probes and counters accumulate over
    the model's lifetime.
    """

    def __init__(
        self, inner: ExecutionModel, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        super().__init__(inner.model, inner.gpu, inner.parallel, inner.calibration)
        self.max_entries = max_entries
        self._batch_cache: dict[BatchSignature, IterationTime] = {}
        self._work_cache: dict[tuple[int, int, bool], float] = {}
        self._linear_cache: dict[tuple[int, int], float] = {}
        # num_tokens -> (others_time, tp_comm_time) and -> pp send time.
        self._token_cache: dict[int, tuple[float, float]] = {}
        self._send_cache: dict[int, float] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._component_evictions = 0
        self._work_hits = 0
        self._work_misses = 0

    # ------------------------------------------------------------------
    # Cached core interface
    # ------------------------------------------------------------------
    def stage_iteration_time(
        self,
        works: Sequence[TokenWork],
        is_first_stage: bool = True,
        is_last_stage: bool = True,
    ) -> IterationTime:
        if not works:
            return ZERO_TIME
        key = batch_signature(works, is_first_stage, is_last_stage)
        cached = self._batch_cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        result = self._assemble(works, is_first_stage, is_last_stage)
        batch_cache = self._batch_cache
        if len(batch_cache) >= self.max_entries:
            # FIFO eviction: dicts iterate in insertion order, so the
            # oldest signature goes first.  O(1), no per-hit bookkeeping.
            batch_cache.pop(next(iter(batch_cache)))
            self._evictions += 1
        batch_cache[key] = result
        return result

    def pipeline_send_time(self, works: Sequence[TokenWork]) -> float:
        num_tokens = sum(w.num_tokens for w in works)
        send = self._send_cache.get(num_tokens)
        if send is None:
            send = pp_send_time(self.model, self.parallel, num_tokens)
            self._bounded_put(self._send_cache, num_tokens, send)
        return send

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        """An immutable snapshot of the cumulative counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._batch_cache),
            max_entries=self.max_entries,
            work_hits=self._work_hits,
            work_misses=self._work_misses,
            component_evictions=self._component_evictions,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _assemble(
        self, works: Sequence[TokenWork], is_first_stage: bool, is_last_stage: bool
    ) -> IterationTime:
        """Recompute one iteration from (mostly warm) component parts.

        Mirrors ``ExecutionModel.stage_iteration_time`` call for call;
        every component value is exactly the float the uncached path
        would produce, summed in the same order.
        """
        num_tokens = sum(w.num_tokens for w in works)
        num_logit_tokens = sum(1 for w in works if w.emits_token)

        linear_key = (num_tokens, num_logit_tokens if is_last_stage else 0)
        linear = self._linear_cache.get(linear_key)
        if linear is None:
            linear = self.linear.stage_time(*linear_key)
            self._bounded_put(self._linear_cache, linear_key, linear)

        work_cache = self._work_cache
        attention = 0
        for w in works:
            work_key = (w.num_tokens, w.past_len, w.is_prefill)
            work_time = work_cache.get(work_key)
            if work_time is None:
                self._work_misses += 1
                work_time = self.attention.work_time(w)
                self._bounded_put(work_cache, work_key, work_time)
            else:
                self._work_hits += 1
            attention = attention + work_time

        token_costs = self._token_cache.get(num_tokens)
        if token_costs is None:
            token_costs = (
                self._others_time(num_tokens),
                tp_comm_time(self.model, self.parallel, num_tokens, self.stage_layers),
            )
            self._bounded_put(self._token_cache, num_tokens, token_costs)
        others, comm = token_costs

        overhead = self._fixed_overhead(is_first_stage)
        return IterationTime(linear, attention, others, comm, overhead)

    def _bounded_put(self, cache: dict, key, value) -> None:
        # Component tiers only — the batch tier has its own inline FIFO
        # and its own eviction counter in ``stage_iteration_time``.
        if len(cache) >= self.max_entries:
            cache.pop(next(iter(cache)))
            self._component_evictions += 1
        cache[key] = value
