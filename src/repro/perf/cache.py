"""Memoized execution model: exact-key caching of component prices.

Capacity searches, SLO sweeps and the Table-4 ablations price
thousands of near-identical hybrid batches per run, and the analytical
roofline model re-derives every one of them from scratch.
``CachedExecutionModel`` memoizes the component prices of
:class:`ExecutionModel` — linear time by ``(tokens, logit tokens)``,
other attention by ``(tokens, past, is_prefill)``, decode attention by
context length, the token-count terms and the pipeline send — keyed on
values that fully determine each result (the model's constants are
immutable, so entries never need invalidating).  Whole batches are not
memoized: the engine and the dynamic scheduler assemble every batch
from these components in :meth:`ExecutionModel.stage_iteration_time`'s
operation order, and real workloads repeat component keys far more
often than whole batch compositions.

Results are **bit-identical** to the unmemoized model: a hit replays
the float a miss computed with the base-class method.

Decode attention lives in a NaN-filled numpy table indexed by context
length that doubles when a longer context arrives, so a batch's whole
decode block is one gather; a decode work priced on its own through
``attention_time`` (``stage_iteration_time``'s path) reads and fills
the same table, so every decode context is priced once, whichever
path asks first.  The dict memos are FIFO-bounded at
``MAX_ENTRIES`` each so long multitenant runs cannot grow them without
limit; the table is bounded by the longest context.  Hit/miss/eviction
counters are exposed as :class:`CacheStats` and surfaced through
``repro.telemetry``.

A model lives exactly as long as one sweep task — a capacity cell's
probes, one fleet or resilience point, one leaderboard cell — which
builds it with :func:`repro.api.execution_model_for`, so every probe of
a cell and every replica of a fleet prices from one warm table.
Nothing is kept across tasks, across processes or on disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig
from repro.perf.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perf.iteration import ExecutionModel

# Entries per dict memo.  Roomy enough that a full capacity search
# never evicts (its busiest cell holds ~11k attention keys), small
# enough that a day-long multitenant run stays bounded.
MAX_ENTRIES = 1 << 17


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`CachedExecutionModel`.

    ``hits``/``misses`` count the per-batch lookups (linear time,
    token-count terms, pipeline sends); ``work_hits``/``work_misses``
    count the per-work attention lookups, prefill and decode.
    ``evictions`` counts FIFO evictions from any dict memo and ``size``
    the values held.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    work_hits: int = 0
    work_misses: int = 0

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
            "cache_size": self.size,
            "cache_hit_rate": self.hit_rate,
            "cache_work_hits": self.work_hits,
            "cache_work_misses": self.work_misses,
            "cache_work_hit_rate": self.work_hit_rate,
        }


class CachedExecutionModel(ExecutionModel):
    """Drop-in :class:`ExecutionModel` with exact-key component memos.

    Built like the base class, normally through
    :func:`repro.api.execution_model_for`.  One instance may be shared
    across every simulation of a sweep task — warm entries stay valid
    across probes and replicas, and counters accumulate over the
    model's lifetime.
    """

    def __init__(
        self,
        model: ModelConfig,
        gpu: GPUSpec,
        parallel: ParallelConfig | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        super().__init__(model, gpu, parallel, calibration)
        self._linear_cache: dict[tuple[int, int], float] = {}
        self._attention_cache: dict[tuple[int, int, bool], float] = {}
        self._token_cache: dict[int, tuple[float, float]] = {}
        self._send_cache: dict[int, float] = {}
        self._decode_table = np.full(1024, np.nan)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._work_hits = 0
        self._work_misses = 0

    # ------------------------------------------------------------------
    # Memoized component prices
    # ------------------------------------------------------------------
    def linear_time(self, num_tokens: int, num_logit_tokens: int) -> float:
        key = (num_tokens, num_logit_tokens)
        value = self._linear_cache.get(key)
        if value is None:
            self._misses += 1
            value = super().linear_time(num_tokens, num_logit_tokens)
            self._put(self._linear_cache, key, value)
        else:
            self._hits += 1
        return value

    def attention_time(self, num_tokens: int, past_len: int, is_prefill: bool) -> float:
        if num_tokens == 1 and not is_prefill:
            # A decode work: one store, the context-indexed table.
            return self.decode_attention_times(np.array([past_len]))[0]
        key = (num_tokens, past_len, is_prefill)
        value = self._attention_cache.get(key)
        if value is None:
            self._work_misses += 1
            value = super().attention_time(num_tokens, past_len, is_prefill)
            self._put(self._attention_cache, key, value)
        else:
            self._work_hits += 1
        return value

    def decode_attention_times(self, ctx: np.ndarray) -> list[float]:
        if not len(ctx):
            return []
        table = self._decode_table
        max_ctx = int(ctx.max())
        if max_ctx >= table.size:
            grown = np.full(max(table.size * 2, max_ctx + 1), np.nan)
            grown[: table.size] = table
            self._decode_table = table = grown
        values = table[ctx]
        missing = np.isnan(values)
        computed = 0
        if missing.any():
            # np.unique, without the numpy.ma import it costs on first use.
            fresh = ctx[missing]
            fresh.sort()
            fresh = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
            table[fresh] = super().decode_attention_times(fresh)
            computed = len(fresh)
            self._work_misses += computed
            values = table[ctx]
        self._work_hits += len(ctx) - computed
        return values.tolist()

    def token_terms(self, num_tokens: int) -> tuple[float, float]:
        value = self._token_cache.get(num_tokens)
        if value is None:
            self._misses += 1
            value = super().token_terms(num_tokens)
            self._put(self._token_cache, num_tokens, value)
        else:
            self._hits += 1
        return value

    def send_time(self, num_tokens: int) -> float:
        value = self._send_cache.get(num_tokens)
        if value is None:
            self._misses += 1
            value = super().send_time(num_tokens)
            self._put(self._send_cache, num_tokens, value)
        else:
            self._hits += 1
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        """An immutable snapshot of the cumulative counters."""
        memos = (
            self._linear_cache,
            self._attention_cache,
            self._token_cache,
            self._send_cache,
        )
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=sum(map(len, memos))
            + int(np.count_nonzero(~np.isnan(self._decode_table))),
            work_hits=self._work_hits,
            work_misses=self._work_misses,
        )

    def _put(self, cache: dict, key, value) -> None:
        if len(cache) >= MAX_ENTRIES:
            # FIFO eviction: dicts iterate in insertion order, so the
            # oldest key goes first.  O(1), no per-hit bookkeeping.
            cache.pop(next(iter(cache)))
            self._evictions += 1
        cache[key] = value
