"""The replica serving engine: scheduler + execution model + pipeline.

``VectorizedReplicaEngine`` simulates one model replica end to end.
The first pipeline stage doubles as the scheduling point: whenever it
is free (and the in-flight micro-batch cap allows), the scheduler
forms the next batch, which then flows through the stages, paying
per-stage execution time plus inter-stage activation transfers.  Token
progress is committed when a batch leaves the *last* stage, exactly
like a real iteration-level serving system (§2.5, §3.3).

Per-request state lives in numpy struct-of-arrays
(:mod:`repro.engine.arrays`), and a whole iteration's token progress
commits with a handful of vector operations.  Four observations keep
this cheap without a per-token event heap:

* There is one event merge, ``_next_internal``: the single pending
  batch-completion (one pipeline stage keeps at most one batch in
  flight), a tiny heap of follow-up arrivals and, for multi-stage
  pipelines, a small heap of stage-done/stage-enqueue events, ordered
  by ``(time, insertion seq)``.  Pipeline bubbles (a stage idle
  waiting on its upstream send) fall out of that order rather than a
  separate bubble model.  Arrivals come from outside the merge
  (``deliver``); ``run`` is a loop that feeds a trace's arrivals in
  time order, each before any internal event due at the same time,
  and ``step``s otherwise — the loop the fleet runs over many engines.
* Iteration pricing calls the execution model's component prices
  (linear by token counts, decode attention over the batch's context
  array, prefill attention per chunk, token-count terms) and assembles
  them in the order :meth:`ExecutionModel.stage_iteration_time` uses,
  so every float matches the unmemoized model.  The memo is the
  model's (:class:`repro.perf.cache.CachedExecutionModel`), shared by
  every engine of a sweep task.
* Token emission timestamps need not be appended per request in the
  hot loop: the engine logs ``(time, rows)`` per iteration into a
  packed :class:`repro.engine.arrays.EmissionLog`, and each
  synchronization point (end of run, fleet crash or drain) folds only
  the entries logged since the previous one into the packed float64
  ``token_times`` arrays, in bounded stable-sorted chunks appended as
  raw bytes (no Python float per token), detaching the log first.  A
  commit that fills the log to ``RequestArrays._SYNC_CHUNK`` (16,384)
  rows folds it at once, so the log never holds more than one chunk,
  and a fold's temporaries (about five chunk-sized arrays, ~0.5 MB)
  stay below a run's outputs.  A commit that finishes a request of a
  run with a ``followup_fn`` folds the log before the handoff, so the
  callback sees final token times.
* Each executed (stage, batch) pair is 13 numbers appended to an
  :class:`repro.metrics.timeline.IterationLog`: pricing hands back the
  five breakdown terms without building an ``IterationTime``, and
  ``IterationRecord`` objects exist only while a caller iterates
  ``records``.

The frozen digests under ``tests/differential`` pin its outputs bit
for bit.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.engine.arrays import PH_FINISHED, EmissionLog, RequestArrays
from repro.engine.replica import EngineStats, FollowupFn, SimulationResult
from repro.metrics.timeline import IterationLog
from repro.perf.iteration import ExecutionModel
from repro.scheduling.vectorized import VecBatch, VecScheduler
from repro.types import Request

__all__ = ["VectorizedReplicaEngine"]


class VectorizedReplicaEngine:
    """Discrete-event simulation of one replica over flat arrays.

    Serves single-stage and pipeline-parallel deployments.
    Construction is normally via :func:`repro.api.build_engine`.
    """

    # Effective host<->device copy bandwidth for KV swap traffic
    # (PCIe-4.0 x16 class, overlap-corrected).
    DEFAULT_SWAP_BANDWIDTH = 20e9

    def __init__(self, exec_model: ExecutionModel, scheduler: VecScheduler) -> None:
        self.exec_model = exec_model
        self.scheduler = scheduler
        self.arrays: RequestArrays = scheduler.A
        # A pipeline keeps at most one batch in flight per stage.
        self.num_stages = exec_model.parallel.pipeline_parallel
        # TBT sink with a ``push(samples)`` method (the fleet's
        # ``TbtWindow``); None when nothing reads the samples.  The
        # engine never holds a reference to its owner.
        self.tbt_window = None
        self._followup_fn: FollowupFn | None = None

        # Event state: at most one batch in flight plus follow-up
        # arrivals; ``_seq`` is the insertion counter that breaks
        # (time, seq) ties.  Pipelines (num_stages > 1) leave ``_busy``
        # unused and track per-stage execution through ``_pipe_heap``
        # instead.
        self._busy: tuple[float, int, VecBatch] | None = None
        self._followup_heap: list[tuple[float, int, int]] = []
        self._pipe_heap: list[tuple[float, int, int, int, VecBatch]] = []
        self._stage_busy = [False] * self.num_stages
        self._stage_queue: list[list[VecBatch]] = [
            [] for _ in range(self.num_stages)
        ]
        self._inflight = 0
        self._seq = 0
        self._num_events = 0
        # Multiplier on every iteration's wall time — 1.0 is nominal;
        # the fleet raises it to model straggler/throttled replicas.
        # Applied after pricing so the model's memos stay unscaled.
        self.perf_scale = 1.0
        # Pipelined batches keep requests claimed across several stage
        # iterations; the scheduler must exclude them from re-batching.
        scheduler.track_in_flight = self.num_stages > 1

        # Emissions logged since the last sync, packed (see EmissionLog).
        self._emit_log = EmissionLog()
        # One packed row per executed (stage, batch) pair.
        self._log = IterationLog()

        self._overhead = exec_model._fixed_overhead(True)
        self._overhead_rest = exec_model._fixed_overhead(False)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        requests: list[Request],
        followup_fn: "FollowupFn | None" = None,
    ) -> SimulationResult:
        """Simulate until every request (and follow-up) finishes.

        A loop over the stepped interface: the next arrival is taken
        when it is due no later than the next internal event (arrivals
        win ties), otherwise the engine steps.  Rows keep input order.
        """
        if not requests:
            raise ValueError("run() needs at least one request")
        self._followup_fn = followup_fn
        A = self.arrays
        first = A.n
        for request in requests:
            self._ingest(request)
        # Arrivals in time order, stably: input order breaks ties.
        rows = np.argsort(A.arrival_time[first : A.n], kind="stable") + first
        arrivals = deque(zip(A.arrival_time[rows].tolist(), rows.tolist()))
        now = 0.0
        while True:
            internal = self.next_event_time()
            if arrivals and (internal is None or arrivals[0][0] <= internal):
                now, row = arrivals.popleft()
                self._arrive(row, now)
            elif internal is not None:
                now = self.step()
            else:
                break
        result = self.result(makespan=now)
        if result.unfinished:
            raise RuntimeError(
                f"simulation drained its event queue with {len(result.unfinished)} "
                "unfinished requests — scheduler/memory deadlock "
                f"(first stuck: request {result.unfinished[0].request_id})"
            )
        return result

    # ------------------------------------------------------------------
    # Stepped interface (used by ``run`` and the fleet simulator)
    # ------------------------------------------------------------------
    def deliver(self, request: Request, now: float) -> None:
        """Inject an arriving request at time ``now``."""
        self._arrive(self._ingest(request), now)

    def _ingest(self, request: Request) -> int:
        row = self.arrays.ingest(request)
        self.scheduler.note_ingested(row)
        return row

    def _arrive(self, row: int, now: float) -> None:
        self.scheduler.add_row(row, now)
        self._try_schedule(now)

    def kick(self, now: float) -> None:
        """Re-attempt scheduling after an external state change.

        A replica can stall with waiting work but no internal events
        when admission is blocked (e.g. a capacity_loss fault shrank
        the KV pool); restoring the blocker must nudge the scheduler —
        arrivals are the only other trigger.
        """
        self._try_schedule(now)

    def next_event_time(self) -> float | None:
        """Timestamp of the next internal event, or ``None`` if idle."""
        candidate = self._next_internal()
        return None if candidate is None else candidate[0]

    def step(self) -> float:
        """Pop and process exactly one internal event; returns its time."""
        candidate = self._next_internal()
        if candidate is None:
            raise IndexError("step() on an idle engine")
        now, _, source = candidate
        self._num_events += 1
        if source == 2:
            _, _, row = heapq.heappop(self._followup_heap)
            self._arrive(row, now)
        elif source == 3:
            batch = self._busy[2]
            self._busy = None
            self._on_batch_done(batch, now)
        else:
            _, _, kind, stage_idx, batch = heapq.heappop(self._pipe_heap)
            if kind == 0:
                self._on_stage_done(stage_idx, batch, now)
            else:
                self._on_stage_enqueue(stage_idx, batch, now)
        return now

    def _next_internal(self) -> tuple[float, int, int] | None:
        best: tuple[float, int, int] | None = None
        if self._followup_heap:
            f_t, f_s, _ = self._followup_heap[0]
            best = (f_t, f_s, 2)
        if self._busy is not None:
            b_t, b_s, _ = self._busy
            if best is None or (b_t, b_s) < best[:2]:
                best = (b_t, b_s, 3)
        if self._pipe_heap:
            p_t, p_s = self._pipe_heap[0][0], self._pipe_heap[0][1]
            if best is None or (p_t, p_s) < best[:2]:
                best = (p_t, p_s, 4)
        return best

    def pending_requests(self) -> list[Request]:
        """Delivered requests that have not finished (any phase)."""
        self._sync_all()
        A = self.arrays
        rows = np.nonzero(A.phase[: A.n] != PH_FINISHED)[0].tolist()
        return [A.requests[row] for row in rows]

    def num_pending(self) -> int:
        """Number of delivered-but-unfinished requests (O(1))."""
        return self.scheduler.num_pending

    def outstanding_tokens(self) -> int:
        """Prefill+decode tokens still owed across pending requests (O(1))."""
        return self.scheduler.outstanding_tokens

    @property
    def records(self) -> IterationLog:
        return self._log

    @property
    def all_requests(self) -> list[Request]:
        self._sync_all()
        return self.arrays.requests

    def engine_stats(self) -> EngineStats:
        """Counters so far — valid mid-run (the fleet polls these)."""
        return EngineStats(
            num_events=self._num_events,
            num_batches=self.scheduler.num_scheduled_batches,
        )

    def result(self, makespan: float) -> SimulationResult:
        """Snapshot of this engine's state as a ``SimulationResult``."""
        self._sync_all()
        A = self.arrays
        unfinished_rows = np.nonzero(A.phase[: A.n] != PH_FINISHED)[0].tolist()
        return SimulationResult(
            requests=list(A.requests),
            records=self.records,
            makespan=makespan,
            num_stages=self.num_stages,
            num_preemptions=self.scheduler.num_preemptions,
            unfinished=[A.requests[row] for row in unfinished_rows],
            cache_stats=getattr(self.exec_model, "cache_stats", None),
            engine_stats=self.engine_stats(),
            prefix_stats=getattr(self.scheduler.memory, "prefix_stats", None),
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _try_schedule(self, now: float) -> None:
        if self.num_stages == 1:
            if self._busy is not None:
                return
            batch = self.scheduler.schedule(now)
            if batch is None:
                return
            end = self._run_iteration(0, batch, now)
            seq = self._seq
            self._seq = seq + 1
            self._busy = (end, seq, batch)
            return
        while not self._stage_busy[0] and self._inflight < self.num_stages:
            batch = self.scheduler.schedule(now)
            if batch is None:
                return
            self._inflight += 1
            self._start_stage(0, batch, now)

    def _run_iteration(self, stage_idx: int, batch: VecBatch, now: float) -> float:
        """Price ``batch`` on one stage from ``now``, record it, return its end."""
        linear, attention, others, communication, overhead = self._price(
            batch, stage_idx == 0, stage_idx == self.num_stages - 1
        )
        if stage_idx == 0 and batch.swap_bytes:
            communication += batch.swap_bytes / self.DEFAULT_SWAP_BANDWIDTH
        scale = self.perf_scale
        if scale != 1.0:
            linear *= scale
            attention *= scale
            others *= scale
            communication *= scale
            overhead *= scale
        # IterationTime.total's summation order.
        end = now + (linear + attention + others + communication + overhead)
        self._log.append(
            stage_idx,
            now,
            end,
            batch.batch_id,
            batch.num_prefill_tokens,
            batch.num_decode_tokens,
            batch.num_prefill_seqs,
            batch.num_decode_seqs,
            linear,
            attention,
            others,
            communication,
            overhead,
        )
        return end

    # ------------------------------------------------------------------
    # Pipeline stage machinery (num_stages > 1 only)
    # ------------------------------------------------------------------
    def _start_stage(self, stage_idx: int, batch: VecBatch, now: float) -> None:
        self._stage_busy[stage_idx] = True
        end = self._run_iteration(stage_idx, batch, now)
        heapq.heappush(self._pipe_heap, (end, self._seq, 0, stage_idx, batch))
        self._seq += 1

    def _on_stage_done(self, stage_idx: int, batch: VecBatch, now: float) -> None:
        self._stage_busy[stage_idx] = False
        if stage_idx < self.num_stages - 1:
            send = self.exec_model.send_time(batch.num_tokens)
            heapq.heappush(
                self._pipe_heap, (now + send, self._seq, 1, stage_idx + 1, batch)
            )
            self._seq += 1
        else:
            self._inflight -= 1
            self._commit_batch(batch, now)
        queue = self._stage_queue[stage_idx]
        if queue:
            self._start_stage(stage_idx, queue.pop(0), now)
        self._try_schedule(now)

    def _on_stage_enqueue(
        self, stage_idx: int, batch: VecBatch, now: float
    ) -> None:
        if self._stage_busy[stage_idx]:
            self._stage_queue[stage_idx].append(batch)
        else:
            self._start_stage(stage_idx, batch, now)

    def _on_batch_done(self, batch: VecBatch, now: float) -> None:
        self._commit_batch(batch, now)
        self._try_schedule(now)

    def _commit_batch(self, batch: VecBatch, now: float) -> None:
        A = self.arrays
        finished, prefill_emits = self.scheduler.on_batch_complete(batch, now)
        decode_rows = batch.decode_rows
        log = self._emit_log
        if len(decode_rows):
            log.append(now, decode_rows)
        if prefill_emits:
            log.append(now, prefill_emits)
        if len(log.rows) >= A._SYNC_CHUNK or (finished and self._followup_fn):
            # Fold a full chunk now, so the log never outgrows one, and
            # before a handoff, so follow-ups see final token times.
            A.fold_emissions(log)
        if self.tbt_window is not None and len(decode_rows):
            # Prefill-completion emissions are always a request's first
            # token (no predecessor), so only decode rows with ≥ 2
            # emitted tokens produce TBT samples, in batch item order.
            sampled = decode_rows[A.num_emitted[decode_rows] >= 2]
            if len(sampled):
                self.tbt_window.push(now - A.prev_emit[sampled])
        if self._followup_fn is not None:
            for row in finished:
                A.sync_row(row)
                for followup in self._followup_fn(A.requests[row], now):
                    if followup.arrival_time < now - 1e-9:
                        raise ValueError(
                            "followup_fn returned a request arriving in "
                            f"the past ({followup.arrival_time} < {now})"
                        )
                    heapq.heappush(
                        self._followup_heap,
                        (followup.arrival_time, self._seq, self._ingest(followup)),
                    )
                    self._seq += 1

    # ------------------------------------------------------------------
    # Pricing (component prices, assembled like the model)
    # ------------------------------------------------------------------
    def _price(
        self, batch: VecBatch, is_first: bool = True, is_last: bool = True
    ) -> tuple[float, float, float, float, float]:
        """The five ``IterationTime`` terms of ``batch`` on one stage."""
        model = self.exec_model
        num_tokens = batch.num_tokens
        linear = model.linear_time(
            num_tokens, batch.num_logit_tokens if is_last else 0
        )
        values = model.decode_attention_times(batch.decode_ctx)
        attention_time = model.attention_time
        for chunk, past in zip(batch.p_chunk, batch.p_past):
            values.append(attention_time(chunk, past, True))
        # Builtin sum over the batch-ordered list is the execution
        # model's left-to-right float accumulation exactly.
        attention = sum(batch.in_order(values))
        others, communication = model.token_terms(num_tokens)
        return (
            linear,
            attention,
            others,
            communication,
            self._overhead if is_first else self._overhead_rest,
        )

    # ------------------------------------------------------------------
    # Request synchronization
    # ------------------------------------------------------------------
    def _sync_all(self) -> None:
        self.arrays.sync_out(self._emit_log)
