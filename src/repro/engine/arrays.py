"""Struct-of-arrays mirror of per-request serving state.

The replica engine keeps every mutable :class:`repro.types.Request`
field in flat numpy arrays, indexed by a dense per-engine *row* id.
The original ``Request`` objects are retained untouched during the hot
loop and synchronized back (``sync_out``) only at observation points —
end of run, fleet snapshots of pending work, crash failover, a
plug-in policy's pool view — so callers see ordinary ``Request``
objects while the engine iterates over arrays.

Token emission timestamps are not appended per token; the engine logs
``(time, rows)`` pairs per iteration and :meth:`materialize_token_times`
reconstructs every per-request ``token_times`` list in one stable sort
at sync time.
"""

from __future__ import annotations

import math

import numpy as np

from repro.types import Request, RequestPhase

# Phase codes (order matches nothing external; mapped explicitly).
PH_QUEUED = 0
PH_PREFILL = 1
PH_DECODE = 2
PH_FINISHED = 3
PH_PREEMPTED = 4

_PHASE_TO_CODE = {
    RequestPhase.QUEUED: PH_QUEUED,
    RequestPhase.PREFILL: PH_PREFILL,
    RequestPhase.DECODE: PH_DECODE,
    RequestPhase.FINISHED: PH_FINISHED,
    RequestPhase.PREEMPTED: PH_PREEMPTED,
}
_CODE_TO_PHASE = [
    RequestPhase.QUEUED,
    RequestPhase.PREFILL,
    RequestPhase.DECODE,
    RequestPhase.FINISHED,
    RequestPhase.PREEMPTED,
]

_INT_FIELDS = (
    "prompt_len",
    "output_len",
    "prefill_target",
    "prefill_done",
    "decode_steps",
    "num_emitted",
    "num_restarts",
    "phase",
    # Prefix-cache identity (immutable; -1 encodes None for the id and
    # the publish cap).
    "prefix_id",
    "prefix_len",
    "prefix_publish_len",
)
_FLOAT_FIELDS = (
    "arrival_time",
    "first_scheduled_at",
    "first_token_at",
    "finished_at",
    # Timestamps of the last two token emissions (``token_times[-1]``
    # and ``[-2]``), read by the per-token observer callback.
    "last_emit",
    "prev_emit",
)


class RequestArrays:
    """Flat per-request state; rows are assigned in delivery order."""

    _INITIAL_CAPACITY = 1024

    def __init__(self) -> None:
        self.n = 0
        self._capacity = 0
        self.requests: list[Request] = []
        # Rows whose Request arrived with a non-empty token_times list
        # (fleet failover re-delivery): the pre-existing timestamps are
        # re-used verbatim when token_times is rebuilt at sync time.
        self.token_base: dict[int, list[float]] = {}
        for name in _INT_FIELDS + _FLOAT_FIELDS:
            setattr(self, name, np.empty(0))
        self._grow(self._INITIAL_CAPACITY)

    # -- storage -------------------------------------------------------
    def _grow(self, min_capacity: int) -> None:
        new_cap = max(self._capacity * 2, self._INITIAL_CAPACITY)
        while new_cap < min_capacity:
            new_cap *= 2
        for name in _INT_FIELDS:
            old = getattr(self, name)
            arr = np.zeros(new_cap, dtype=np.int64)
            arr[: self.n] = old[: self.n]
            setattr(self, name, arr)
        for name in _FLOAT_FIELDS:
            old = getattr(self, name)
            arr = np.full(new_cap, np.nan)
            arr[: self.n] = old[: self.n]
            setattr(self, name, arr)
        self._capacity = new_cap

    # -- ingest --------------------------------------------------------
    def ingest(self, request: Request) -> int:
        """Mirror one Request into a fresh row; returns the row index."""
        row = self.n
        if row >= self._capacity:
            self._grow(row + 1)
        self.n = row + 1
        self.requests.append(request)
        self.prompt_len[row] = request.prompt_len
        self.output_len[row] = request.output_len
        self.prefill_target[row] = request.prefill_target
        self.prefill_done[row] = request.prefill_done
        self.decode_steps[row] = request.decode_steps
        self.num_emitted[row] = request.num_emitted
        self.num_restarts[row] = request.num_restarts
        self.phase[row] = _PHASE_TO_CODE[request.phase]
        self.prefix_id[row] = -1 if request.prefix_id is None else request.prefix_id
        self.prefix_len[row] = request.prefix_len
        self.prefix_publish_len[row] = (
            -1 if request.prefix_publish_len is None else request.prefix_publish_len
        )
        self.arrival_time[row] = request.arrival_time
        self.first_scheduled_at[row] = _none_to_nan(request.first_scheduled_at)
        self.first_token_at[row] = _none_to_nan(request.first_token_at)
        self.finished_at[row] = _none_to_nan(request.finished_at)
        times = request.token_times
        if times:
            self.token_base[row] = list(times)
            self.last_emit[row] = times[-1]
            if len(times) >= 2:
                self.prev_emit[row] = times[-2]
        return row

    def ingest_many(self, requests: list[Request]) -> int:
        """Bulk-mirror a trace; returns the first row index assigned.

        Field-wise list comprehensions keep the per-request Python cost
        to a handful of attribute reads — this is what makes a
        10⁶-request ingest a sub-second affair.
        """
        first = self.n
        n_new = len(requests)
        if first + n_new > self._capacity:
            self._grow(first + n_new)
        self.n = first + n_new
        self.requests.extend(requests)
        sl = slice(first, first + n_new)
        self.prompt_len[sl] = [r.prompt_len for r in requests]
        self.output_len[sl] = [r.output_len for r in requests]
        self.prefill_target[sl] = [r.prefill_target for r in requests]
        self.prefill_done[sl] = [r.prefill_done for r in requests]
        self.decode_steps[sl] = [r.decode_steps for r in requests]
        self.num_emitted[sl] = [r.num_emitted for r in requests]
        self.num_restarts[sl] = [r.num_restarts for r in requests]
        self.phase[sl] = [_PHASE_TO_CODE[r.phase] for r in requests]
        self.prefix_id[sl] = [
            -1 if r.prefix_id is None else r.prefix_id for r in requests
        ]
        self.prefix_len[sl] = [r.prefix_len for r in requests]
        self.prefix_publish_len[sl] = [
            -1 if r.prefix_publish_len is None else r.prefix_publish_len
            for r in requests
        ]
        self.arrival_time[sl] = [r.arrival_time for r in requests]
        self.first_scheduled_at[sl] = [
            _none_to_nan(r.first_scheduled_at) for r in requests
        ]
        self.first_token_at[sl] = [_none_to_nan(r.first_token_at) for r in requests]
        self.finished_at[sl] = [_none_to_nan(r.finished_at) for r in requests]
        for offset, request in enumerate(requests):
            times = request.token_times
            if times:
                row = first + offset
                self.token_base[row] = list(times)
                self.last_emit[row] = times[-1]
                if len(times) >= 2:
                    self.prev_emit[row] = times[-2]
        return first

    # -- sync back to objects ------------------------------------------
    def sync_row(self, row: int) -> Request:
        """Write one row's scalar state back to its Request.

        ``token_times`` is left alone: the engine owns the emission log
        and rebuilds it separately.
        """
        request = self.requests[row]
        state = request.__dict__
        state["prefill_target"] = int(self.prefill_target[row])
        state["prefill_done"] = int(self.prefill_done[row])
        state["decode_steps"] = int(self.decode_steps[row])
        state["num_emitted"] = int(self.num_emitted[row])
        state["num_restarts"] = int(self.num_restarts[row])
        state["phase"] = _CODE_TO_PHASE[int(self.phase[row])]
        state["first_scheduled_at"] = _nan_to_none(float(self.first_scheduled_at[row]))
        state["first_token_at"] = _nan_to_none(float(self.first_token_at[row]))
        state["finished_at"] = _nan_to_none(float(self.finished_at[row]))
        return request

    def materialize_token_times(
        self, emit_log: list[tuple[float, np.ndarray]]
    ) -> list[list[float]]:
        """Rebuild per-row emission timestamp lists from the batch log.

        Log entries arrive in chronological order, so a stable sort by
        row keeps each row's timestamps chronological too.
        """
        per_row: list[list[float]] = [[] for _ in range(self.n)]
        if not emit_log:
            return per_row
        rows_all = np.concatenate([rows for _, rows in emit_log])
        counts = [len(rows) for _, rows in emit_log]
        times_all = np.repeat(np.array([t for t, _ in emit_log]), counts)
        order = np.argsort(rows_all, kind="stable")
        rows_sorted = rows_all[order]
        times_sorted = times_all[order]
        bounds = np.searchsorted(rows_sorted, np.arange(self.n + 1))
        starts = bounds[:-1].tolist()
        ends = bounds[1:].tolist()
        for row, (a, b) in enumerate(zip(starts, ends)):
            if a != b:
                per_row[row] = times_sorted[a:b].tolist()
        return per_row

    def sync_out(self, emit_log: list[tuple[float, np.ndarray]]) -> None:
        """Write array state back into every mirrored Request object.

        Idempotent: ``token_times`` is rebuilt from the delivery-time
        base plus the materialized emission log each call.
        """
        n = self.n
        if n == 0:
            return
        per_row_times = self.materialize_token_times(emit_log)
        token_base = self.token_base
        iterator = zip(
            self.requests,
            per_row_times,
            self.prefill_target[:n].tolist(),
            self.prefill_done[:n].tolist(),
            self.decode_steps[:n].tolist(),
            self.num_emitted[:n].tolist(),
            self.num_restarts[:n].tolist(),
            self.phase[:n].tolist(),
            self.first_scheduled_at[:n].tolist(),
            self.first_token_at[:n].tolist(),
            self.finished_at[:n].tolist(),
        )
        for row, (
            request,
            new_times,
            prefill_target,
            prefill_done,
            decode_steps,
            num_emitted,
            num_restarts,
            phase,
            first_scheduled_at,
            first_token_at,
            finished_at,
        ) in enumerate(iterator):
            state = request.__dict__
            state["prefill_target"] = prefill_target
            state["prefill_done"] = prefill_done
            state["decode_steps"] = decode_steps
            state["num_emitted"] = num_emitted
            state["num_restarts"] = num_restarts
            state["phase"] = _CODE_TO_PHASE[phase]
            state["first_scheduled_at"] = _nan_to_none(first_scheduled_at)
            state["first_token_at"] = _nan_to_none(first_token_at)
            state["finished_at"] = _nan_to_none(finished_at)
            base = token_base.get(row)
            state["token_times"] = (base + new_times) if base else new_times


def _none_to_nan(value: float | None) -> float:
    return math.nan if value is None else value


def _nan_to_none(value: float) -> float | None:
    return None if math.isnan(value) else value
