"""Struct-of-arrays mirror of per-request serving state.

The replica engine keeps every mutable :class:`repro.types.Request`
field in flat numpy arrays, indexed by a dense per-engine *row* id.
The original ``Request`` objects are retained untouched during the hot
loop and synchronized back (``sync_out``) only at observation points —
end of run, fleet snapshots of pending work, crash failover, a
plug-in policy's pool view — so callers see ordinary ``Request``
objects while the engine iterates over arrays.

Token emission timestamps are not appended per token; the engine logs
each iteration's ``(time, rows)`` into an :class:`EmissionLog` (three
packed arrays, int32 row ids, no Python object per entry) and
:meth:`RequestArrays.sync_out` folds only the entries logged since the
previous sync into each ``Request.token_times``, in chunks of at most
``_SYNC_CHUNK`` (16,384) entries (each stable-sorted by row).  A fold
first detaches the log's arrays, so the log is empty whatever happens
to the fold.  The engine also folds the log (without the scalar sync)
whenever it reaches ``_SYNC_CHUNK`` rows, so the log stays within one
chunk.  ``token_times`` is a packed float64 ``array('d')``: each
row's run is appended as raw bytes of the sorted chunk, so a sync
creates no Python float per token, and its transient arrays are
bounded by one chunk, however long the log.  A fold holds about five
chunk-sized temporaries; at 16,384 entries that is about 0.5 MB, where
65,536 made the fold a short run's largest memory spike.
"""

from __future__ import annotations

import math
from array import array

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


class EmissionLog:
    """Token emissions since the last sync, packed into three arrays.

    Entry ``i`` says that the ``counts[i]`` rows starting at
    ``sum(counts[:i])`` of ``rows`` emitted a token at ``stamps[i]``.
    Entries are appended in time order.  Counts and row ids are int32
    (:meth:`RequestArrays._grow` keeps row ids below 2**31).
    """

    __slots__ = ("stamps", "counts", "rows")

    def __init__(self) -> None:
        self.stamps = array("d")
        self.counts = array("i")
        self.rows = array("i")

    def append(self, now: float, rows: "np.ndarray | list[int]") -> None:
        """Log that each of ``rows`` emitted a token at ``now``."""
        self.stamps.append(now)
        self.counts.append(len(rows))
        self.rows.frombytes(np.asarray(rows, dtype=np.int32).tobytes())

    def __len__(self) -> int:
        return len(self.stamps)

    def detach(self) -> tuple[array, array, array]:
        """The logged ``(stamps, counts, rows)``; the log starts empty."""
        taken = (self.stamps, self.counts, self.rows)
        self.stamps, self.counts, self.rows = array("d"), array("i"), array("i")
        return taken


class RequestArrays:
    """Flat per-request state; rows are assigned in delivery order."""

    _INITIAL_CAPACITY = 64
    # Token entries of the emission log folded per sort in ``sync_out``,
    # and the log length at which the engine folds (see the module doc).
    _SYNC_CHUNK = 1 << 14
    # Row ids are int32 in the emission log.
    _MAX_ROWS = 2**31 - 1

    def __init__(self) -> None:
        self.n = 0
        self._capacity = 0
        self.requests: list[Request] = []
        for name in _INT_FIELDS + _FLOAT_FIELDS:
            setattr(self, name, np.empty(0))
        self._grow(self._INITIAL_CAPACITY)

    # -- storage -------------------------------------------------------
    def _grow(self, min_capacity: int) -> None:
        # Checked before allocating: a row id past int32 would wrap
        # silently in the emission log.
        if min_capacity > self._MAX_ROWS:
            raise OverflowError(
                f"{min_capacity} rows exceed the {self._MAX_ROWS} that int32 row ids hold"
            )
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
        # A failed-over request arrives with its earlier emissions; new
        # ones are appended to the same array at sync time.
        times = request.token_times
        if times:
            self.last_emit[row] = times[-1]
            if len(times) >= 2:
                self.prev_emit[row] = times[-2]
        return row

    # -- sync back to objects ------------------------------------------
    def sync_row(self, row: int) -> Request:
        """Write one row's scalar state back to its Request.

        ``token_times`` is left alone: emissions reach it through
        :meth:`fold_emissions`.
        """
        request = self.requests[row]
        request.prefill_target = int(self.prefill_target[row])
        request.prefill_done = int(self.prefill_done[row])
        request.decode_steps = int(self.decode_steps[row])
        request.num_emitted = int(self.num_emitted[row])
        request.num_restarts = int(self.num_restarts[row])
        request.phase = _CODE_TO_PHASE[int(self.phase[row])]
        request.first_scheduled_at = _nan_to_none(float(self.first_scheduled_at[row]))
        request.first_token_at = _nan_to_none(float(self.first_token_at[row]))
        request.finished_at = _nan_to_none(float(self.finished_at[row]))
        return request

    def sync_out(self, emit_log: EmissionLog) -> None:
        """Write array state back into every mirrored Request object.

        Emissions logged since the previous call are appended to each
        request's ``token_times`` and the log is emptied, so repeated
        calls are idempotent.
        """
        self.fold_emissions(emit_log)
        n = self.n
        iterator = zip(
            self.requests,
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
        for (
            request,
            prefill_target,
            prefill_done,
            decode_steps,
            num_emitted,
            num_restarts,
            phase,
            first_scheduled_at,
            first_token_at,
            finished_at,
        ) in iterator:
            request.prefill_target = prefill_target
            request.prefill_done = prefill_done
            request.decode_steps = decode_steps
            request.num_emitted = num_emitted
            request.num_restarts = num_restarts
            request.phase = _CODE_TO_PHASE[phase]
            request.first_scheduled_at = _nan_to_none(first_scheduled_at)
            request.first_token_at = _nan_to_none(first_token_at)
            request.finished_at = _nan_to_none(finished_at)

    def fold_emissions(self, emit_log: EmissionLog) -> None:
        """Append the logged emissions to ``token_times``; empty the log.

        The log is chronological and is consumed in consecutive chunks
        of ``_SYNC_CHUNK`` token entries, so a stable sort by row within
        each chunk keeps every row's timestamps chronological.
        """
        if len(emit_log):
            stamps, counts, rows = emit_log.detach()
            self._fold_packed(
                np.frombuffer(stamps, dtype=np.float64),
                np.frombuffer(counts, dtype=np.int32),
                np.frombuffer(rows, dtype=np.int32),
            )

    def _fold_packed(
        self, stamps: np.ndarray, counts: np.ndarray, rows: np.ndarray
    ) -> None:
        cap = self._SYNC_CHUNK
        ends = np.cumsum(counts)
        total = int(ends[-1])
        for lo in range(0, total, cap):
            size = min(cap, total - lo)
            # Entries holding the chunk's first and last token.
            first, last = np.searchsorted(ends, [lo, lo + size - 1], side="right")
            offset = lo - int(ends[first] - counts[first])
            times = np.repeat(stamps[first : last + 1], counts[first : last + 1])
            self._fold_chunk(rows[lo : lo + size], times[offset : offset + size])

    def _fold_chunk(self, rows: np.ndarray, times: np.ndarray) -> None:
        # Sort on the low 16 bits: NumPy's stable sort is then a radix
        # sort, several times faster than on int64.  Rows sharing those
        # bits stay in log order, so every run of one row is still
        # chronological and is appended in turn, as raw float64 bytes.
        order = np.argsort(rows.astype(np.uint16), kind="stable")
        rows_sorted = rows[order]
        times_sorted = times[order]
        data = memoryview(times_sorted).cast("B")
        width = times_sorted.itemsize
        bounds = (np.flatnonzero(rows_sorted[1:] != rows_sorted[:-1]) + 1).tolist()
        starts = [0] + bounds
        ends = bounds + [len(times_sorted)]
        requests = self.requests
        for row, a, b in zip(rows_sorted[starts].tolist(), starts, ends):
            requests[row].token_times.frombytes(data[a * width : b * width])


def _none_to_nan(value: float | None) -> float:
    return math.nan if value is None else value


def _nan_to_none(value: float) -> float | None:
    return None if math.isnan(value) else value
