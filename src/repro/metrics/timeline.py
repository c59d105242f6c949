"""Iteration timeline records and the analyses built on them.

Every executed (stage, batch) pair leaves one iteration record.  An
engine keeps its records packed in an :class:`IterationLog` (13 numbers
a row, no Python object per iteration) and builds ``IterationRecord``
objects only when a caller indexes or iterates the log.  From the log's
columns we derive the paper's scheduling diagnostics: pipeline bubbles
(idle gaps inside a stage's busy span, Fig. 8) and per-stage
utilization; generation stalls (Fig. 1a) are derived from request
token timestamps instead.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.types import IterationTime, Request


@dataclass(frozen=True)
class IterationRecord:
    """One batch's execution on one pipeline stage."""

    stage: int
    start: float
    end: float
    batch_id: int
    num_prefill_tokens: int
    num_decode_tokens: int
    num_prefill_seqs: int
    num_decode_seqs: int
    breakdown: IterationTime

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def num_tokens(self) -> int:
        return self.num_prefill_tokens + self.num_decode_tokens

    @property
    def is_hybrid(self) -> bool:
        return self.num_prefill_seqs > 0 and self.num_decode_seqs > 0


# A row is six integers and seven floats, each group packed row-major
# into one typed array.
_INT_FIELDS = (
    "stage",
    "batch_id",
    "num_prefill_tokens",
    "num_decode_tokens",
    "num_prefill_seqs",
    "num_decode_seqs",
)
_FLOAT_FIELDS = (
    "start",
    "end",
    "linear",
    "attention",
    "others",
    "communication",
    "overhead",
)
_NI = len(_INT_FIELDS)
_NF = len(_FLOAT_FIELDS)


class IterationLog(Sequence):
    """Iteration records as packed numbers: a read-only sequence.

    :meth:`append` stores one iteration as six integers in an
    ``array('i')`` (a value outside int32 raises ``OverflowError``) and
    seven floats in an ``array('d')``.  ``len``, indexing and iteration
    build :class:`IterationRecord` objects on demand; numeric readers
    use :meth:`column` instead.  :meth:`chain` joins logs by sharing
    their arrays, so a fleet's merged view copies no record.

    A float column of a log with one non-empty part is a view of the
    live array, and an ``array`` cannot grow while a view of it exists:
    drop column views before appending again.
    """

    __slots__ = ("_parts", "_ints", "_floats")

    def __init__(self) -> None:
        # Shared (ints, floats) pairs of chained logs, read before the
        # log's own arrays.
        self._parts: tuple[tuple[array, array], ...] = ()
        self._ints = array("i")
        self._floats = array("d")

    @classmethod
    def of(cls, records: "IterationLog | Iterable[IterationRecord]") -> "IterationLog":
        """``records`` as a log: a log is returned as is, records are packed."""
        if isinstance(records, IterationLog):
            return records
        log = cls()
        for r in records:
            b = r.breakdown
            log.append(
                r.stage, r.start, r.end, r.batch_id,
                r.num_prefill_tokens, r.num_decode_tokens,
                r.num_prefill_seqs, r.num_decode_seqs,
                b.linear, b.attention, b.others, b.communication, b.overhead,
            )
        return log

    @classmethod
    def chain(cls, logs: Iterable["IterationLog | Iterable[IterationRecord]"]) -> "IterationLog":
        """The concatenation of ``logs``, sharing their arrays."""
        joined = cls()
        joined._parts = tuple(
            part for log in logs for part in cls.of(log)._all_parts() if part[1]
        )
        return joined

    def append(
        self,
        stage: int,
        start: float,
        end: float,
        batch_id: int,
        num_prefill_tokens: int,
        num_decode_tokens: int,
        num_prefill_seqs: int,
        num_decode_seqs: int,
        linear: float,
        attention: float,
        others: float,
        communication: float,
        overhead: float,
    ) -> None:
        try:
            self._ints.extend((
                stage, batch_id, num_prefill_tokens, num_decode_tokens,
                num_prefill_seqs, num_decode_seqs,
            ))
            self._floats.extend(
                (start, end, linear, attention, others, communication, overhead)
            )
        except (TypeError, OverflowError):
            # A value that does not fit its column leaves no partial row
            # (the floats, extended last, are short of the new row).
            rows = len(self._floats) // _NF
            del self._ints[rows * _NI :], self._floats[rows * _NF :]
            raise

    def select(self, keep: np.ndarray) -> "IterationLog":
        """A new log of the rows where the boolean mask ``keep`` is true."""
        kept = IterationLog()
        kept._ints.frombytes(self._matrix(_INT_FIELDS)[keep].tobytes())
        kept._floats.frombytes(self._matrix(_FLOAT_FIELDS)[keep].tobytes())
        return kept

    def column(self, name: str) -> np.ndarray:
        """One field of every row, in log order, as a numpy array.

        Int fields come back as int64 copies: products such as
        ``tokens * kv_bytes_per_token`` would wrap silently in int32.
        """
        if name in _FLOAT_FIELDS:
            return self._matrix(_FLOAT_FIELDS)[:, _FLOAT_FIELDS.index(name)]
        return self._matrix(_INT_FIELDS)[:, _INT_FIELDS.index(name)].astype(np.int64)

    # -- sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return sum(len(floats) for _, floats in self._all_parts()) // _NF

    def __getitem__(self, index: int) -> IterationRecord:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("IterationLog index out of range")
        for ints, floats in self._all_parts():
            rows = len(floats) // _NF
            if index < rows:
                return _record(
                    ints[index * _NI : (index + 1) * _NI],
                    floats[index * _NF : (index + 1) * _NF],
                )
            index -= rows
        raise IndexError("IterationLog index out of range")  # pragma: no cover

    def __iter__(self) -> Iterator[IterationRecord]:
        for ints, floats in self._all_parts():
            # Group the flat arrays into rows without copying them.
            rows = zip(zip(*[iter(ints)] * _NI), zip(*[iter(floats)] * _NF))
            for int_row, float_row in rows:
                yield _record(int_row, float_row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (IterationLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"IterationLog({len(self)} records)"

    # -- internals -----------------------------------------------------
    def _all_parts(self) -> tuple[tuple[array, array], ...]:
        return (*self._parts, (self._ints, self._floats))

    def _matrix(self, fields: tuple[str, ...]) -> np.ndarray:
        """The int or float fields of every row as a ``(rows, fields)`` array."""
        slot, dtype = (1, np.float64) if fields is _FLOAT_FIELDS else (0, np.int32)
        blocks = [
            np.frombuffer(part[slot], dtype=dtype).reshape(-1, len(fields))
            for part in self._all_parts()
            if part[slot]
        ]
        if not blocks:
            return np.empty((0, len(fields)), dtype=dtype)
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _record(ints: Sequence[int], floats: Sequence[float]) -> IterationRecord:
    stage, batch_id, prefill_tokens, decode_tokens, prefill_seqs, decode_seqs = ints
    start, end, linear, attention, others, communication, overhead = floats
    return IterationRecord(
        stage=stage,
        start=start,
        end=end,
        batch_id=batch_id,
        num_prefill_tokens=prefill_tokens,
        num_decode_tokens=decode_tokens,
        num_prefill_seqs=prefill_seqs,
        num_decode_seqs=decode_seqs,
        breakdown=IterationTime(linear, attention, others, communication, overhead),
    )


@dataclass(frozen=True)
class StageUtilization:
    """Busy/idle accounting of one pipeline stage over its active span."""

    stage: int
    busy_time: float
    span: float
    num_bubbles: int
    bubble_time: float

    @property
    def utilization(self) -> float:
        if self.span <= 0:
            return 0.0
        return self.busy_time / self.span

    @property
    def bubble_fraction(self) -> float:
        if self.span <= 0:
            return 0.0
        return self.bubble_time / self.span


def _stage_intervals(log: IterationLog, stage: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of ``stage``'s rows, stably sorted by start."""
    mine = log.column("stage") == stage
    starts = log.column("start")[mine]
    ends = log.column("end")[mine]
    order = np.argsort(starts, kind="stable")
    return starts[order], ends[order]


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, as builtin ``sum`` (``np.sum`` is pairwise)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def stage_utilization(
    records: "IterationLog | Sequence[IterationRecord]",
    stage: int,
    min_gap: float = 1e-9,
) -> StageUtilization:
    """Bubble accounting for one stage: gaps between consecutive batches.

    The span runs from the stage's first batch start to its last batch
    end; every gap larger than ``min_gap`` inside the span is a bubble
    (wasted GPU cycles, §3.3).  Sums run in start order.
    """
    starts, ends = _stage_intervals(IterationLog.of(records), stage)
    if not len(starts):
        return StageUtilization(stage, 0.0, 0.0, 0, 0.0)
    gaps = starts[1:] - ends[:-1]
    bubbles = gaps[gaps > min_gap]
    return StageUtilization(
        stage,
        _sequential_sum(ends - starts),
        float(ends[-1] - starts[0]),
        len(bubbles),
        _sequential_sum(bubbles),
    )


def pipeline_bubble_time(
    records: "IterationLog | Sequence[IterationRecord]",
    stage: int,
    min_gap: float = 1e-9,
) -> tuple[int, float]:
    """True pipeline bubbles of ``stage``: idle gaps while work existed.

    A gap in this stage's schedule only wastes GPU cycles when the
    *previous* stage was busy during it (a micro-batch was in flight
    but not ready here yet — the paper's PB1/PB2/PB3).  Gaps where the
    whole pipeline was drained are load idleness, not bubbles.
    Returns ``(num_bubbles, total_bubble_seconds)``.
    """
    if stage <= 0:
        return (0, 0.0)
    log = IterationLog.of(records)
    starts, ends = _stage_intervals(log, stage)
    # Upstream intervals sorted by (start, end).
    up = log.column("stage") == stage - 1
    up_starts = log.column("start")[up]
    up_ends = log.column("end")[up]
    order = np.lexsort((up_ends, up_starts))
    up_starts, up_ends = up_starts[order], up_ends[order]
    count = 0
    total = 0.0
    for gap_start, gap_end in zip(ends[:-1].tolist(), starts[1:].tolist()):
        if gap_end - gap_start <= min_gap:
            continue
        # Upstream intervals that start before the gap ends and end
        # after it starts, in (start, end) order.
        hi = int(np.searchsorted(up_starts, gap_end, side="left"))
        a, b = up_starts[:hi], up_ends[:hi]
        touching = b > gap_start
        overlap = _sequential_sum(
            np.minimum(b[touching], gap_end) - np.maximum(a[touching], gap_start)
        )
        if overlap > min_gap:
            count += 1
            total += overlap
    return (count, total)


def generation_stalls(request: Request, threshold: float) -> list[float]:
    """TBT gaps of one request exceeding ``threshold`` seconds.

    A *generation stall* is a long pause between consecutive output
    tokens of a running request, caused by prefills (or preemptions)
    scheduled in between its decodes (§3.2, Fig. 1a).
    """
    return [gap for gap in request.tbt_samples if gap > threshold]


def longest_stall(requests: list[Request]) -> float:
    """The single worst inter-token gap across all requests."""
    worst = 0.0
    for request in requests:
        for gap in request.tbt_samples:
            worst = max(worst, gap)
    return worst
