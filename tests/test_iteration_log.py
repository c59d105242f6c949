"""The packed iteration log against the object analyses it replaced.

``stage_utilization`` and ``pipeline_bubble_time`` read numpy columns
of an :class:`IterationLog`; the reference implementations below walk
``IterationRecord`` objects exactly as the analyses did before the log
was packed.  Every result must compare equal with ``==``: a column
rewrite that changes a summation order shows up here as a last-bit
difference.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServingConfig
from repro.cluster.fleet import FaultSchedule, FleetConfig, simulate_fleet
from repro.cluster.router import RoundRobinRouter
from repro.metrics.timeline import (
    IterationLog,
    IterationRecord,
    StageUtilization,
    pipeline_bubble_time,
    stage_utilization,
)
from repro.types import IterationTime

from tests.conftest import make_request


# ----------------------------------------------------------------------
# Reference: the object implementations
# ----------------------------------------------------------------------
def reference_stage_utilization(records, stage, min_gap=1e-9):
    mine = sorted((r for r in records if r.stage == stage), key=lambda r: r.start)
    if not mine:
        return StageUtilization(stage, 0.0, 0.0, 0, 0.0)
    busy = sum(r.duration for r in mine)
    span = mine[-1].end - mine[0].start
    bubbles = 0
    bubble_time = 0.0
    for prev, cur in zip(mine, mine[1:]):
        gap = cur.start - prev.end
        if gap > min_gap:
            bubbles += 1
            bubble_time += gap
    return StageUtilization(stage, busy, span, bubbles, bubble_time)


def reference_pipeline_bubble_time(records, stage, min_gap=1e-9):
    if stage <= 0:
        return (0, 0.0)
    mine = sorted((r for r in records if r.stage == stage), key=lambda r: r.start)
    upstream = sorted(((r.start, r.end) for r in records if r.stage == stage - 1))
    count = 0
    total = 0.0
    for prev, cur in zip(mine, mine[1:]):
        gap_start, gap_end = prev.end, cur.start
        if gap_end - gap_start <= min_gap:
            continue
        overlap = _reference_interval_overlap(gap_start, gap_end, upstream)
        if overlap > min_gap:
            count += 1
            total += overlap
    return (count, total)


def _reference_interval_overlap(start, end, intervals):
    total = 0.0
    for a, b in intervals:
        if b <= start:
            continue
        if a >= end:
            break
        total += min(b, end) - max(a, start)
    return total


# ----------------------------------------------------------------------
# Generated records
# ----------------------------------------------------------------------
# Dyadic grid times make ties and gaps of exactly ``min_gap`` (a grid
# step) exact; arbitrary floats exercise rounding, and runs longer than
# eight rows tell a sequential sum from NumPy's pairwise one.
_GRID = 0.125
_grid = st.integers(0, 8).map(lambda k: k * _GRID)
_floats = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
_terms = st.floats(allow_nan=False, allow_infinity=False)
# The int fields are int32: the extremes must come back exactly.
_big_ints = st.integers(-(2**31), 2**31 - 1)


@st.composite
def _records(draw) -> list[IterationRecord]:
    """Per-stage runs of batches, shuffled together.

    Each batch starts a gap after the previous batch of its stage ends;
    a negative gap overlaps it, as merged replicas overlap.
    """
    records = []
    for stage in range(3):
        now = draw(_grid)
        for _ in range(draw(st.integers(0, 24))):
            start = now + draw(st.one_of(_grid, _floats, _floats.map(lambda x: -x)))
            now = start + draw(st.one_of(_grid, _floats))
            records.append(
                IterationRecord(
                    stage=stage,
                    start=start,
                    end=now,
                    batch_id=draw(_big_ints),
                    num_prefill_tokens=draw(_big_ints),
                    num_decode_tokens=draw(st.integers(0, 4096)),
                    num_prefill_seqs=draw(st.integers(0, 64)),
                    num_decode_seqs=draw(st.integers(0, 256)),
                    breakdown=IterationTime(*(draw(_terms) for _ in range(5))),
                )
            )
    return draw(st.permutations(records))


_min_gaps = st.sampled_from([0.0, 1e-9, _GRID, 2 * _GRID])


@settings(max_examples=100, deadline=None)
@given(records=_records(), min_gap=_min_gaps, cut=st.integers(0, 72))
def test_log_analyses_equal_object_reference(records, min_gap, cut):
    log = IterationLog.of(records)
    # The same rows split into two logs and chained, as a fleet merges
    # its replicas' logs.
    chained = IterationLog.chain(
        [IterationLog.of(records[:cut]), IterationLog.of(records[cut:])]
    )
    for stage in range(4):
        expected = reference_stage_utilization(records, stage, min_gap)
        assert stage_utilization(log, stage, min_gap) == expected
        assert stage_utilization(chained, stage, min_gap) == expected
        assert stage_utilization(records, stage, min_gap) == expected
        bubbles = reference_pipeline_bubble_time(records, stage, min_gap)
        assert pipeline_bubble_time(log, stage, min_gap) == bubbles
        assert pipeline_bubble_time(chained, stage, min_gap) == bubbles
        assert pipeline_bubble_time(records, stage, min_gap) == bubbles


@settings(max_examples=50, deadline=None)
@given(records=_records(), cut=st.integers(0, 72), data=st.data())
def test_materialized_records_round_trip(records, cut, data):
    log = IterationLog.of(records)
    chained = IterationLog.chain(
        [IterationLog.of(records[:cut]), IterationLog.of(records[cut:])]
    )
    for view in (log, chained):
        assert len(view) == len(records)
        assert list(view) == records
        assert view == records
        for i, original in enumerate(records):
            for rec in (view[i], view[i - len(records)]):
                assert rec == original
                for name in (
                    "stage", "batch_id", "num_prefill_tokens", "num_decode_tokens",
                    "num_prefill_seqs", "num_decode_seqs",
                ):
                    assert type(getattr(rec, name)) is int
                assert type(rec.start) is float and type(rec.breakdown) is IterationTime
        assert view.column("batch_id").tolist() == [r.batch_id for r in records]
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(records),
                                       max_size=len(records))), dtype=bool)
    kept = [r for r, k in zip(records, keep.tolist()) if k]
    assert chained.select(keep) == kept


def test_log_bounds_and_chain_append():
    log = IterationLog()
    assert len(log) == 0 and log == [] and list(log) == []
    assert log.column("start").shape == (0,)
    log.append(1, 0.5, 1.5, 7, 10, 2, 1, 2, 0.1, 0.2, 0.3, 0.4, 0.5)
    assert log[0].breakdown == IterationTime(0.1, 0.2, 0.3, 0.4, 0.5)
    with pytest.raises(IndexError):
        log[1]
    joined = IterationLog.chain([log, [log[0]]])
    joined.append(0, 2.0, 3.0, 8, 0, 1, 0, 1, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert [r.batch_id for r in joined] == [7, 7, 8]
    assert len(log) == 1  # chaining shares rows but never writes to them


_INT_NAMES = (
    "stage", "batch_id", "num_prefill_tokens", "num_decode_tokens",
    "num_prefill_seqs", "num_decode_seqs",
)


def test_int_columns_are_int64_for_one_part_and_chained_parts():
    log = IterationLog()
    log.append(1, 0.5, 1.5, 2**31 - 1, 2**31 - 1, 2, 1, 2, 0.1, 0.2, 0.3, 0.4, 0.5)
    tail = IterationLog()
    tail.append(0, 2.0, 3.0, -(2**31), 3, 4, 5, 6, 0.0, 0.0, 0.0, 0.0, 0.0)
    for view in (log, IterationLog.chain([log, tail]), IterationLog.chain([log, [tail[0]]])):
        for name in _INT_NAMES:
            assert view.column(name).dtype == np.int64
        assert view.column("batch_id").tolist() == [r.batch_id for r in view]
        # int32 columns would wrap this product instead of widening it.
        assert (view.column("num_prefill_tokens") * 2**20)[0] == (2**31 - 1) * 2**20
    assert IterationLog().column("stage").dtype == np.int64


@pytest.mark.parametrize("value", [2**31, -(2**31) - 1])
@pytest.mark.parametrize("field", range(len(_INT_NAMES)))
def test_out_of_range_int_raises_instead_of_wrapping(field, value):
    ints = [0] * len(_INT_NAMES)
    ints[field] = value
    stage, batch_id, prefill_tokens, decode_tokens, prefill_seqs, decode_seqs = ints
    log = IterationLog()
    with pytest.raises(OverflowError):
        log.append(
            stage, 0.0, 1.0, batch_id, prefill_tokens, decode_tokens,
            prefill_seqs, decode_seqs, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
    # No partial row is left behind.
    log.append(1, 0.5, 1.5, 7, 10, 2, 1, 2, 0.1, 0.2, 0.3, 0.4, 0.5)
    assert [r.batch_id for r in log] == [7]


# ----------------------------------------------------------------------
# No record object lives through a fleet run
# ----------------------------------------------------------------------
def _live(cls) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


@pytest.mark.tier1
def test_fleet_run_keeps_no_record_objects(tiny_deployment):
    trace = [
        make_request(prompt_len=200, output_len=40, arrival_time=0.001 * i)
        for i in range(24)
    ]
    before = (_live(IterationRecord), _live(IterationTime))
    result, metrics = simulate_fleet(
        tiny_deployment,
        ServingConfig(),
        trace,
        FleetConfig(num_replicas=2, faults=FaultSchedule.single(0, down_at=0.05)),
        router=RoundRobinRouter(2),
    )
    assert result.num_failovers > 0
    assert metrics.num_requests == len(trace)
    merged = result.merged()
    assert len(merged.records) > 0
    assert (_live(IterationRecord), _live(IterationTime)) == before
    records = list(merged.records)
    assert _live(IterationRecord) == before[0] + len(records)
    assert _live(IterationTime) == before[1] + len(records)
