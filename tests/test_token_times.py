"""Packed float64 token timestamps, from sync-out to summarize.

``Request.token_times`` is an ``array('d')``.  These tests pin the
coercion of other sequences, compare the array-based ``summarize`` and
recovery sampling with the pure-Python list implementations they
replaced, and bound the memory the timestamps hold.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from array import array

from hypothesis import given, settings, strategies as st

from repro.api import ServingConfig, clone_requests, simulate
from repro.engine.replica import SimulationResult
from repro.metrics.recovery import _tbt_samples
from repro.metrics.stats import percentile
from repro.metrics.summary import RunMetrics, summarize
from repro.metrics.timeline import stage_utilization
from repro.types import Request
from tests.conftest import make_request


class TestCoercion:
    def test_default_is_empty_packed_array(self):
        times = make_request().token_times
        assert isinstance(times, array) and times.typecode == "d"
        assert len(times) == 0

    def test_list_input_is_converted(self):
        r = Request(prompt_len=4, output_len=3, token_times=[1, 1.5])
        assert isinstance(r.token_times, array) and r.token_times.typecode == "d"
        assert r.token_times.tolist() == [1.0, 1.5]

    def test_other_typecode_is_converted(self):
        r = Request(prompt_len=4, output_len=3, token_times=array("f", [0.5]))
        assert r.token_times.typecode == "d"
        assert r.token_times.tolist() == [0.5]

    def test_packed_input_is_kept(self):
        times = array("d", [2.0])
        assert Request(prompt_len=4, output_len=3, token_times=times).token_times is times

    def test_replace_keeps_a_packed_array(self):
        r = make_request(prompt_len=4, output_len=3)
        r.record_prefill(4, now=1.0)
        moved = dataclasses.replace(r, token_times=list(r.token_times))
        assert moved.token_times.typecode == "d"
        moved.record_decode(now=2.0)
        assert moved.token_times.tolist() == [1.0, 2.0]
        assert r.token_times.tolist() == [1.0]

    def test_clone_copies_the_array(self):
        r = make_request(prompt_len=4, output_len=3)
        r.record_prefill(4, now=1.0)
        (clone,) = clone_requests([r])
        assert clone.token_times.typecode == "d"
        assert clone.token_times is not r.token_times
        clone.record_decode(now=2.0)
        assert r.token_times.tolist() == [1.0]


def _reference_summarize(result: SimulationResult) -> RunMetrics:
    """``summarize`` as it was when ``token_times`` was a list."""
    finished = result.finished_requests
    ttfts = [r.ttft for r in finished]
    delays = [r.scheduling_delay for r in finished]
    window_end = max(r.arrival_time for r in result.requests)
    tbts: list[float] = []
    for request in finished:
        times = list(request.token_times)
        tbts.extend(b - a for a, b in zip(times, times[1:]) if b <= window_end)
    if not tbts:
        for request in finished:
            times = list(request.token_times)
            tbts.extend(b - a for a, b in zip(times, times[1:]))
    if not tbts:
        tbts = [0.0]
    output_tokens = sum(r.num_emitted for r in finished)
    total_tokens = sum(r.prompt_len + r.num_emitted for r in finished)
    makespan = result.makespan
    bubble_fracs = [
        stage_utilization(result.records, s).bubble_fraction
        for s in range(result.num_stages)
    ]
    return RunMetrics(
        num_requests=len(finished),
        makespan=makespan,
        median_ttft=percentile(ttfts, 50),
        p90_ttft=percentile(ttfts, 90),
        p99_ttft=percentile(ttfts, 99),
        median_tbt=percentile(tbts, 50),
        p99_tbt=percentile(tbts, 99),
        max_tbt=max(tbts),
        median_scheduling_delay=percentile(delays, 50),
        p99_scheduling_delay=percentile(delays, 99),
        output_tokens=output_tokens,
        total_tokens=total_tokens,
        num_preemptions=result.num_preemptions,
        throughput_rps=len(finished) / makespan if makespan > 0 else 0.0,
        throughput_tokens_per_s=total_tokens / makespan if makespan > 0 else 0.0,
        mean_bubble_fraction=sum(bubble_fracs) / len(bubble_fracs),
    )


_seconds = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
_gaps = st.floats(min_value=1e-6, max_value=5.0, allow_nan=False)


@st.composite
def _traces(draw, mode: str) -> SimulationResult:
    requests = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        arrival = 0.0 if mode == "closed" else draw(_seconds)
        output_len = 1 if mode == "single" else draw(st.integers(1, 30))
        r = Request(prompt_len=4, output_len=output_len, arrival_time=arrival)
        r.first_scheduled_at = arrival
        now = arrival + draw(_gaps)
        r.record_prefill(4, now=now)
        # Leave some requests unfinished: they widen the load window
        # but contribute no samples.
        emitted = draw(st.integers(1, output_len))
        for _ in range(emitted - 1):
            now += draw(_gaps)
            r.record_decode(now=now)
        requests.append(r)
    if not any(r.is_finished for r in requests):
        last = requests[-1]
        while not last.is_finished:
            last.record_decode(now=last.token_times[-1] + 1.0)
    makespan = max(r.token_times[-1] for r in requests)
    return SimulationResult(
        requests=requests, records=[], makespan=makespan, num_stages=1
    )


class TestMatchesListReference:
    @settings(max_examples=60, deadline=None)
    @given(result=_traces("open"))
    def test_open_loop_window(self, result):
        assert summarize(result) == _reference_summarize(result)

    @settings(max_examples=40, deadline=None)
    @given(result=_traces("closed"))
    def test_closed_loop_keeps_every_sample(self, result):
        assert summarize(result) == _reference_summarize(result)

    @settings(max_examples=20, deadline=None)
    @given(result=_traces("single"))
    def test_single_token_outputs_report_zero(self, result):
        metrics = summarize(result)
        assert metrics == _reference_summarize(result)
        assert metrics.max_tbt == metrics.p99_tbt == 0.0

    @settings(max_examples=40, deadline=None)
    @given(result=_traces("open"))
    def test_recovery_samples_match_sorted_pairs(self, result):
        pairs = sorted(
            (b, b - a)
            for r in result.requests
            for a, b in zip(r.token_times, r.token_times[1:])
        )
        times, gaps = _tbt_samples(result)
        assert times == [t for t, _ in pairs]
        assert gaps == [g for _, g in pairs]


def _decode_trace(num_requests: int, output_len: int) -> list[Request]:
    return [
        make_request(prompt_len=32, output_len=output_len, arrival_time=0.02 * i)
        for i in range(num_requests)
    ]


def test_token_times_hold_under_16_bytes_per_token(tiny_deployment):
    trace = _decode_trace(num_requests=500, output_len=200)
    tracemalloc.start()
    try:
        result, metrics = simulate(tiny_deployment, ServingConfig(), trace)
        tokens = sum(len(r.token_times) for r in result.requests)
        held = tracemalloc.get_traced_memory()[0]
        empty = array("d")
        for request in result.requests:
            request.token_times = empty
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tokens == metrics.output_tokens == 500 * 200
    # A list of Python floats holds about 32 B a token; packed float64
    # holds 8 B plus the arrays' headers and over-allocation.
    assert freed / tokens < 16


def test_summarize_transient_under_16_bytes_per_sample(tiny_deployment):
    trace = _decode_trace(num_requests=500, output_len=200)
    result, _ = simulate(tiny_deployment, ServingConfig(), trace)
    samples = sum(len(r.token_times) - 1 for r in result.finished_requests)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        summarize(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / samples < 16
