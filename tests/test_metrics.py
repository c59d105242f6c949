"""Tests for stats, summaries, SLOs, timelines and capacity search."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Deployment, ServingConfig, simulate
from repro.metrics.capacity import find_capacity
from repro.metrics.slo import PAPER_SLOS, SLOSpec, derived_slo, paper_slo
from repro.metrics.stats import (
    jain_fairness,
    mean,
    median,
    p90,
    p99,
    percentile,
    percentile_in_place,
)
from repro.metrics.summary import RunMetrics
from repro.metrics.timeline import (
    IterationRecord,
    generation_stalls,
    longest_stall,
    stage_utilization,
)
from repro.perf.iteration import ExecutionModel
from repro.perf.profiler import derive_slo
from repro.hardware.catalog import A100_80G
from repro.models.catalog import TINY_1B
from repro.types import IterationTime, Request

from tests.conftest import make_request


class TestStats:
    def test_percentiles(self):
        values = list(map(float, range(1, 101)))
        assert median(values) == pytest.approx(50.5)
        assert p90(values) == pytest.approx(90.1)
        assert p99(values) == pytest.approx(99.01)
        assert mean(values) == pytest.approx(50.5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            mean([])

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_ndarray_input_matches_list(self):
        values = [float(v) ** 1.5 for v in range(1, 101)]
        arr = np.array(values)
        for q in (0, 50, 90, 99, 100):
            assert percentile(arr, q) == percentile(values, q)
        assert median(arr) == median(values)
        assert p99(arr) == p99(values)
        assert mean(arr) == mean(values)
        assert jain_fairness(arr) == jain_fairness(values)

    def test_single_element_ndarray(self):
        assert percentile(np.array([3.5]), 99) == 3.5
        assert mean(np.array([3.5])) == 3.5

    def test_empty_ndarray_rejected(self):
        with pytest.raises(ValueError):
            percentile(np.array([]), 50)
        with pytest.raises(ValueError):
            mean(np.array([]))
        with pytest.raises(ValueError):
            jain_fairness(np.array([]))


# A float64 sample that may hold infinities, ties, zeros of both signs
# (equal, so where they land is up to the partition) and one NaN.
_SAMPLES = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(allow_nan=False),
    min_size=1,
    max_size=40,
)
_QUANTILES = st.one_of(st.sampled_from([0, 50, 99, 100]), st.floats(0, 100))


@settings(max_examples=600, deadline=None)
@given(values=_SAMPLES, q=_QUANTILES, ties=st.booleans(), nan_at=st.none() | st.integers(0, 80))
@example(values=[2.5], q=99, ties=False, nan_at=None)
@example(values=[-0.0], q=0, ties=False, nan_at=None)
@example(values=[0.0, -0.0], q=100, ties=False, nan_at=None)
@example(values=[-0.0, 0.0, 0.0, -0.0, -0.0], q=99, ties=False, nan_at=None)
@example(values=[1.0, 1.0, 1.0, 2.0], q=50, ties=False, nan_at=None)
@example(values=[3.0, 1.0, 2.0], q=50, ties=False, nan_at=1)
@example(values=[1.0, math.inf], q=0, ties=False, nan_at=None)
def test_in_place_percentile_is_numpys_to_the_bit(values, q, ties, nan_at):
    """``percentile_in_place`` returns ``np.percentile``'s float exactly.

    Checked on the bits, NaN included: perfbench compares the program's
    percentiles with the same function, so only this test sees a drift.
    """
    if ties:
        values = values + values[: len(values) // 2 + 1]
    if nan_at is not None:
        values[nan_at % len(values)] = math.nan
    sample = np.array(values)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = float(np.percentile(sample, q))
    got = percentile_in_place(sample.copy(), q)
    assert struct.pack("<d", got) == struct.pack("<d", expected)
    assert percentile(values, q) == expected or math.isnan(expected)


class TestSLO:
    def test_paper_table3_values(self):
        assert paper_slo("mistral-7b", strict=True).p99_tbt == 0.1
        assert paper_slo("mistral-7b", strict=False).p99_tbt == 0.5
        assert paper_slo("Falcon-180B", strict=True).p99_tbt == 1.0

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            paper_slo("gpt-4", strict=True)

    def test_all_paper_models_present(self):
        assert set(PAPER_SLOS) == {
            "mistral-7b",
            "yi-34b",
            "llama2-70b",
            "falcon-180b",
        }

    def test_derived_strict_is_5x_relaxed_is_25x(self):
        exec_model = ExecutionModel(TINY_1B, A100_80G)
        strict = derived_slo(exec_model, strict=True)
        relaxed = derived_slo(exec_model, strict=False)
        assert relaxed.p99_tbt == pytest.approx(5 * strict.p99_tbt)
        assert strict.name == "strict"
        assert relaxed.name == "relaxed"

    def test_invalid_slo_rejected(self):
        with pytest.raises(ValueError):
            SLOSpec(name="bad", p99_tbt=0.0)


def _record(stage, start, end, prefill=0, decode=0):
    return IterationRecord(
        stage=stage,
        start=start,
        end=end,
        batch_id=0,
        num_prefill_tokens=prefill,
        num_decode_tokens=decode,
        num_prefill_seqs=1 if prefill else 0,
        num_decode_seqs=decode,
        breakdown=IterationTime(end - start, 0, 0, 0, 0),
    )


class TestTimeline:
    def test_stage_utilization_no_gaps(self):
        records = [_record(0, 0.0, 1.0), _record(0, 1.0, 2.0)]
        util = stage_utilization(records, 0)
        assert util.utilization == pytest.approx(1.0)
        assert util.num_bubbles == 0

    def test_stage_utilization_counts_bubbles(self):
        records = [_record(0, 0.0, 1.0), _record(0, 1.5, 2.0), _record(0, 3.0, 3.5)]
        util = stage_utilization(records, 0)
        assert util.num_bubbles == 2
        assert util.bubble_time == pytest.approx(1.5)
        assert util.bubble_fraction == pytest.approx(1.5 / 3.5)

    def test_stage_utilization_empty(self):
        util = stage_utilization([], 0)
        assert util.utilization == 0.0
        assert util.span == 0.0

    def test_stage_filtering(self):
        records = [_record(0, 0.0, 1.0), _record(1, 5.0, 6.0)]
        assert stage_utilization(records, 1).busy_time == pytest.approx(1.0)

    def test_generation_stalls(self):
        r = make_request(prompt_len=10, output_len=5)
        r.record_prefill(10, now=1.0)
        for t in (1.1, 3.1, 3.2, 3.3):
            r.record_decode(now=t)
        stalls = generation_stalls(r, threshold=0.5)
        assert stalls == pytest.approx([2.0])

    def test_longest_stall(self):
        a = make_request(prompt_len=10, output_len=3)
        a.record_prefill(10, now=0.0)
        a.record_decode(now=0.1)
        a.record_decode(now=5.0)
        b = make_request(prompt_len=10, output_len=2)
        b.record_prefill(10, now=0.0)
        b.record_decode(now=0.2)
        assert longest_stall([a, b]) == pytest.approx(4.9)


class TestRunMetrics:
    def test_summarize_end_to_end(self, tiny_deployment):
        trace = [
            make_request(prompt_len=100, output_len=8, arrival_time=0.05 * i)
            for i in range(10)
        ]
        _, metrics = simulate(tiny_deployment, ServingConfig(), trace)
        assert metrics.num_requests == 10
        assert metrics.median_ttft > 0
        assert metrics.p99_tbt >= metrics.median_tbt
        assert metrics.max_tbt >= metrics.p99_tbt
        assert metrics.output_tokens == 80
        assert metrics.throughput_rps > 0
        assert metrics.throughput_tokens_per_s > 0

    def test_meets_slo(self):
        metrics_kwargs = dict(
            num_requests=1,
            makespan=1.0,
            median_ttft=0.1,
            p90_ttft=0.1,
            p99_ttft=0.1,
            median_tbt=0.02,
            p99_tbt=0.05,
            max_tbt=0.06,
            median_scheduling_delay=0.5,
            p99_scheduling_delay=1.0,
            output_tokens=10,
            total_tokens=20,
            num_preemptions=0,
            throughput_rps=1.0,
            throughput_tokens_per_s=20.0,
            mean_bubble_fraction=0.0,
        )
        metrics = RunMetrics(**metrics_kwargs)
        assert metrics.meets(SLOSpec(name="ok", p99_tbt=0.1))
        assert not metrics.meets(SLOSpec(name="tight", p99_tbt=0.01))
        # Sustainability: scheduling delay also gates the SLO.
        delayed = RunMetrics(**{**metrics_kwargs, "median_scheduling_delay": 5.0})
        assert not delayed.meets(SLOSpec(name="ok", p99_tbt=0.1))


def _fake_run_metrics(p99_tbt: float, delay: float = 0.0) -> RunMetrics:
    return RunMetrics(
        num_requests=10,
        makespan=10.0,
        median_ttft=0.1,
        p90_ttft=0.2,
        p99_ttft=0.3,
        median_tbt=p99_tbt / 2,
        p99_tbt=p99_tbt,
        max_tbt=p99_tbt * 2,
        median_scheduling_delay=delay,
        p99_scheduling_delay=delay,
        output_tokens=100,
        total_tokens=200,
        num_preemptions=0,
        throughput_rps=1.0,
        throughput_tokens_per_s=20.0,
        mean_bubble_fraction=0.0,
    )


class TestCapacitySearch:
    def test_finds_known_threshold(self):
        # P99 TBT rises linearly with load; SLO of 1.0 crossed at qps=2.
        result = find_capacity(
            lambda qps: _fake_run_metrics(qps / 2.0),
            SLOSpec(name="t", p99_tbt=1.0),
            qps_lo=0.1,
            qps_hi=1.0,
            rel_tol=0.02,
            max_probes=40,
        )
        assert result.capacity_qps == pytest.approx(2.0, rel=0.05)

    def test_zero_capacity_when_always_violating(self):
        result = find_capacity(
            lambda qps: _fake_run_metrics(10.0),
            SLOSpec(name="t", p99_tbt=1.0),
        )
        assert result.capacity_qps == 0.0

    def test_expands_above_initial_hi(self):
        result = find_capacity(
            lambda qps: _fake_run_metrics(qps / 100.0),
            SLOSpec(name="t", p99_tbt=1.0),
            qps_lo=0.1,
            qps_hi=1.0,
            rel_tol=0.05,
            max_probes=40,
        )
        assert result.capacity_qps > 50

    def test_scheduling_delay_binds_capacity(self):
        # TBT is always fine but delay explodes past qps=3.
        def run(qps):
            return _fake_run_metrics(0.01, delay=0.0 if qps <= 3 else 100.0)

        result = find_capacity(
            run, SLOSpec(name="t", p99_tbt=1.0), rel_tol=0.05, max_probes=40
        )
        assert result.capacity_qps == pytest.approx(3.0, rel=0.1)

    def test_probe_budget_respected(self):
        result = find_capacity(
            lambda qps: _fake_run_metrics(qps),
            SLOSpec(name="t", p99_tbt=1.0),
            max_probes=5,
        )
        assert result.num_probes <= 6  # bracket may finish the probe in flight

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            find_capacity(
                lambda qps: _fake_run_metrics(qps),
                SLOSpec(name="t", p99_tbt=1.0),
                qps_lo=0.0,
            )


class TestGoodput:
    def _finished_request(self, ttft_gap=0.5, tbt_gaps=(0.05, 0.05)):
        r = make_request(prompt_len=10, output_len=1 + len(tbt_gaps))
        r.record_prefill(10, now=ttft_gap)
        t = ttft_gap
        for gap in tbt_gaps:
            t += gap
            r.record_decode(now=t)
        return r

    def _result(self, requests):
        from repro.engine.replica import SimulationResult

        return SimulationResult(
            requests=requests,
            records=[],
            makespan=max(r.finished_at for r in requests),
            num_stages=1,
        )

    def test_request_meets_slo(self):
        from repro.metrics.goodput import RequestSLO, request_meets_slo

        slo = RequestSLO(ttft_deadline=1.0, tbt_deadline=0.1)
        assert request_meets_slo(self._finished_request(), slo)
        assert not request_meets_slo(self._finished_request(ttft_gap=2.0), slo)
        assert not request_meets_slo(
            self._finished_request(tbt_gaps=(0.05, 0.5)), slo
        )

    def test_unfinished_request_fails(self):
        from repro.metrics.goodput import RequestSLO, request_meets_slo

        r = make_request(prompt_len=10, output_len=5)
        assert not request_meets_slo(r, RequestSLO(1.0, 0.1))

    def test_invalid_deadlines_rejected(self):
        from repro.metrics.goodput import RequestSLO

        with pytest.raises(ValueError):
            RequestSLO(ttft_deadline=0.0, tbt_deadline=0.1)

    def test_goodput_report(self):
        from repro.metrics.goodput import GoodputReport, RequestSLO, goodput

        good = self._finished_request()
        slow_start = self._finished_request(ttft_gap=5.0)
        stalled = self._finished_request(tbt_gaps=(0.05, 3.0))
        report = goodput(
            self._result([good, slow_start, stalled]),
            RequestSLO(ttft_deadline=1.0, tbt_deadline=0.1),
        )
        assert report.num_requests == 3
        assert report.num_attained == 1
        assert report.attainment == pytest.approx(1 / 3)
        assert report.ttft_violations == 1
        assert report.tbt_violations == 1
        assert report.goodput_rps > 0

    def test_goodput_on_simulation(self, tiny_deployment):
        from repro.metrics.goodput import RequestSLO, goodput

        trace = [
            make_request(prompt_len=200, output_len=8, arrival_time=0.05 * i)
            for i in range(10)
        ]
        result, _ = simulate(tiny_deployment, ServingConfig(), trace)
        report = goodput(result, RequestSLO(ttft_deadline=10.0, tbt_deadline=1.0))
        assert report.attainment == 1.0
