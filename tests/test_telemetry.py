"""Tests for telemetry export and trace serialization."""

from __future__ import annotations

import json

import pytest

from repro.api import ServingConfig, build_engine, clone_requests
from repro.telemetry.recorder import (
    iteration_rows,
    read_csv,
    read_jsonl,
    request_rows,
    run_counters,
    write_csv,
    write_jsonl,
)
from repro.workload.trace import load_trace, save_trace, trace_statistics
from repro.workload.datasets import SHAREGPT4, generate_requests

from tests.conftest import make_request


@pytest.fixture
def small_result(tiny_deployment):
    trace = [
        make_request(prompt_len=200, output_len=6, arrival_time=0.05 * i)
        for i in range(8)
    ]
    engine = build_engine(tiny_deployment, ServingConfig(token_budget=128))
    return engine.run(trace)


class TestIterationRows:
    def test_row_per_stage_record(self, small_result):
        rows = iteration_rows(small_result)
        assert len(rows) == len(small_result.records)

    def test_rows_sorted_by_start(self, small_result):
        rows = iteration_rows(small_result)
        starts = [r["start"] for r in rows]
        assert starts == sorted(starts)

    def test_breakdown_sums_to_duration(self, small_result):
        for row in iteration_rows(small_result):
            total = (
                row["time_linear"]
                + row["time_attention"]
                + row["time_others"]
                + row["time_communication"]
                + row["time_overhead"]
            )
            assert total == pytest.approx(row["duration"])

    def test_token_accounting_consistent(self, small_result):
        rows = iteration_rows(small_result)
        total_prefill = sum(r["num_prefill_tokens"] for r in rows)
        assert total_prefill == sum(r.prompt_len for r in small_result.requests)


class TestRequestRows:
    def test_row_per_request(self, small_result):
        rows = request_rows(small_result)
        assert len(rows) == len(small_result.requests)
        assert all(r["finished"] for r in rows)

    def test_latencies_present(self, small_result):
        for row in request_rows(small_result):
            assert row["ttft"] is not None and row["ttft"] > 0
            assert row["e2e_latency"] >= row["ttft"]


class TestCounters:
    def test_counters(self, small_result):
        counters = run_counters(small_result)
        assert counters["num_finished"] == 8
        assert counters["num_unfinished"] == 0
        assert counters["num_iterations"] > 0
        assert counters["total_decode_tokens"] == 8 * 5  # output_len - 1 each
        assert counters["mean_batch_size"] >= 1.0

    def test_hybrid_iterations_counted(self, small_result):
        counters = run_counters(small_result)
        assert 0 <= counters["num_hybrid_iterations"] <= counters["num_iterations"]

    def test_cache_counters_present_for_cached_run(self, tiny_deployment):
        # The default config memoizes the execution model, and the
        # dynamic scheduler prices candidate budgets through it, so the
        # run's counters carry real hit/miss numbers.
        trace = [make_request(prompt_len=200, output_len=6) for _ in range(4)]
        config = ServingConfig(scheduler="sarathi_dynamic", token_budget=128)
        counters = run_counters(build_engine(tiny_deployment, config).run(trace))
        assert counters["cache_misses"] > 0
        assert counters["cache_size"] > 0
        assert 0.0 <= counters["cache_hit_rate"] <= 1.0

    def test_cache_counters_zero_for_uncached_run(self, tiny_deployment):
        trace = [make_request(prompt_len=100, output_len=3) for _ in range(3)]
        engine = build_engine(
            tiny_deployment,
            ServingConfig(token_budget=128),
            exec_model=tiny_deployment.execution_model(),
        )
        counters = run_counters(engine.run(trace))
        assert counters["cache_hits"] == 0
        assert counters["cache_misses"] == 0
        assert counters["cache_hit_rate"] == 0.0


class TestSerialization:
    def test_jsonl_roundtrip(self, small_result, tmp_path):
        rows = iteration_rows(small_result)
        path = write_jsonl(tmp_path / "iters.jsonl", rows)
        assert read_jsonl(path) == json.loads(json.dumps(rows))

    def test_csv_export(self, small_result, tmp_path):
        rows = request_rows(small_result)
        path = write_csv(tmp_path / "requests.csv", rows)
        lines = path.read_text().splitlines()
        assert len(lines) == len(rows) + 1  # header
        assert "request_id" in lines[0]

    def test_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", [])

    def test_csv_roundtrip_iteration_rows(self, small_result, tmp_path):
        """CSV parses back to the same rows, types and values exact."""
        rows = iteration_rows(small_result)
        path = write_csv(tmp_path / "iters.csv", rows)
        assert read_csv(path) == rows

    def test_csv_roundtrip_request_rows(self, small_result, tmp_path):
        rows = request_rows(small_result)
        path = write_csv(tmp_path / "requests.csv", rows)
        back = read_csv(path)
        assert back == rows
        # None survives (unfinished requests leave empty cells).
        assert all(isinstance(r["ttft"], float) for r in back)

    def test_csv_roundtrip_none_and_bool_cells(self, tmp_path):
        rows = [
            {"a": None, "b": True, "c": False, "d": 1.5, "e": 7, "f": "text"},
            {"a": 0.1, "b": False, "c": None, "d": -2.0, "e": 0, "f": "True-ish"},
        ]
        path = write_csv(tmp_path / "mixed.csv", rows)
        assert read_csv(path) == rows

    def test_counters_roundtrip_with_cache_fields(self, small_result, tmp_path):
        """run_counters (incl. cache_* fields) survive JSONL and CSV."""
        counters = run_counters(small_result)
        jsonl_path = write_jsonl(tmp_path / "counters.jsonl", [counters])
        assert read_jsonl(jsonl_path) == [counters]
        csv_path = write_csv(tmp_path / "counters.csv", [counters])
        (back,) = read_csv(csv_path)
        assert back == counters
        assert back["cache_hit_rate"] == counters["cache_hit_rate"]


class TestTraceSerialization:
    def test_roundtrip_preserves_fields(self, tmp_path):
        trace = generate_requests(SHAREGPT4, num_requests=20, qps=1.0, seed=3)
        path = save_trace(tmp_path / "trace.jsonl", trace)
        loaded = load_trace(path)
        assert [(r.prompt_len, r.output_len, r.arrival_time) for r in trace] == [
            (r.prompt_len, r.output_len, r.arrival_time) for r in loaded
        ]

    def test_loaded_requests_are_fresh(self, tmp_path):
        trace = [make_request(prompt_len=10, output_len=2)]
        trace[0].record_prefill(10, now=1.0)
        path = save_trace(tmp_path / "t.jsonl", trace)
        loaded = load_trace(path)
        assert loaded[0].prefill_done == 0
        assert loaded[0].request_id != trace[0].request_id

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prompt_len": 10}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"prompt_len": 5, "output_len": 2, "arrival_time": 0.0}\n\n'
        )
        assert len(load_trace(path)) == 1


class TestTraceStatistics:
    def test_matches_known_values(self):
        trace = [
            make_request(prompt_len=100, output_len=10, arrival_time=0.0),
            make_request(prompt_len=200, output_len=20, arrival_time=1.0),
            make_request(prompt_len=300, output_len=30, arrival_time=2.0),
        ]
        stats = trace_statistics(trace)
        assert stats.num_requests == 3
        assert stats.prompt_median == 200
        assert stats.output_median == 20
        assert stats.mean_arrival_rate == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_statistics([])

    def test_table2_row_formatting(self):
        trace = generate_requests(SHAREGPT4, num_requests=100, seed=0)
        row = trace_statistics(trace).as_table2_row()
        assert "prompt median" in row
