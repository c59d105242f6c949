"""Tests for the scheduler-comparison reporting module."""

from __future__ import annotations

import pytest

from repro.reporting import (
    BENCH_SCHEMA_VERSION,
    BenchCase,
    ComparisonRow,
    bench_payload as make_bench_payload,
    compare_schedulers,
    read_bench_json,
    render_bench_table,
    render_markdown,
    write_bench_json,
)

from tests.conftest import make_request


@pytest.fixture(scope="module")
def rows(request):
    from repro.api import Deployment
    from repro.hardware.catalog import A100_80G
    from repro.models.catalog import TINY_1B

    deployment = Deployment(model=TINY_1B, gpu=A100_80G)
    trace = [
        make_request(prompt_len=400, output_len=10, arrival_time=0.05 * i)
        for i in range(16)
    ]
    return compare_schedulers(
        deployment,
        trace,
        schedulers=("vllm", "sarathi"),
        token_budget=256,
    )


class TestCompareSchedulers:
    def test_row_per_scheduler(self, rows):
        assert [r.scheduler for r in rows] == ["vllm", "sarathi"]

    def test_metrics_populated(self, rows):
        for row in rows:
            assert row.median_ttft > 0
            assert row.p99_tbt > 0
            assert row.throughput_tokens_per_s > 0

    def test_sarathi_has_smaller_stalls(self, rows):
        by_name = {r.scheduler: r for r in rows}
        assert by_name["sarathi"].worst_stall <= by_name["vllm"].worst_stall

    def test_empty_trace_rejected(self):
        from repro.api import Deployment
        from repro.hardware.catalog import A100_80G
        from repro.models.catalog import TINY_1B

        with pytest.raises(ValueError):
            compare_schedulers(Deployment(model=TINY_1B, gpu=A100_80G), [])


class TestBenchReport:
    CASE = BenchCase(
        name="capacity_sweep_dynamic",
        uncached_seconds=20.0,
        cached_seconds=2.0,
        identical=True,
        cache_hits=30,
        cache_misses=10,
        work_hits=970,
        work_misses=30,
        detail="tiny run",
    )

    def test_derived_rates(self):
        assert self.CASE.speedup == pytest.approx(10.0)
        assert self.CASE.hit_rate == pytest.approx(0.75)
        assert self.CASE.work_hit_rate == pytest.approx(0.97)

    def test_zero_cached_seconds_is_inf_speedup(self):
        case = BenchCase(
            name="x", uncached_seconds=1.0, cached_seconds=0.0, identical=True
        )
        assert case.speedup == float("inf")

    def test_payload_shape(self):
        payload = make_bench_payload([self.CASE], meta={"seed": 0})
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["meta"] == {"seed": 0}
        (row,) = payload["cases"]
        assert row["speedup"] == pytest.approx(10.0)
        assert row["identical"] is True

    def test_payload_requires_cases(self):
        with pytest.raises(ValueError):
            make_bench_payload([])

    def test_json_roundtrip(self, tmp_path):
        path = write_bench_json(tmp_path / "bench.json", [self.CASE], {"q": True})
        assert read_bench_json(path) == make_bench_payload([self.CASE], {"q": True})

    def test_render_table(self):
        text = render_bench_table([self.CASE])
        assert "capacity_sweep_dynamic" in text
        assert "10.0" in text and "yes" in text


class TestRenderMarkdown:
    def test_table_structure(self, rows):
        text = render_markdown(rows, title="test run")
        lines = text.splitlines()
        assert lines[0] == "### test run"
        assert lines[2].startswith("| scheduler |")
        # Header row plus one row per scheduler (separator starts "|--").
        assert len([l for l in lines if l.startswith("| ")]) == 1 + len(rows)

    def test_no_title(self, rows):
        text = render_markdown(rows)
        assert not text.startswith("###")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            render_markdown([])
