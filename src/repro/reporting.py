"""Comparison and perf-trajectory reports.

One call replays the same trace under several schedulers and renders a
markdown table of the paper's key metrics — the quickest way to see
the throughput-latency tradeoff on a new deployment or workload.
Exposed on the CLI as ``python -m repro compare``.

The module also defines the perf-regression report format: each
``BenchCase`` times one workload on the cached and uncached execution
models (``repro.perf.cache``) and asserts the outputs stayed
bit-identical; ``write_bench_json`` persists the cases as
``BENCH_simulator.json`` so successive PRs have a speed trajectory to
compare against (see ``benchmarks/bench_simulator_speed.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.api import Deployment, ServingConfig, simulate
from repro.metrics.timeline import longest_stall
from repro.types import Request

DEFAULT_COMPARISON = ("faster_transformer", "orca", "vllm", "sarathi")


@dataclass(frozen=True)
class ComparisonRow:
    """One scheduler's metrics on the shared trace."""

    scheduler: str
    median_ttft: float
    p99_tbt: float
    max_tbt: float
    worst_stall: float
    throughput_tokens_per_s: float
    num_preemptions: int


def compare_schedulers(
    deployment: Deployment,
    requests: list[Request],
    schedulers: tuple[str, ...] = DEFAULT_COMPARISON,
    token_budget: int = 512,
    max_batch_size: int = 128,
) -> list[ComparisonRow]:
    """Replay ``requests`` under each scheduler and collect metrics."""
    if not requests:
        raise ValueError("compare_schedulers needs a non-empty trace")
    rows = []
    for kind in schedulers:
        config = ServingConfig(
            scheduler=kind,
            token_budget=token_budget,
            max_batch_size=max_batch_size,
        )
        result, metrics = simulate(deployment, config, requests)
        rows.append(
            ComparisonRow(
                scheduler=kind,
                median_ttft=metrics.median_ttft,
                p99_tbt=metrics.p99_tbt,
                max_tbt=metrics.max_tbt,
                worst_stall=longest_stall(result.finished_requests),
                throughput_tokens_per_s=metrics.throughput_tokens_per_s,
                num_preemptions=metrics.num_preemptions,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Perf-regression reporting (BENCH_simulator.json)
# ----------------------------------------------------------------------
BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchCase:
    """One workload timed on the uncached vs the cached execution model.

    ``identical`` records whether the two paths produced bit-identical
    simulation outputs — a speedup only counts when it is True.
    """

    name: str
    uncached_seconds: float
    cached_seconds: float
    identical: bool
    cache_hits: int = 0
    cache_misses: int = 0
    work_hits: int = 0
    work_misses: int = 0
    detail: str = ""

    @property
    def speedup(self) -> float:
        if self.cached_seconds <= 0:
            return float("inf")
        return self.uncached_seconds / self.cached_seconds

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def work_hit_rate(self) -> float:
        total = self.work_hits + self.work_misses
        return self.work_hits / total if total else 0.0

    def as_row(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "uncached_seconds": self.uncached_seconds,
            "cached_seconds": self.cached_seconds,
            "speedup": self.speedup,
            "identical": self.identical,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "work_hits": self.work_hits,
            "work_misses": self.work_misses,
            "work_hit_rate": self.work_hit_rate,
            "detail": self.detail,
        }


def bench_payload(
    cases: list[BenchCase], meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The JSON document ``BENCH_simulator.json`` holds."""
    if not cases:
        raise ValueError("a bench payload needs at least one case")
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "simulator_speed",
        "meta": meta or {},
        "cases": [case.as_row() for case in cases],
    }


def write_bench_json(
    path: str | Path, cases: list[BenchCase], meta: dict[str, Any] | None = None
) -> Path:
    """Persist a perf-regression report; returns the resolved path."""
    path = Path(path)
    path.write_text(json.dumps(bench_payload(cases, meta), indent=2) + "\n")
    return path


def read_bench_json(path: str | Path) -> dict[str, Any]:
    """Load a previously written perf-regression report."""
    return json.loads(Path(path).read_text())


def render_bench_table(cases: list[BenchCase]) -> str:
    """Plain-text summary of a perf-regression run."""
    from repro.experiments.common import format_table

    headers = ["case", "uncached (s)", "cached (s)", "speedup", "component hits", "work hits", "identical"]
    rows = [
        [
            case.name,
            f"{case.uncached_seconds:.2f}",
            f"{case.cached_seconds:.2f}",
            f"{case.speedup:.2f}x",
            f"{case.hit_rate:.0%}",
            f"{case.work_hit_rate:.0%}",
            "yes" if case.identical else "NO",
        ]
        for case in cases
    ]
    return format_table(headers, rows)


def render_markdown(rows: list[ComparisonRow], title: str = "") -> str:
    """A GitHub-flavoured markdown table of the comparison."""
    if not rows:
        raise ValueError("nothing to render")
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append(
        "| scheduler | median TTFT (s) | P99 TBT (s) | worst stall (s) "
        "| throughput (tok/s) | preemptions |"
    )
    lines.append("|---|---|---|---|---|---|")
    for row in rows:
        lines.append(
            f"| {row.scheduler} | {row.median_ttft:.3f} | {row.p99_tbt:.3f} "
            f"| {row.worst_stall:.2f} | {row.throughput_tokens_per_s:.0f} "
            f"| {row.num_preemptions} |"
        )
    return "\n".join(lines)
