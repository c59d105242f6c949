"""Figure 1: generation stalls and tail latency vs load.

(a) replays an arxiv-summarization trace of 128 requests on Yi-34B
(TP2) and extracts each scheduler's generation stalls — inter-token
gaps far above the decode-only latency; vLLM shows multi-second
stalls, Sarathi-Serve shows none.

(b) sweeps the arrival rate and reports P99 TBT per scheduler: vLLM's
tail inflates with load, Sarathi-Serve's stays near the iteration
budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment, ServingConfig, simulate
from repro.experiments.common import (
    DEFAULT,
    STRICT_TOKEN_BUDGET,
    Scale,
    yi_deployment,
)
from repro.metrics.timeline import generation_stalls
from repro.workload.datasets import ARXIV_SUMMARIZATION, generate_requests

# Inter-token gaps above this count as stalls for reporting (several ×
# the decode-only iteration latency).
STALL_THRESHOLD = 0.5


@dataclass(frozen=True)
class StallReport:
    """Per-scheduler stall statistics for the Fig. 1a trace replay."""

    scheduler: str
    num_stalls: int
    max_stall: float
    p99_tbt: float
    median_tbt: float


def run_stall_timeline(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 0.45,
) -> list[StallReport]:
    """Fig. 1a: replay one trace under vLLM and Sarathi-Serve."""
    deployment = deployment or yi_deployment()
    trace = generate_requests(
        ARXIV_SUMMARIZATION, num_requests=scale.num_requests, qps=qps, seed=scale.seed
    )
    reports = []
    for kind in ("vllm", "sarathi"):
        config = ServingConfig(scheduler=kind, token_budget=STRICT_TOKEN_BUDGET)
        result, metrics = simulate(deployment, config, trace)
        stalls: list[float] = []
        for request in result.finished_requests:
            stalls.extend(generation_stalls(request, STALL_THRESHOLD))
        reports.append(
            StallReport(
                scheduler=kind,
                num_stalls=len(stalls),
                max_stall=max(stalls, default=0.0),
                p99_tbt=metrics.p99_tbt,
                median_tbt=metrics.median_tbt,
            )
        )
    return reports


@dataclass(frozen=True)
class LoadPoint:
    """One (scheduler, qps) probe of the Fig. 1b sweep."""

    scheduler: str
    qps: float
    p99_tbt: float
    max_tbt: float
    median_ttft: float


def run_tbt_vs_load(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps_values: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65),
) -> list[LoadPoint]:
    """Fig. 1b: P99 TBT as the arrival rate rises."""
    deployment = deployment or yi_deployment()
    points = []
    for qps in qps_values:
        trace = generate_requests(
            ARXIV_SUMMARIZATION,
            num_requests=scale.num_requests,
            qps=qps,
            seed=scale.seed,
        )
        for kind in ("vllm", "sarathi"):
            config = ServingConfig(scheduler=kind, token_budget=STRICT_TOKEN_BUDGET)
            _, metrics = simulate(deployment, config, trace)
            points.append(
                LoadPoint(
                    scheduler=kind,
                    qps=qps,
                    p99_tbt=metrics.p99_tbt,
                    max_tbt=metrics.max_tbt,
                    median_ttft=metrics.median_ttft,
                )
            )
    return points
