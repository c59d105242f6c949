"""Aggregate a simulation run into the paper's reported metrics.

The paper focuses on **median TTFT** (once per request) and **P99 TBT**
(one sample per decode token, pooled across requests) — §5 "Metrics".
We also report scheduling delay (sustainability check), throughput and
stall/bubble diagnostics.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.slo import SLOSpec
from repro.metrics.stats import percentile, percentile_in_place
from repro.metrics.timeline import stage_utilization

if TYPE_CHECKING:  # avoid a runtime cycle with repro.engine.replica
    from repro.engine.replica import SimulationResult


@dataclass(frozen=True)
class RunMetrics:
    """Latency and throughput summary of one simulation run."""

    num_requests: int
    makespan: float
    median_ttft: float
    p90_ttft: float
    p99_ttft: float
    median_tbt: float
    p99_tbt: float
    max_tbt: float
    median_scheduling_delay: float
    p99_scheduling_delay: float
    output_tokens: int
    total_tokens: int
    num_preemptions: int
    throughput_rps: float
    throughput_tokens_per_s: float
    mean_bubble_fraction: float

    def meets(self, slo: SLOSpec) -> bool:
        """Whether this run satisfies an SLO (latency + sustainability)."""
        return (
            self.p99_tbt <= slo.p99_tbt
            and self.median_scheduling_delay <= slo.max_median_scheduling_delay
        )


def summarize(result: "SimulationResult") -> RunMetrics:
    """Compute ``RunMetrics`` from a finished simulation.

    TBT samples are taken from tokens emitted while load was still
    being offered (up to the last request arrival).  Without this
    window, a finite trace's *drain phase* — where a backlogged
    prefill-prioritizing scheduler degenerates into one giant prefill
    burst followed by stall-free decodes — would dilute the tail and
    make an unsustainable operating point look healthy.  Closed-loop
    traces (every request arrives at t=0) keep all samples.
    """
    finished = result.finished_requests
    if not finished:
        raise ValueError("no finished requests to summarize")

    ttfts = [r.ttft for r in finished]
    delays = [r.scheduling_delay for r in finished]
    window_end = max(r.arrival_time for r in result.requests)
    # Token times never decrease, so a request's windowed gaps are a
    # prefix of its gaps: those between its first ``k`` timestamps.
    ends = [bisect_right(r.token_times, window_end) for r in finished]
    if all(k < 2 for k in ends):
        # Closed-loop trace or too-short window: use every sample.
        ends = [len(r.token_times) for r in finished]
    tbts = _gap_pool(finished, ends)
    if not len(tbts):
        # Degenerate single-token outputs report zeros rather than fail.
        tbts = np.zeros(1)

    output_tokens = sum(r.num_emitted for r in finished)
    total_tokens = sum(r.prompt_len + r.num_emitted for r in finished)
    makespan = result.makespan

    # Per replica and stage, then averaged: in a fleet's chained log one
    # replica's batches would fill another's idle gaps.
    bubble_fracs = [
        stage_utilization(log, s).bubble_fraction
        for log in result.replica_logs or (result.records,)
        for s in range(result.num_stages)
    ]

    return RunMetrics(
        num_requests=len(finished),
        makespan=makespan,
        median_ttft=percentile(ttfts, 50),
        p90_ttft=percentile(ttfts, 90),
        p99_ttft=percentile(ttfts, 99),
        median_tbt=percentile_in_place(tbts, 50),
        p99_tbt=percentile_in_place(tbts, 99),
        max_tbt=float(tbts.max()),
        median_scheduling_delay=percentile(delays, 50),
        p99_scheduling_delay=percentile(delays, 99),
        output_tokens=output_tokens,
        total_tokens=total_tokens,
        num_preemptions=result.num_preemptions,
        throughput_rps=len(finished) / makespan if makespan > 0 else 0.0,
        throughput_tokens_per_s=total_tokens / makespan if makespan > 0 else 0.0,
        mean_bubble_fraction=sum(bubble_fracs) / len(bubble_fracs),
    )


def _gap_pool(requests: list, ends: list[int]) -> np.ndarray:
    """The gaps between each request's first ``ends[i]`` token times.

    Each request's gaps are written straight into one pool from its
    packed timestamps: no Python float per gap and no temporary array
    per request.
    """
    pool = np.empty(sum(k - 1 for k in ends if k > 1))
    filled = 0
    for request, k in zip(requests, ends):
        if k > 1:
            times = np.frombuffer(request.token_times)
            np.subtract(times[1:k], times[: k - 1], out=pool[filled : filled + k - 1])
            filled += k - 1
    return pool
