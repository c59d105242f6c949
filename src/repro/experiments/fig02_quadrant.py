"""Figure 2: the throughput–latency quadrant of scheduling policies.

The paper's Fig. 2 is illustrative; here we make it quantitative by
running all four schedulers on the same trace and placing each at its
(throughput, P99 TBT) operating point.  Expected ordering:

* FasterTransformer — low TBT, low throughput (decode-prioritizing);
* Orca / vLLM — high throughput, high TBT (prefill-prioritizing);
* Sarathi-Serve — high throughput *and* low TBT (stall-free).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment, ServingConfig, simulate
from repro.experiments.common import DEFAULT, STRICT_TOKEN_BUDGET, Scale, mistral_deployment
from repro.workload.datasets import SHAREGPT4, generate_requests

QUADRANT_SCHEDULERS = ("faster_transformer", "orca", "vllm", "sarathi")


@dataclass(frozen=True)
class QuadrantPoint:
    """One scheduler's operating point."""

    scheduler: str
    throughput_tokens_per_s: float
    p99_tbt: float
    median_ttft: float


def run_quadrant(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 1.5,
) -> list[QuadrantPoint]:
    """Place each scheduler in the throughput/latency plane."""
    deployment = deployment or mistral_deployment()
    trace = generate_requests(
        SHAREGPT4, num_requests=scale.num_requests, qps=qps, seed=scale.seed
    )
    points = []
    for kind in QUADRANT_SCHEDULERS:
        config = ServingConfig(scheduler=kind, token_budget=STRICT_TOKEN_BUDGET)
        _, metrics = simulate(deployment, config, trace)
        points.append(
            QuadrantPoint(
                scheduler=kind,
                throughput_tokens_per_s=metrics.throughput_tokens_per_s,
                p99_tbt=metrics.p99_tbt,
                median_ttft=metrics.median_ttft,
            )
        )
    return points
