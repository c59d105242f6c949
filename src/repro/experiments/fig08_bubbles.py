"""Figure 8: pipeline bubbles under Orca vs Sarathi-Serve.

With pipeline parallelism, consecutive micro-batches of very different
compute (a 4k-token prefill followed by a 32-wide decode) leave later
stages idle — bubbles PB1/PB2/PB3 in the paper.  Sarathi's
uniform-compute hybrid batches shrink inter-batch variation and with
it the bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import Deployment, ServingConfig, simulate
from repro.experiments.common import DEFAULT, Scale, falcon_deployment
from repro.metrics.timeline import pipeline_bubble_time, stage_utilization
from repro.workload.datasets import SHAREGPT4, generate_requests


@dataclass(frozen=True)
class BubbleReport:
    """Pipeline bubble accounting for one scheduler."""

    scheduler: str
    bubble_fraction_last_stage: float
    bubble_time: float
    num_bubbles: int
    iteration_time_cv: float    # coefficient of variation across batches
    makespan: float


def run_bubble_comparison(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 1.0,
    token_budget: int = 512,
) -> list[BubbleReport]:
    """Compare bubble waste between Orca and Sarathi on a PP deployment."""
    deployment = deployment or falcon_deployment()
    if deployment.parallel.pipeline_parallel < 2:
        raise ValueError("bubble comparison needs a pipeline-parallel deployment")
    trace = generate_requests(
        SHAREGPT4, num_requests=scale.num_requests, qps=qps, seed=scale.seed
    )
    reports = []
    for kind in ("orca", "sarathi"):
        config = ServingConfig(scheduler=kind, token_budget=token_budget)
        result, metrics = simulate(deployment, config, trace)
        last = deployment.parallel.pipeline_parallel - 1
        util = stage_utilization(result.records, last)
        num_bubbles, bubble_time = pipeline_bubble_time(result.records, last)
        durations = [r.duration for r in result.records if r.stage == 0]
        cv = float(np.std(durations) / np.mean(durations)) if durations else 0.0
        span = util.span if util.span > 0 else 1.0
        reports.append(
            BubbleReport(
                scheduler=kind,
                bubble_fraction_last_stage=bubble_time / span,
                bubble_time=bubble_time,
                num_bubbles=num_bubbles,
                iteration_time_cv=cv,
                makespan=metrics.makespan,
            )
        )
    return reports
