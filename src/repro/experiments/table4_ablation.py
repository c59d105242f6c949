"""Table 4: each technique in isolation vs the combination.

Yi-34B (TP2), token budget 1024, 128 requests per dataset.  The
paper's finding: *hybrid-batching-only* keeps TTFT low but long
prompts still stall decodes (high P99 TBT); *chunked-prefills-only*
bounds TBT but inflates TTFT (chunks are slightly inefficient and
don't ride along with decodes); together they dominate on both axes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment, ServingConfig, simulate
from repro.experiments.common import DEFAULT, Scale, yi_deployment
from repro.workload.datasets import (
    ARXIV_SUMMARIZATION,
    SHAREGPT4,
    DatasetSpec,
    generate_requests,
)

ABLATION_TOKEN_BUDGET = 1024

ABLATION_SCHEDULERS = ("hybrid_batching_only", "chunked_prefills_only", "sarathi")

# Load points chosen near (but under) Sarathi's capacity so differences
# show without the queue blowing up.
_DATASET_QPS = {
    "openchat_sharegpt4": 0.7,
    "arxiv_summarization": 0.25,
}


@dataclass(frozen=True)
class AblationRow:
    """One (scheduler, dataset) cell of Table 4."""

    scheduler: str
    dataset: str
    p50_ttft: float
    p99_tbt: float


def run_ablation(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    datasets: tuple[DatasetSpec, ...] = (SHAREGPT4, ARXIV_SUMMARIZATION),
    token_budget: int = ABLATION_TOKEN_BUDGET,
) -> list[AblationRow]:
    """Reproduce Table 4's TTFT/TBT grid."""
    deployment = deployment or yi_deployment()
    rows = []
    for dataset in datasets:
        qps = _DATASET_QPS.get(dataset.name, 0.5)
        for kind in ABLATION_SCHEDULERS:
            config = ServingConfig(scheduler=kind, token_budget=token_budget)
            trace = generate_requests(
                dataset, num_requests=scale.num_requests, qps=qps, seed=scale.seed
            )
            _, metrics = simulate(deployment, config, trace)
            rows.append(
                AblationRow(
                    scheduler=kind,
                    dataset=dataset.name,
                    p50_ttft=metrics.median_ttft,
                    p99_tbt=metrics.p99_tbt,
                )
            )
    return rows
