"""Figure 11: serving capacity of the pipeline-parallel deployments.

LLaMA2-70B (8×A40, TP4-PP2) and Falcon-180B (2×4 A100, TP4-PP2 over
100G Ethernet).  Sarathi's uniform batches avoid pipeline bubbles on
top of avoiding generation stalls, so its gains are largest here
(up to 5.6× end-to-end in the paper).
"""

from __future__ import annotations

from repro.api import Deployment
from repro.experiments.capacity_runner import CapacityCell, run_capacity_cells
from repro.experiments.common import (
    DEFAULT,
    Scale,
    falcon_deployment,
    llama70_deployment,
)
from repro.experiments.fig10_capacity_small import (
    CAPACITY_SCHEDULERS,
    capacity_grid_specs,
)
from repro.workload.datasets import ARXIV_SUMMARIZATION, SHAREGPT4, DatasetSpec

_QPS_HINTS = {
    ("LLaMA2-70B", "openchat_sharegpt4"): 0.5,
    ("LLaMA2-70B", "arxiv_summarization"): 0.2,
    ("Falcon-180B", "openchat_sharegpt4"): 0.4,
    ("Falcon-180B", "arxiv_summarization"): 0.15,
}


def run_capacity_grid_pp(
    scale: Scale = DEFAULT,
    deployments: tuple[Deployment, ...] | None = None,
    datasets: tuple[DatasetSpec, ...] = (SHAREGPT4, ARXIV_SUMMARIZATION),
    schedulers: tuple[str, ...] = CAPACITY_SCHEDULERS,
    strict_values: tuple[bool, ...] = (True, False),
) -> list[CapacityCell]:
    """The Fig. 11 grid for pipeline-parallel models."""
    if deployments is None:
        deployments = (llama70_deployment(), falcon_deployment())
    specs = capacity_grid_specs(
        scale,
        deployments,
        datasets,
        schedulers,
        strict_values,
        hints=_QPS_HINTS,
        default_hint=0.3,
    )
    outcomes = run_capacity_cells(specs)
    return [outcome.cell for outcome in outcomes]
