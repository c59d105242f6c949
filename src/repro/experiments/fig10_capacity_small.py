"""Figure 10: serving capacity of Mistral-7B and Yi-34B.

Orca vs vLLM vs Sarathi-Serve across both datasets under strict and
relaxed SLOs.  The paper's headline: Sarathi sustains up to 2.6×
(Mistral) and 3.7× (Yi) higher load than vLLM, with the gap widest
under strict SLOs and on the long-prompt arxiv workload.
"""

from __future__ import annotations

from repro.api import Deployment
from repro.experiments.capacity_runner import (
    CapacityCell,
    CapacityCellSpec,
    run_capacity_cells,
)
from repro.experiments.common import DEFAULT, Scale, mistral_deployment, yi_deployment
from repro.workload.datasets import ARXIV_SUMMARIZATION, SHAREGPT4, DatasetSpec

CAPACITY_SCHEDULERS = ("orca", "vllm", "sarathi")

# Search hints keep probe counts low; searches expand beyond them.
_QPS_HINTS = {
    ("Mistral-7B", "openchat_sharegpt4"): 2.0,
    ("Mistral-7B", "arxiv_summarization"): 0.6,
    ("Yi-34B", "openchat_sharegpt4"): 1.0,
    ("Yi-34B", "arxiv_summarization"): 0.4,
}


def capacity_grid_specs(
    scale: Scale,
    deployments: tuple[Deployment, ...],
    datasets: tuple[DatasetSpec, ...],
    schedulers: tuple[str, ...],
    strict_values: tuple[bool, ...],
    hints: dict[tuple[str, str], float] | None = None,
    default_hint: float = 0.5,
) -> list[CapacityCellSpec]:
    """Canonically-ordered cell specs for a Fig. 10/11-shaped grid."""
    hints = hints if hints is not None else _QPS_HINTS
    specs = []
    for deployment in deployments:
        for dataset in datasets:
            hint = hints.get((deployment.model.name, dataset.name), default_hint)
            for strict in strict_values:
                for scheduler in schedulers:
                    specs.append(
                        CapacityCellSpec(
                            deployment=deployment,
                            scheduler=scheduler,
                            dataset=dataset,
                            scale=scale,
                            strict=strict,
                            qps_hint=hint,
                        )
                    )
    return specs


def run_capacity_grid(
    scale: Scale = DEFAULT,
    deployments: tuple[Deployment, ...] | None = None,
    datasets: tuple[DatasetSpec, ...] = (SHAREGPT4, ARXIV_SUMMARIZATION),
    schedulers: tuple[str, ...] = CAPACITY_SCHEDULERS,
    strict_values: tuple[bool, ...] = (True, False),
) -> list[CapacityCell]:
    """The full Fig. 10 grid (or any sub-grid), via the sweep engine.

    The ``REPRO_*`` sweep variables (``REPRO_JOBS``, ``REPRO_RUN_DIR``
    and ``REPRO_RESUME``) fan the cells out and journal them for
    resume; see :func:`repro.experiments.capacity_runner.run_capacity_cells`.
    """
    if deployments is None:
        deployments = (mistral_deployment(), yi_deployment())
    specs = capacity_grid_specs(
        scale, deployments, datasets, schedulers, strict_values
    )
    outcomes = run_capacity_cells(specs)
    return [outcome.cell for outcome in outcomes]


def sarathi_gain_over(cells: list[CapacityCell], baseline: str) -> dict[tuple, float]:
    """Sarathi capacity ÷ baseline capacity, per (deployment, dataset, slo)."""
    table: dict[tuple, dict[str, float]] = {}
    for cell in cells:
        key = (cell.deployment, cell.dataset, cell.slo_name)
        table.setdefault(key, {})[cell.scheduler] = cell.capacity_qps
    gains = {}
    for key, by_sched in table.items():
        if "sarathi" in by_sched and baseline in by_sched and by_sched[baseline] > 0:
            gains[key] = by_sched["sarathi"] / by_sched[baseline]
    return gains
