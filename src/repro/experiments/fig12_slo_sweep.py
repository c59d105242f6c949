"""Figure 12: the throughput–latency tradeoff swept across SLO targets.

For each P99-TBT SLO value, capacity is searched for vLLM at max batch
sizes 32/64/128 and Sarathi-Serve at token budgets 512/2048 (batch
128).  The paper's findings: vLLM's capacity is nearly identical
across batch sizes (generation stalls, not memory, are its binding
constraint) and collapses under stringent SLOs, while Sarathi trades
smoothly — small budgets win strict SLOs, large budgets win relaxed
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment, ServingConfig
from repro.experiments.capacity_runner import CapacityCellSpec, run_capacity_cells
from repro.experiments.common import DEFAULT, Scale, mistral_deployment
from repro.metrics.slo import SLOSpec
from repro.perf.profiler import reference_decode_time
from repro.workload.datasets import SHAREGPT4, DatasetSpec

VLLM_BATCH_SIZES = (32, 64, 128)
SARATHI_BUDGETS = (512, 2048)
# SLO targets as multiples of the reference decode-iteration latency
# (5× is the paper's strict setting, 25× its relaxed one).
SLO_MULTIPLIERS = (3.0, 5.0, 10.0, 25.0, 40.0)


@dataclass(frozen=True)
class SweepPoint:
    """Capacity of one variant at one SLO value."""

    variant: str
    slo_p99_tbt: float
    capacity_qps: float


def sweep_variants(deployment: Deployment) -> dict[str, ServingConfig]:
    """The Fig. 12 scheduler variants."""
    variants: dict[str, ServingConfig] = {}
    for bs in VLLM_BATCH_SIZES:
        variants[f"vllm-bs{bs}"] = ServingConfig(
            scheduler="vllm", max_batch_size=bs
        )
    for budget in SARATHI_BUDGETS:
        variants[f"sarathi-{budget}"] = ServingConfig(
            scheduler="sarathi", token_budget=budget, max_batch_size=128
        )
    return variants


def run_slo_sweep(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    dataset: DatasetSpec = SHAREGPT4,
    slo_multipliers: tuple[float, ...] = SLO_MULTIPLIERS,
    qps_hint: float = 3.0,
) -> list[SweepPoint]:
    """Capacity vs SLO for every Fig. 12 variant."""
    deployment = deployment or mistral_deployment()
    reference = reference_decode_time(deployment.execution_model())
    variants = sweep_variants(deployment)
    specs = []
    for multiplier in slo_multipliers:
        slo = SLOSpec(name=f"{multiplier:g}x", p99_tbt=multiplier * reference)
        for variant, config in variants.items():
            specs.append(
                CapacityCellSpec(
                    deployment=deployment,
                    scheduler=config.scheduler,
                    dataset=dataset,
                    scale=scale,
                    config=config,
                    slo=slo,
                    qps_hint=qps_hint,
                    variant=variant,
                )
            )
    outcomes = run_capacity_cells(specs)
    return [
        SweepPoint(
            variant=outcome.variant,
            slo_p99_tbt=outcome.cell.slo_p99_tbt,
            capacity_qps=outcome.cell.capacity_qps,
        )
        for outcome in outcomes
    ]
