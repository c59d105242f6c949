"""Figure 13: cross-node tensor parallelism vs pipeline parallelism.

(a) Decode-only TBT for Falcon-180B: 8-way TP spanning two nodes pays
per-layer allreduces over Ethernet and roughly doubles median TBT
versus TP4-within-node + PP2-across-nodes.

(b) Capacity on openchat_sharegpt4 for vLLM-TP8, vLLM-PP and
Sarathi-PP: TP8's latency floor caps its capacity even under relaxed
SLOs; vLLM-PP suffers pipeline bubbles under strict SLOs; Sarathi-PP
wins both regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment
from repro.experiments.capacity_runner import (
    CapacityCellSpec,
    run_capacity_cells,
    serving_config_for,
)
from repro.experiments.common import (
    DEFAULT,
    Scale,
    falcon_deployment,
    falcon_tp8_cross_node_deployment,
)
from repro.metrics.slo import derived_slo
from repro.types import TokenWork
from repro.workload.datasets import SHAREGPT4


@dataclass(frozen=True)
class DecodeLatencyPoint:
    """Fig. 13a: decode-only iteration latency of one parallel layout."""

    layout: str
    batch_size: int
    tbt: float


def run_decode_latency(
    batch_sizes: tuple[int, ...] = (8, 16, 32, 64),
    context_len: int = 1024,
) -> list[DecodeLatencyPoint]:
    """Decode-only TBT for TP8-cross-node vs TP4-PP2-hybrid."""
    tp8 = falcon_tp8_cross_node_deployment().execution_model()
    hybrid = falcon_deployment().execution_model()
    points = []
    for bs in batch_sizes:
        points.append(
            DecodeLatencyPoint(
                layout="TP8-cross-node",
                batch_size=bs,
                tbt=tp8.decode_iteration_time(bs, context_len).total,
            )
        )
        # The hybrid pipeline's TBT spans both stage executions plus the
        # inter-stage activation hop.
        stage = hybrid.decode_iteration_time(bs, context_len)
        decode_works = [TokenWork.decode(context_len) for _ in range(bs)]
        send = hybrid.pipeline_send_time(decode_works)
        points.append(
            DecodeLatencyPoint(
                layout="TP4-PP2-hybrid",
                batch_size=bs,
                tbt=2 * stage.total + send,
            )
        )
    return points


@dataclass(frozen=True)
class ParallelCapacityCell:
    """Fig. 13b: capacity of one (system, layout) pair."""

    system: str
    slo_name: str
    capacity_qps: float


def run_parallel_capacity(
    scale: Scale = DEFAULT,
    strict_values: tuple[bool, ...] = (True, False),
) -> list[ParallelCapacityCell]:
    """Capacity of vLLM-TP8, vLLM-PP and Sarathi-PP (Fig. 13b)."""
    tp8 = falcon_tp8_cross_node_deployment()
    pp = falcon_deployment()
    systems: list[tuple[str, Deployment, str]] = [
        ("vllm-TP8", tp8, "vllm"),
        ("vllm-PP", pp, "vllm"),
        ("sarathi-PP", pp, "sarathi"),
    ]
    specs = []
    for strict in strict_values:
        # One SLO for all three systems, anchored on the *hybrid* layout
        # (the paper anchors SLOs per model, not per parallel layout).
        slo = derived_slo(pp.execution_model(), strict)
        for name, deployment, scheduler in systems:
            config = serving_config_for(deployment, scheduler, strict)
            specs.append(
                CapacityCellSpec(
                    deployment=deployment,
                    scheduler=scheduler,
                    dataset=SHAREGPT4,
                    scale=scale,
                    config=config,
                    slo=slo,
                    qps_hint=0.4,
                    variant=name,
                )
            )
    outcomes = run_capacity_cells(specs)
    return [
        ParallelCapacityCell(
            system=outcome.variant,
            slo_name=outcome.cell.slo_name,
            capacity_qps=outcome.cell.capacity_qps,
        )
        for outcome in outcomes
    ]
