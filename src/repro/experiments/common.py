"""Shared plumbing for the per-figure experiment runners.

Deployment presets mirror Table 1; ``Scale`` bundles the knobs that
trade fidelity for wall-clock (request counts, search tolerance) so
benchmarks can run in minutes while still exercising every code path
the paper's full-scale experiments exercise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.api import Deployment
from repro.hardware.catalog import A40_48G, A100_80G, ETHERNET_100G
from repro.parallel.config import ParallelConfig
from repro.models.catalog import FALCON_180B, LLAMA2_70B, MISTRAL_7B, YI_34B


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs.

    ``full`` mirrors the paper's scale; ``default`` keeps every capacity
    search under a couple of minutes; ``smoke`` is for CI.
    """

    num_requests: int
    capacity_rel_tol: float
    capacity_max_probes: int
    seed: int = 0


SMOKE = Scale(num_requests=40, capacity_rel_tol=0.35, capacity_max_probes=7)
DEFAULT = Scale(num_requests=128, capacity_rel_tol=0.15, capacity_max_probes=12)
FULL = Scale(num_requests=512, capacity_rel_tol=0.08, capacity_max_probes=18)


def scale_from_env(default: Scale = DEFAULT) -> Scale:
    """Pick a scale via ``REPRO_SCALE`` (smoke|default|full)."""
    name = os.environ.get("REPRO_SCALE", "").lower()
    if name == "smoke":
        return SMOKE
    if name == "full":
        return FULL
    if name in ("", "default"):
        return default
    raise ValueError(f"unknown REPRO_SCALE {name!r} (use smoke|default|full)")


# ----------------------------------------------------------------------
# Table 1 deployments
# ----------------------------------------------------------------------
def mistral_deployment() -> Deployment:
    """Mistral-7B on a single A100."""
    return Deployment(model=MISTRAL_7B, gpu=A100_80G)


def yi_deployment() -> Deployment:
    """Yi-34B on two A100s (TP2, NVLink)."""
    return Deployment(
        model=YI_34B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=2)
    )


def llama70_deployment() -> Deployment:
    """LLaMA2-70B on eight A40s (TP4-PP2, PCIe-class pipe via Ethernet)."""
    return Deployment(
        model=LLAMA2_70B,
        gpu=A40_48G,
        parallel=ParallelConfig(
            tensor_parallel=4, pipeline_parallel=2, pp_link=ETHERNET_100G
        ),
    )


def falcon_deployment() -> Deployment:
    """Falcon-180B on 2×4 A100s (TP4 in-node, PP2 over 100G Ethernet)."""
    return Deployment(
        model=FALCON_180B,
        gpu=A100_80G,
        parallel=ParallelConfig(
            tensor_parallel=4, pipeline_parallel=2, pp_link=ETHERNET_100G
        ),
    )


def falcon_tp8_cross_node_deployment() -> Deployment:
    """Falcon-180B with 8-way TP spanning two nodes (Fig. 13's strawman).

    A TP8 ring across two 4-GPU nodes funnels four GPU pairs' traffic
    through each node's single 100G NIC, so the effective per-GPU
    cross-node bandwidth is a quarter of the link's, with extra
    software latency from multi-rail contention.
    """
    from repro.hardware.interconnect import LinkSpec

    shared_nic = LinkSpec(
        name="Ethernet-100G-shared-x4",
        bandwidth=ETHERNET_100G.bandwidth / 4,
        latency=2 * ETHERNET_100G.latency,
    )
    return Deployment(
        model=FALCON_180B,
        gpu=A100_80G,
        parallel=ParallelConfig(tensor_parallel=8, tp_link=shared_nic),
    )


# Token budgets the paper uses per SLO regime (§5.1).
STRICT_TOKEN_BUDGET = 512
RELAXED_TOKEN_BUDGET = 2048
LLAMA_RELAXED_TOKEN_BUDGET = 1536


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Plain-text table for bench output (no external dependencies)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
