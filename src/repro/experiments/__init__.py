"""Per-figure experiment runners reproducing the paper's evaluation.

Each module reproduces one figure or table; benchmarks under
``benchmarks/`` call these and print the paper-vs-measured rows
recorded in ``EXPERIMENTS.md``.
"""

from repro.experiments.common import (
    DEFAULT,
    FULL,
    LLAMA_RELAXED_TOKEN_BUDGET,
    RELAXED_TOKEN_BUDGET,
    SMOKE,
    STRICT_TOKEN_BUDGET,
    Scale,
    falcon_deployment,
    falcon_tp8_cross_node_deployment,
    format_table,
    llama70_deployment,
    mistral_deployment,
    scale_from_env,
    yi_deployment,
)
from repro.experiments.capacity_runner import (
    CapacityCell,
    measure_capacity,
    serving_config_for,
    token_budget_for,
)

__all__ = [
    "Scale",
    "SMOKE",
    "DEFAULT",
    "FULL",
    "scale_from_env",
    "mistral_deployment",
    "yi_deployment",
    "llama70_deployment",
    "falcon_deployment",
    "falcon_tp8_cross_node_deployment",
    "STRICT_TOKEN_BUDGET",
    "RELAXED_TOKEN_BUDGET",
    "LLAMA_RELAXED_TOKEN_BUDGET",
    "format_table",
    "CapacityCell",
    "measure_capacity",
    "serving_config_for",
    "token_budget_for",
]
