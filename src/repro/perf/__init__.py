"""Analytical roofline performance model of transformer inference."""

from repro.perf.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perf.roofline import OpCost, arithmetic_intensity, op_time, tile_quantized
from repro.perf.linear import LinearModel
from repro.perf.attention import AttentionModel
from repro.perf.iteration import ExecutionModel
from repro.perf.cache import CachedExecutionModel, CacheStats
from repro.perf.table import ProfiledIterationTable
from repro.perf.validation import AnchorCheck, assert_calibrated, validate_calibration
from repro.perf.profiler import (
    BudgetProfile,
    compute_token_budget,
    derive_slo,
    hybrid_iteration_time,
    profile_token_budgets,
    reference_decode_time,
)

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "OpCost",
    "op_time",
    "tile_quantized",
    "arithmetic_intensity",
    "LinearModel",
    "AttentionModel",
    "ExecutionModel",
    "CachedExecutionModel",
    "CacheStats",
    "BudgetProfile",
    "compute_token_budget",
    "derive_slo",
    "hybrid_iteration_time",
    "profile_token_budgets",
    "reference_decode_time",
    "ProfiledIterationTable",
    "AnchorCheck",
    "validate_calibration",
    "assert_calibrated",
]
