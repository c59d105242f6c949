"""Analytical roofline performance model of transformer inference."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".calibration": ("Calibration", "DEFAULT_CALIBRATION"),
    ".roofline": ("OpCost", "op_time", "tile_quantized", "arithmetic_intensity"),
    ".linear": ("LinearModel",),
    ".attention": ("AttentionModel",),
    ".iteration": ("ExecutionModel",),
    ".cache": ("CachedExecutionModel", "CacheStats"),
    ".profiler": (
        "BudgetProfile",
        "compute_token_budget",
        "derive_slo",
        "hybrid_iteration_time",
        "profile_token_budgets",
        "reference_decode_time",
    ),
    ".validation": ("AnchorCheck", "validate_calibration", "assert_calibrated"),
})
