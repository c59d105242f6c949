"""Per-figure experiment runners reproducing the paper's evaluation.

Each module reproduces one figure or table, or one extra ablation.
``registry`` gives each experiment an id, renders its rows as the table
recorded in ``EXPERIMENTS.md`` and checks the paper's shape claims
against them (``python -m repro reproduce <id>``).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".common": (
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
    ),
    ".capacity_runner": (
        "CapacityCell",
        "measure_capacity",
        "serving_config_for",
        "token_budget_for",
    ),
})
