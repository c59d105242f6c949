"""Workload synthesis: length distributions, arrivals, and datasets."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arrival": (
        "ArrivalProcess",
        "PoissonArrivals",
        "GammaArrivals",
        "UniformArrivals",
        "StaticArrivals",
    ),
    ".datasets": (
        "DatasetSpec",
        "SHAREGPT4",
        "ARXIV_SUMMARIZATION",
        "get_dataset",
        "generate_requests",
    ),
    ".distributions": (
        "LengthDistribution",
        "LogNormalLengths",
        "FixedLengths",
        "UniformLengths",
    ),
    ".conversation": (
        "ConversationSpec",
        "ConversationWorkload",
        "simulate_conversations",
    ),
    ".production": (
        "TenantClass",
        "ProductionSpec",
        "DEFAULT_TENANTS",
        "generate_production_trace",
    ),
    ".trace": ("TraceStatistics", "save_trace", "load_trace", "trace_statistics"),
})
