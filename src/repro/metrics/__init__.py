"""Latency/throughput metrics, SLOs, timelines, and capacity search."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".capacity": ("CapacityResult", "find_capacity"),
    ".slo": (
        "SLOSpec",
        "PAPER_SLOS",
        "MAX_MEDIAN_SCHEDULING_DELAY",
        "paper_slo",
        "derived_slo",
    ),
    ".stats": ("percentile", "median", "mean", "p90", "p99", "jain_fairness"),
    ".summary": ("RunMetrics", "summarize"),
    ".timeline": (
        "IterationLog",
        "IterationRecord",
        "StageUtilization",
        "stage_utilization",
        "generation_stalls",
        "longest_stall",
        "pipeline_bubble_time",
    ),
    ".utilization": (
        "BatchUtilization",
        "RunUtilization",
        "batch_utilization",
        "run_utilization",
    ),
    ".goodput": (
        "RequestSLO",
        "GoodputReport",
        "goodput",
        "request_meets_slo",
        "FleetGoodput",
        "fleet_goodput",
    ),
    ".recovery": ("Disruption", "RecoveryReport", "recovery_report"),
})
