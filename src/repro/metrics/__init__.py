"""Latency/throughput metrics, SLOs, timelines, and capacity search."""

from repro.metrics.capacity import CapacityResult, find_capacity
from repro.metrics.slo import (
    MAX_MEDIAN_SCHEDULING_DELAY,
    PAPER_SLOS,
    SLOSpec,
    derived_slo,
    paper_slo,
)
from repro.metrics.recovery import (
    Disruption,
    RecoveryReport,
    recovery_report,
)
from repro.metrics.stats import jain_fairness, mean, median, p90, p99, percentile
from repro.metrics.summary import RunMetrics, summarize
from repro.metrics.goodput import (
    FleetGoodput,
    GoodputReport,
    RequestSLO,
    fleet_goodput,
    goodput,
    request_meets_slo,
)
from repro.metrics.utilization import (
    BatchUtilization,
    RunUtilization,
    batch_utilization,
    run_utilization,
)
from repro.metrics.timeline import (
    IterationLog,
    IterationRecord,
    StageUtilization,
    generation_stalls,
    longest_stall,
    pipeline_bubble_time,
    stage_utilization,
)

__all__ = [
    "CapacityResult",
    "find_capacity",
    "SLOSpec",
    "PAPER_SLOS",
    "MAX_MEDIAN_SCHEDULING_DELAY",
    "paper_slo",
    "derived_slo",
    "percentile",
    "median",
    "mean",
    "p90",
    "p99",
    "RunMetrics",
    "summarize",
    "IterationLog",
    "IterationRecord",
    "StageUtilization",
    "stage_utilization",
    "generation_stalls",
    "longest_stall",
    "pipeline_bubble_time",
    "BatchUtilization",
    "RunUtilization",
    "batch_utilization",
    "run_utilization",
    "RequestSLO",
    "GoodputReport",
    "goodput",
    "request_meets_slo",
    "FleetGoodput",
    "fleet_goodput",
    "jain_fairness",
    "Disruption",
    "RecoveryReport",
    "recovery_report",
]
