"""Sweep telemetry: capacity probes and per-cell worker footprints.

Two tables make sweep performance measurable instead of anecdotal:

* :func:`capacity_probe_rows` — one row per capacity-search probe, with
  the probe's phase (bracketing vs bisection) and the hint the search
  started from.  Summing ``phase == "bracket"`` rows per cell shows
  how many simulations the walk from the hint to the boundary took.
* :func:`sweep_cell_rows` — one row per sweep cell, with the worker pid
  that ran it, its wall-clock, its execution model's pricing-cache
  counters, and whether the cell was replayed from the run ledger
  (``resumed`` — the "ledger hit" counter a resumed run is verified
  by).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.metrics.capacity import CapacityResult

if TYPE_CHECKING:
    from repro.experiments.capacity_runner import CellOutcome

Row = dict[str, Any]


def capacity_probe_rows(result: CapacityResult, **labels: Any) -> list[Row]:
    """Flatten one capacity search into per-probe telemetry rows.

    ``labels`` (deployment, scheduler, dataset, …) are prepended to
    every row so rows from a whole sweep concatenate into one table.
    Probes are listed in execution order; the first
    ``num_bracket_probes`` are phase ``"bracket"``, the rest
    ``"bisect"``.
    """
    rows = []
    for index, (qps, metrics, ok) in enumerate(result.probes):
        rows.append(
            {
                **labels,
                "probe_index": index,
                "phase": "bracket" if index < result.num_bracket_probes else "bisect",
                "qps": qps,
                "meets_slo": ok,
                "qps_hint": result.qps_hint,
                "capacity_qps": result.capacity_qps,
                "p99_tbt": metrics.p99_tbt,
                "max_tbt": metrics.max_tbt,
                "median_ttft": metrics.median_ttft,
                "median_scheduling_delay": metrics.median_scheduling_delay,
                "throughput_tokens_per_s": metrics.throughput_tokens_per_s,
                "num_preemptions": metrics.num_preemptions,
            }
        )
    return rows


def sweep_cell_rows(outcomes: "list[CellOutcome]") -> list[Row]:
    """One row per sweep cell: timing, worker and pricing-cache counters."""
    rows = []
    for outcome in outcomes:
        cell = outcome.cell
        rows.append(
            {
                "deployment": cell.deployment,
                "scheduler": cell.scheduler,
                "dataset": cell.dataset,
                "slo": cell.slo_name,
                "variant": outcome.variant,
                "capacity_qps": cell.capacity_qps,
                "num_probes": cell.num_probes,
                "num_bracket_probes": outcome.num_bracket_probes,
                "num_bisect_probes": outcome.num_bisect_probes,
                "qps_hint": outcome.qps_hint,
                "worker_pid": outcome.worker_pid,
                "cell_seconds": outcome.seconds,
                "resumed": outcome.resumed,
                **outcome.cache_row,
            }
        )
    return rows
