"""Sweep telemetry: capacity probes, worker footprints and fault accounting.

Four tables make sweep performance — and sweep *survival* — measurable
instead of anecdotal:

* :func:`capacity_probe_rows` — one row per capacity-search probe, with
  the probe's phase (bracketing vs bisection) and the hint the search
  started from.  Summing ``phase == "bracket"`` rows per cell shows
  how many simulations the walk from the hint to the boundary took.
* :func:`sweep_cell_rows` — one row per sweep cell, with the worker pid
  that ran it, its wall-clock, its execution model's pricing-cache
  counters, plus fault-tolerance provenance: whether the cell was
  replayed from the run ledger (``resumed`` — the "ledger hit" counter
  a resumed run is verified by) and how many retries it survived.
* :func:`sweep_run_rows` — one row per ``map_tasks`` report:
  resumed/retried/failed/respawn counts, interruption, fingerprint.
* :func:`sweep_failure_rows` — one row per quarantined task, with the
  failure kind (exception / worker-death / timeout) and attempt count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.metrics.capacity import CapacityResult

if TYPE_CHECKING:
    from repro.experiments.capacity_runner import CellOutcome
    from repro.runtime import SweepReport

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
                "attempt": outcome.attempt,
                **outcome.cache_row,
            }
        )
    return rows


def sweep_run_rows(reports: "list[SweepReport]", **labels: Any) -> list[Row]:
    """One row per ``map_tasks`` report: resume/retry/failure/respawn
    accounting.

    ``wave`` is the report's index in ``reports``.
    ``sum(row["num_resumed"])`` across a resumed run's reports is the
    ledger-hit count the resume acceptance check verifies; a clean
    first run shows zero everywhere.
    """
    rows = []
    for index, report in enumerate(reports):
        rows.append(
            {
                **labels,
                "wave": index,
                "jobs": report.jobs,
                "num_tasks": len(report.outcomes) + len(report.failures),
                "num_completed": len(report.outcomes),
                "num_resumed": report.num_resumed,
                "num_retries": report.num_retries,
                "num_failures": len(report.failures),
                "num_respawns": report.num_respawns,
                "interrupted": report.interrupted,
                "wall_seconds": report.wall_seconds,
                "fingerprint": report.fingerprint,
                "run_dir": str(report.run_dir) if report.run_dir else None,
            }
        )
    return rows


def sweep_failure_rows(reports: "list[SweepReport]", **labels: Any) -> list[Row]:
    """One row per quarantined task across a run's ``map_tasks`` reports."""
    rows = []
    for index, report in enumerate(reports):
        for failure_row in report.failure_rows():
            rows.append({**labels, "wave": index, **failure_row})
    return rows
