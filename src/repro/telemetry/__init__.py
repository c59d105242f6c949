"""Telemetry export (§4.4's "extensive telemetry system")."""

from repro.telemetry.fleet import fleet_rows, replica_utilization_rows
from repro.telemetry.recorder import (
    engine_rows,
    iteration_rows,
    read_csv,
    read_jsonl,
    request_rows,
    run_counters,
    write_csv,
    write_jsonl,
)
from repro.telemetry.sweep import capacity_probe_rows, sweep_cell_rows

__all__ = [
    "engine_rows",
    "iteration_rows",
    "request_rows",
    "run_counters",
    "fleet_rows",
    "replica_utilization_rows",
    "capacity_probe_rows",
    "sweep_cell_rows",
    "write_jsonl",
    "read_jsonl",
    "write_csv",
    "read_csv",
]
