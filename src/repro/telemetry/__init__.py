"""Telemetry export (§4.4's "extensive telemetry system")."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".recorder": (
        "iteration_rows",
        "request_rows",
        "run_counters",
        "write_jsonl",
        "read_jsonl",
        "write_csv",
        "read_csv",
    ),
    ".fleet": ("fleet_rows", "replica_utilization_rows"),
    ".sweep": ("capacity_probe_rows", "sweep_cell_rows"),
})
