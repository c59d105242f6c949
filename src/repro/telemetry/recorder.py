"""Telemetry export: turn simulation results into analyzable tables.

The paper's implementation notes an "extensive telemetry system" built
into their vLLM fork (§4.4); this is its reproduction-side analogue.
Two flat tables are produced from a ``SimulationResult`` — one row per
executed (stage, batch) iteration and one row per request — exportable
as JSONL or CSV for offline analysis and plotting.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.engine.replica import SimulationResult

Row = dict[str, Any]


def iteration_rows(result: "SimulationResult") -> list[Row]:
    """One row per executed (stage, batch) pair, in start-time order."""
    rows = []
    for record in sorted(result.records, key=lambda r: (r.start, r.stage)):
        rows.append(
            {
                "stage": record.stage,
                "batch_id": record.batch_id,
                "start": record.start,
                "end": record.end,
                "duration": record.duration,
                "num_prefill_tokens": record.num_prefill_tokens,
                "num_decode_tokens": record.num_decode_tokens,
                "num_prefill_seqs": record.num_prefill_seqs,
                "num_decode_seqs": record.num_decode_seqs,
                "is_hybrid": record.is_hybrid,
                "time_linear": record.breakdown.linear,
                "time_attention": record.breakdown.attention,
                "time_others": record.breakdown.others,
                "time_communication": record.breakdown.communication,
                "time_overhead": record.breakdown.overhead,
            }
        )
    return rows


def request_rows(result: "SimulationResult") -> list[Row]:
    """One row per request with its lifecycle timestamps and latencies."""
    rows = []
    for request in sorted(result.requests, key=lambda r: r.arrival_time):
        tbts = request.tbt_samples
        rows.append(
            {
                "request_id": request.request_id,
                "arrival_time": request.arrival_time,
                "prompt_len": request.prompt_len,
                "output_len": request.output_len,
                "finished": request.is_finished,
                "first_scheduled_at": request.first_scheduled_at,
                "first_token_at": request.first_token_at,
                "finished_at": request.finished_at,
                "ttft": request.ttft,
                "scheduling_delay": request.scheduling_delay,
                "e2e_latency": request.e2e_latency,
                "max_tbt": max(tbts) if tbts else None,
                "num_emitted": request.num_emitted,
                "num_restarts": request.num_restarts,
            }
        )
    return rows


def write_jsonl(path: str | Path, rows: list[Row]) -> Path:
    """Write rows as JSON Lines; returns the resolved path."""
    path = Path(path)
    with path.open("w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


def read_jsonl(path: str | Path) -> list[Row]:
    """Read back a JSONL table written by :func:`write_jsonl`."""
    path = Path(path)
    rows = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def write_csv(path: str | Path, rows: list[Row]) -> Path:
    """Write rows as CSV with a header from the first row's keys."""
    path = Path(path)
    if not rows:
        raise ValueError("cannot write an empty table")
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def _parse_csv_cell(text: str) -> Any:
    """Invert ``csv.DictWriter``'s stringification for our row types."""
    if text == "":
        return None
    if text == "True":
        return True
    if text == "False":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: str | Path) -> list[Row]:
    """Read back a CSV table written by :func:`write_csv`.

    Cell types are recovered (None/bool/int/float/str), so a round
    trip of any table this module produces is exact — Python floats
    stringify losslessly.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        return [
            {key: _parse_csv_cell(value) for key, value in row.items()}
            for row in reader
        ]


def run_counters(result: "SimulationResult") -> Row:
    """Aggregate counters of one run — the quick health check.

    Includes the execution-model cache counters (zeros when the run
    used the uncached model) so sweeps can track hit rates alongside
    scheduling health.
    """
    from repro.memory.prefix import PrefixCacheStats
    from repro.perf.cache import CacheStats

    hybrid = sum(1 for r in result.records if r.stage == 0 and r.is_hybrid)
    stage0 = [r for r in result.records if r.stage == 0]
    cache = result.cache_stats if result.cache_stats is not None else CacheStats()
    prefix = result.prefix_stats if result.prefix_stats is not None else PrefixCacheStats()
    return {
        "num_requests": len(result.requests),
        "num_finished": len(result.finished_requests),
        "num_unfinished": len(result.unfinished),
        "num_iterations": len(stage0),
        "num_hybrid_iterations": hybrid,
        "num_preemptions": result.num_preemptions,
        "makespan": result.makespan,
        "total_prefill_tokens": sum(r.num_prefill_tokens for r in stage0),
        "total_decode_tokens": sum(r.num_decode_tokens for r in stage0),
        "mean_batch_size": (
            sum(r.num_prefill_seqs + r.num_decode_seqs for r in stage0) / len(stage0)
            if stage0
            else 0.0
        ),
        **cache.as_row(),
        **prefix.as_row(),
    }
