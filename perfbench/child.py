"""One benchmark child process: set up a workload, time one call, report.

Usage::

    python perfbench/child.py <workload> <seed> <plain|traced|setup> <t0>

``t0`` is the ``time.monotonic()`` reading just before the parent
started this process; ``setup_s`` runs from it to the timed call.  The
last line of standard output is a JSON report.  A ``setup`` child
stops before the timed call and reports ``setup_s`` only; a traced
child also writes its spans to ``.perfbench/spans-<workload>.npz``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
from workloads import CAPACITY_CELLS, RECORD_FIELDS, WORKLOADS, Outputs

ROOT = Path(__file__).resolve().parent.parent


def layer_metrics(tracer, outputs: Outputs) -> dict[str, float]:
    """Per-layer counts and seconds of one traced call."""
    metrics: dict[str, float] = {}
    for prefix, totals in tracer.span_totals().items():
        for key, value in totals.items():
            metrics[f"{prefix}.{key}"] = value
    for prefix, _, _, refusals in tracing.COUNTERS:
        if prefix in tracer.installed:
            metrics[f"{prefix}.calls"] = tracer.counts[f"{prefix}.calls"]
            if refusals:
                metrics[f"{prefix}.refused"] = tracer.counts[f"{prefix}.refused"]
    if "scheduling.schedule" in tracer.installed:
        calls = metrics["scheduling.schedule.calls"]
        batches = tracer.counts["scheduling.schedule.batches"]
        metrics["scheduling.schedule.useful_ratio"] = batches / calls if calls else 0.0
    if "perf.cache" in tracer.installed:
        hits, misses = tracer.cache_totals()
        metrics["perf.cache.hits"] = hits
        metrics["perf.cache.misses"] = misses
        metrics["perf.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if "cluster.driver" in tracer.installed:
        fleets = [returned[0] for returned in tracer.returns["cluster.driver"]]
        replicas = [res for fleet in fleets for res in fleet.replica_results]
        metrics["cluster.failovers"] = sum(f.num_failovers for f in fleets)
        metrics["cluster.rejections"] = sum(f.num_rejections for f in fleets)
        metrics["cluster.shed"] = sum(f.num_shed for f in fleets)
        metrics["cluster.drains"] = sum(
            1 for f in fleets for e in f.events if e.kind == "drain_start"
        )
        metrics["engine.events"] = sum(r.engine_stats.num_events for r in replicas)
        metrics["engine.batches"] = sum(r.engine_stats.num_batches for r in replicas)
    records = [run.records for run in outputs.runs]
    iterations = sum(len(r) // RECORD_FIELDS for r in records)
    if iterations:
        # Flattened record columns 3-6: prefill/decode tokens, prefill/decode seqs.
        tokens = sum(sum(r[3::RECORD_FIELDS]) + sum(r[4::RECORD_FIELDS]) for r in records)
        seqs = sum(sum(r[5::RECORD_FIELDS]) + sum(r[6::RECORD_FIELDS]) for r in records)
        metrics["scheduling.batch_tokens.mean"] = tokens / iterations
        metrics["scheduling.batch_seqs.mean"] = seqs / iterations
    metrics["scheduling.preemptions"] = sum(run.num_preemptions for run in outputs.runs)
    metrics["metrics.capacity.probes"] = sum(
        probes for _, _, probes in outputs.cells.values()
    )
    # Zero on workloads that run no capacity search.
    for scheduler, strict in CAPACITY_CELLS:
        slo = "strict" if strict else "relaxed"
        cell = outputs.cells.get((scheduler, slo))
        metrics[f"sim_capacity_qps.{scheduler}.{slo}"] = cell[1] if cell else 0.0
    return metrics


def main(argv: list[str]) -> int:
    workload, seed, mode, t0 = argv[0], int(argv[1]), argv[2], float(argv[3])
    prepared = WORKLOADS[workload](seed)
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    start = time.perf_counter()
    returned = prepared.call()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = prepared.outputs(returned)
    serving = checks.serving_metrics(outputs)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        **checks.completion(outputs),
        "digest": checks.digest(outputs),
        "violations": checks.violations(outputs)
        + checks.summary_mismatch(outputs, serving),
        "serving": serving,
        "cells": {f"{s}.{slo}": cell for (s, slo), cell in outputs.cells.items()},
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, outputs)
        tracer.write(ROOT / ".perfbench" / f"spans-{workload}.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
