"""Correctness checks, output digest and simulated serving metrics.

The digest covers, per request, the first-scheduled, first-token and
finish times, every token time and the restart count; then every
iteration record, and every capacity cell.  Request ids and batch ids
come from process-global counters, so neither enters the digest.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from itertools import accumulate

from workloads import Outputs, Run


def digest(outputs: Outputs) -> str:
    h = hashlib.sha256()
    for run in outputs.runs:
        shed = set(run.shed_ids)
        h.update(struct.pack("<q", len(run.request_ids)))
        h.update(run.first_scheduled.tobytes())
        h.update(run.first_token.tobytes())
        h.update(run.finished_at.tobytes())
        h.update(array("q", run.num_restarts).tobytes())
        h.update(bytes(rid in shed for rid in run.request_ids))
        h.update(run.token_counts.tobytes())
        h.update(run.token_times.tobytes())
        h.update(run.records.tobytes())
    for key in sorted(outputs.cells):
        h.update(repr((key, outputs.cells[key])).encode())
    return h.hexdigest()


def _token_slices(run: Run):
    ends = list(accumulate(run.token_counts))
    return zip([0] + ends[:-1], ends)


def violations(outputs: Outputs, limit: int = 5) -> list[str]:
    """Broken invariants, at most ``limit`` of them.

    Every offered request finished or was shed, exactly once; each
    finished request emitted exactly ``output_len`` tokens with
    non-decreasing timestamps.
    """
    found: list[str] = []
    for index, run in enumerate(outputs.runs):
        shed = set(run.shed_ids)
        if len(shed) != len(run.shed_ids):
            found.append(f"run {index}: a request was shed twice")
        if len(set(run.request_ids)) != len(run.request_ids):
            found.append(f"run {index}: a request was offered twice")
        times = run.token_times
        for i, (lo, hi) in enumerate(_token_slices(run)):
            rid = run.request_ids[i]
            if run.finished[i] == (rid in shed):
                state = "finished and shed" if run.finished[i] else "neither finished nor shed"
                found.append(f"run {index}: request {rid} {state}")
            elif run.finished[i]:
                if run.num_emitted[i] != run.output_len[i] or hi - lo != run.output_len[i]:
                    found.append(
                        f"run {index}: request {rid} emitted {hi - lo} "
                        f"of {run.output_len[i]} tokens"
                    )
                elif any(times[j + 1] < times[j] for j in range(lo, hi - 1)):
                    found.append(f"run {index}: request {rid} token times decrease")
            if len(found) >= limit:
                return found
    return found


def serving_metrics(outputs: Outputs) -> dict[str, tuple[float, int]]:
    """Pooled TTFT and TBT percentiles over every run, with sample counts.

    TBT samples follow ``summarize``: only gaps that end while load is
    still offered (up to the run's last arrival) count.  For a single
    run the values must equal the program's own summary, which
    ``summary_mismatch`` checks.
    """
    from repro.metrics.stats import percentile

    ttfts: list[float] = []
    tbts: list[float] = []
    for run in outputs.runs:
        window_end = max(run.arrival)
        times = run.token_times
        for i, (lo, hi) in enumerate(_token_slices(run)):
            if not run.finished[i]:
                continue
            ttfts.append(run.first_token[i] - run.arrival[i])
            tbts.extend(
                times[j + 1] - times[j]
                for j in range(lo, hi - 1)
                if times[j + 1] <= window_end
            )
    return {
        "sim_ttft_p50_s": (percentile(ttfts, 50), len(ttfts)),
        "sim_ttft_p99_s": (percentile(ttfts, 99), len(ttfts)),
        "sim_tbt_p99_s": (percentile(tbts, 99), len(tbts)),
    }


def summary_mismatch(outputs: Outputs, pooled: dict) -> list[str]:
    """Differences between the pooled metrics and ``summarize`` (one run)."""
    if len(outputs.runs) != 1:
        return []
    names = ("sim_ttft_p50_s", "sim_ttft_p99_s", "sim_tbt_p99_s")
    return [
        f"{name}: summarize says {own!r}, requests say {pooled[name][0]!r}"
        for name, own in zip(names, outputs.runs[0].summary)
        if own != pooled[name][0]
    ]


def completion(outputs: Outputs) -> dict[str, int]:
    """Simulated requests offered and completed, over every run."""
    return {
        "offered": sum(len(run.request_ids) for run in outputs.runs),
        "completed": sum(sum(run.finished) for run in outputs.runs),
    }
