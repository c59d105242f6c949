"""Golden-trace determinism: the same inputs must replay bit-for-bit.

Runs the full ``ReplicaEngine`` twice on clones of one fixed workload
and asserts the iteration records and per-request timelines agree
field-for-field.  This is the contract that makes the memoization
layer (``repro.perf.cache``) and all fixed-seed experiments sound —
and it would catch regressions such as iteration over unordered sets,
``EventQueue`` tie-break changes, or hidden global state leaking
between runs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import ServingConfig, build_engine, clone_requests
from repro.workload.datasets import ARXIV_SUMMARIZATION, SHAREGPT4, generate_requests

from tests.conftest import make_request, shrink_kv_memory

pytestmark = pytest.mark.tier1


def _record_fields(record):
    """An IterationRecord as a comparable dict, batch ids relabelled.

    ``batch_id`` comes from a process-global counter so its absolute
    value differs between runs; what determinism owes us is that the
    *pattern* of ids matches, which relabelling preserves.
    """
    row = dataclasses.asdict(record)
    return row


def _golden_trace(result):
    records = sorted(result.records, key=lambda r: (r.start, r.stage))
    id_order: dict[int, int] = {}
    rows = []
    for record in records:
        row = _record_fields(record)
        row["batch_id"] = id_order.setdefault(record.batch_id, len(id_order))
        rows.append(row)
    return rows


def _request_timelines(result):
    return [
        (
            r.request_id,
            r.arrival_time,
            r.prompt_len,
            r.output_len,
            r.first_scheduled_at,
            r.first_token_at,
            r.finished_at,
            tuple(r.token_times),
            r.num_restarts,
        )
        for r in sorted(result.requests, key=lambda r: r.request_id)
    ]


@pytest.mark.usefixtures("core")
@pytest.mark.parametrize(
    "kind",
    ["sarathi", "vllm", "faster_transformer", "sarathi_dynamic"],
)
@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
def test_golden_trace_single_stage(tiny_deployment, kind, cached):
    trace = generate_requests(SHAREGPT4, num_requests=20, qps=1.5, seed=11)
    config = ServingConfig(scheduler=kind, token_budget=256)

    def run():
        # None lets build_engine memoize; the uncached arm passes the raw model.
        exec_model = None if cached else tiny_deployment.execution_model()
        built = build_engine(tiny_deployment, config, exec_model=exec_model)
        return built.run(clone_requests(trace))

    first, second = run(), run()
    assert _golden_trace(first) == _golden_trace(second)
    assert _request_timelines(first) == _request_timelines(second)
    assert first.makespan == second.makespan


def test_golden_trace_pipeline(tiny_pp_deployment):
    trace = generate_requests(ARXIV_SUMMARIZATION, num_requests=16, qps=1.0, seed=3)
    config = ServingConfig(token_budget=256)

    def run():
        engine = build_engine(tiny_pp_deployment, config)
        return engine.run(clone_requests(trace))

    first, second = run(), run()
    assert _golden_trace(first) == _golden_trace(second)
    assert _request_timelines(first) == _request_timelines(second)


@pytest.mark.usefixtures("core")
def test_golden_trace_under_preemption_pressure(tiny_deployment):
    """Replays stay identical even when preemptions/restarts kick in."""
    # Short prompts but long generations: admission lets many requests
    # in, then decode growth overflows the shrunken KV pool.
    trace = [
        make_request(prompt_len=256, output_len=300, arrival_time=0.005 * i)
        for i in range(10)
    ]
    config = ServingConfig(scheduler="vllm", preemption_mode="recompute")

    def run():
        built = build_engine(tiny_deployment, config)
        shrink_kv_memory(built)
        return built.run(clone_requests(trace))

    first, second = run(), run()
    assert any(r.num_restarts > 0 for r in first.requests)
    assert _golden_trace(first) == _golden_trace(second)
    assert _request_timelines(first) == _request_timelines(second)


def test_workload_generation_is_seed_stable():
    """generate_requests is a pure function of (dataset, count, qps, seed)."""
    a = generate_requests(SHAREGPT4, num_requests=30, qps=2.0, seed=42)
    b = generate_requests(SHAREGPT4, num_requests=30, qps=2.0, seed=42)
    assert [(r.arrival_time, r.prompt_len, r.output_len) for r in a] == [
        (r.arrival_time, r.prompt_len, r.output_len) for r in b
    ]
    c = generate_requests(SHAREGPT4, num_requests=30, qps=2.0, seed=43)
    assert [(r.prompt_len, r.output_len) for r in a] != [
        (r.prompt_len, r.output_len) for r in c
    ]
