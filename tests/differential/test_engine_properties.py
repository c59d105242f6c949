"""Engine-invariant property tests.

Three invariants no engine may break, whatever the workload:

* **Request conservation** — every offered request finishes exactly
  once, emitting exactly ``output_len`` tokens, and the iteration
  records account for every prefill/decode token exactly once.
* **Monotone completion** — per-request timestamps advance:
  arrival ≤ first schedule ≤ first token ≤ finish, with sorted
  token times.
* **KV-occupancy bounds** — at every engine step the KV pool stays
  inside [0, capacity], even under eviction pressure.

The golden digests separately pin the engine's outputs bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Deployment, ServingConfig, build_engine
from repro.hardware.catalog import A100_80G
from repro.models.catalog import TINY_1B
from repro.types import Request

from tests.conftest import shrink_kv_memory

pytestmark = [pytest.mark.tier1, pytest.mark.usefixtures("core")]

_DEPLOYMENT = Deployment(model=TINY_1B, gpu=A100_80G)
_SCHEDULERS = ["sarathi", "vllm", "faster_transformer"]

_SETTINGS = settings(max_examples=20, deadline=None)


@st.composite
def traces(draw):
    num = draw(st.integers(min_value=1, max_value=12))
    gap = draw(st.floats(min_value=0.0, max_value=0.1))
    trace = []
    for i in range(num):
        trace.append(
            Request(
                prompt_len=draw(st.integers(min_value=8, max_value=256)),
                output_len=draw(st.integers(min_value=1, max_value=16)),
                arrival_time=round(gap * i, 4),
            )
        )
    return trace


@_SETTINGS
@given(trace=traces(), kind=st.sampled_from(_SCHEDULERS))
def test_request_conservation(trace, kind):
    config = ServingConfig(scheduler=kind, token_budget=256)
    built = build_engine(_DEPLOYMENT, config)
    result = built.run(trace)

    assert len(result.requests) == len(trace)
    assert not result.unfinished
    for request in result.requests:
        assert request.is_finished
        assert request.num_emitted == request.output_len
        assert len(request.token_times) == request.output_len

    # Token accounting: with no preemption pressure, the records carry
    # each prompt token exactly once and each decode token exactly once
    # (the first output token comes from prefill, not decode).
    stage0 = [r for r in result.records if r.stage == 0]
    assert sum(r.num_prefill_tokens for r in stage0) == sum(
        r.prompt_len for r in trace
    )
    assert sum(r.num_decode_tokens for r in stage0) == sum(
        r.output_len - 1 for r in trace
    )


@_SETTINGS
@given(trace=traces(), kind=st.sampled_from(_SCHEDULERS))
def test_monotone_completion_times(trace, kind):
    config = ServingConfig(scheduler=kind, token_budget=256)
    built = build_engine(_DEPLOYMENT, config)
    built.run(trace)

    for request in trace:
        assert request.first_scheduled_at >= request.arrival_time
        assert request.first_token_at >= request.first_scheduled_at
        assert request.token_times.tolist() == sorted(request.token_times)
        assert request.token_times[0] == request.first_token_at
        assert request.finished_at == request.token_times[-1]


@_SETTINGS
@given(
    kind=st.sampled_from(["sarathi", "vllm"]),
    num_requests=st.integers(min_value=2, max_value=8),
    output_len=st.integers(min_value=50, max_value=200),
)
def test_kv_occupancy_bounded_under_pressure(kind, num_requests, output_len):
    """Stepped run on a shrunken KV pool: occupancy stays in [0, 1]."""
    config = ServingConfig(
        scheduler=kind, token_budget=256, preemption_mode="recompute"
    )
    built = build_engine(_DEPLOYMENT, config)
    shrink_kv_memory(built)
    memory = built.scheduler.memory

    for i in range(num_requests):
        built.deliver(
            Request(prompt_len=128, output_len=output_len, arrival_time=0.0), 0.0
        )
        assert 0.0 <= memory.occupancy <= 1.0

    steps = 0
    while built.next_event_time() is not None:
        built.step()
        steps += 1
        assert 0.0 <= memory.occupancy <= 1.0
        assert 0 <= memory.free_token_slots <= memory.total_token_slots
        assert steps < 1_000_000, "engine failed to drain"

    assert all(r.is_finished for r in built.all_requests)
