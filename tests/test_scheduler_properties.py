"""Property-based tests on scheduler policies under random workloads.

Complements ``test_properties.py`` (which covers Sarathi): the same
conservation and safety laws must hold for every baseline policy,
for the fairness variant, and for disaggregated serving.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.registry import registered_names
from repro.scheduling.vectorized import (
    VecFairSarathiScheduler,
    VecFasterTransformerScheduler,
    VecOrcaScheduler,
    VecVLLMScheduler,
)
from repro.types import Request

from tests.conftest import Harness, harness

request_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=500),   # prompt
        st.integers(min_value=1, max_value=15),    # output
        st.integers(min_value=0, max_value=3),     # client
    ),
    min_size=1,
    max_size=12,
)


def drive(h: Harness, specs, max_iters=30_000):
    """Add one request per spec, run schedule/complete rounds to
    completion; return (rows, batches)."""
    rows = [
        h.add(Request(prompt_len=p, output_len=o, client_id=c), now=0.0)
        for p, o, c in specs
    ]
    batches = h.drain(step=0.01, max_iters=max_iters)
    if h.scheduler.has_work:
        raise AssertionError("scheduler did not converge")
    return rows, batches


def check_conservation(h: Harness, rows):
    for row in rows:
        r = h.request(row)
        assert r.is_finished
        assert r.num_emitted == r.output_len


def is_hybrid(batch) -> bool:
    return len(batch.decode_rows) > 0 and len(batch.p_rows) > 0


@given(specs=request_specs)
@settings(max_examples=30, deadline=None)
def test_vllm_random_workloads_complete(specs):
    h = harness(VecVLLMScheduler, 65536, max_batch_size=128)
    rows, batches = drive(h, specs)
    check_conservation(h, rows)
    # Algorithm 2 invariant: batches are never hybrid.
    assert not any(is_hybrid(b) for b in batches)
    # All memory returned.
    assert h.scheduler.memory.free_blocks == h.scheduler.memory.num_blocks


@given(specs=request_specs)
@settings(max_examples=30, deadline=None)
def test_orca_random_workloads_complete(specs):
    h = harness(
        VecOrcaScheduler, 65536, memory="reservation", reserve_len=1024,
        max_batch_size=128,
    )
    rows, batches = drive(h, specs)
    check_conservation(h, rows)
    # Orca never chunks: every prefill work covers a whole prompt.
    for batch in batches:
        assert all(batch.p_is_last)
    assert h.scheduler.memory.free_token_slots == 65536


@given(specs=request_specs)
@settings(max_examples=30, deadline=None)
def test_faster_transformer_random_workloads_complete(specs):
    h = harness(
        VecFasterTransformerScheduler, 65536, memory="reservation",
        reserve_len=1024, max_batch_size=4,
    )
    rows, batches = drive(h, specs)
    check_conservation(h, rows)
    # Request-level batching: no batch mixes prefills and decodes.
    assert not any(is_hybrid(b) for b in batches)


@given(specs=request_specs, budget=st.sampled_from([64, 256]))
@settings(max_examples=30, deadline=None)
def test_fair_sarathi_random_workloads_complete(specs, budget):
    h = harness(VecFairSarathiScheduler, 65536, token_budget=budget)
    rows, batches = drive(h, specs)
    check_conservation(h, rows)
    for batch in batches:
        assert batch.num_tokens <= budget
    # Service counters account for every token scheduled.
    assert sum(h.scheduler.service_counters.values()) == sum(
        b.num_tokens for b in batches
    )


@given(specs=request_specs)
@settings(max_examples=20, deadline=None)
def test_vllm_swap_mode_random_workloads_complete(specs):
    h = harness(
        VecVLLMScheduler, 4096, max_batch_size=128,
        preemption_mode="swap", kv_bytes_per_token=256,
    )
    rows, _ = drive(h, specs)
    check_conservation(h, rows)
    scheduler = h.scheduler
    # Swap bookkeeping balances: everything parked came back.
    assert not scheduler.swapped
    assert scheduler.num_swap_ins == scheduler.num_swap_outs
    assert scheduler.memory.free_blocks == scheduler.memory.num_blocks


@pytest.mark.parametrize("name", registered_names())
@given(specs=request_specs)
@settings(max_examples=10, deadline=None)
def test_every_registered_scheduler_conserves_tokens(name, specs):
    """The conservation laws hold for *whatever* the registry holds.

    Built through the real ``build_vectorized_scheduler`` path
    (registry factory, declared memory family, config plumbing), so
    plug-in policies are held to the same contract as the paper's
    baselines.
    """
    from repro.api import Deployment, ServingConfig, build_vectorized_scheduler
    from repro.hardware.catalog import A100_80G
    from repro.models.catalog import TINY_1B

    deployment = Deployment(model=TINY_1B, gpu=A100_80G)
    h = Harness(
        build_vectorized_scheduler(
            deployment,
            ServingConfig(scheduler=name, token_budget=256, reserve_len=1024),
        )
    )
    rows, batches = drive(h, specs)
    check_conservation(h, rows)
    # Total scheduled tokens account for every prompt and output token
    # exactly once (recompute-free traces: no preemption inflation).
    if h.scheduler.num_preemptions == 0:
        total = sum(b.num_tokens for b in batches)
        assert total == sum(p + o - 1 for p, o, _ in specs)


@given(specs=request_specs)
@settings(max_examples=15, deadline=None)
def test_disaggregated_engine_random_workloads_complete(specs):
    from repro.api import Deployment
    from repro.experiments.disagg_comparison import simulate_disaggregated
    from repro.hardware.catalog import A100_80G, NVLINK
    from repro.models.catalog import TINY_1B

    deployment = Deployment(model=TINY_1B, gpu=A100_80G)
    requests = [Request(prompt_len=p, output_len=o) for p, o, _ in specs]
    result, num_migrations, _ = simulate_disaggregated(
        deployment,
        requests,
        prefill_replicas=1,
        decode_replicas=1,
        link=NVLINK,
    )
    for r in requests:
        assert r.is_finished
        assert r.num_emitted == r.output_len
        assert len(r.token_times) == r.output_len
        assert r.token_times.tolist() == sorted(r.token_times)
    # One migration per request that decodes at least once.
    expected = sum(1 for r in requests if r.output_len > 1)
    assert num_migrations == expected
    assert not result.unfinished
