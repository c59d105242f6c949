"""Property-based tests (hypothesis) on core invariants.

These cover the data structures and conservation laws everything else
rests on: block-accounting in the allocators, token conservation in
the schedulers, monotonicity of the perf model, and chunking algebra.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.catalog import A100_80G
from repro.engine.arrays import RequestArrays
from repro.models.catalog import TINY_1B
from repro.perf.iteration import ExecutionModel
from repro.perf.roofline import tile_quantized
from repro.scheduling.vectorized import (
    VecPagedMemory,
    VecReservationMemory,
    VecSarathiScheduler,
    next_chunk_size,
)
from repro.types import Request, TokenWork

from tests.conftest import harness

lengths = st.integers(min_value=1, max_value=8192)
small_lengths = st.integers(min_value=1, max_value=512)


# ----------------------------------------------------------------------
# Chunking algebra
# ----------------------------------------------------------------------
@given(
    prompt=lengths,
    budget=st.integers(min_value=1, max_value=4096),
    used=st.integers(min_value=0, max_value=4096),
)
def test_chunk_size_within_bounds(prompt, budget, used):
    request = Request(prompt_len=prompt, output_len=1)
    chunk = next_chunk_size(request.remaining_prefill, budget, used)
    assert 0 <= chunk <= prompt
    assert chunk <= max(budget - used, 0)


@given(
    prompt=lengths,
    budget=st.integers(min_value=1, max_value=2048),
)
def test_repeated_chunking_terminates_and_covers(prompt, budget):
    """Applying the chunk policy repeatedly prefills the whole prompt."""
    request = Request(prompt_len=prompt, output_len=1)
    steps = 0
    while not request.is_prefill_complete:
        chunk = next_chunk_size(request.remaining_prefill, budget, tokens_used=0)
        assert chunk > 0
        request.record_prefill(chunk, now=float(steps))
        steps += 1
        assert steps <= -(-prompt // budget)  # ceil(prompt / budget) chunks
    assert request.prefill_done == prompt


@given(n=st.integers(min_value=0, max_value=100_000), tile=st.sampled_from([16, 64, 128, 256]))
def test_tile_quantized_properties(n, tile):
    q = tile_quantized(n, tile)
    assert q >= n
    # Never pads more than one effective tile.
    assert q - n < tile
    if n % tile == 0:
        assert q == n


# ----------------------------------------------------------------------
# Paged allocator conservation
# ----------------------------------------------------------------------
@given(
    prompts=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=30),
    data=st.data(),
)
@settings(max_examples=50)
def test_paged_blocks_conserved(prompts, data):
    """free + held == total, across arbitrary admit/grow/free sequences."""
    arrays = RequestArrays()
    mgr = VecPagedMemory(arrays, capacity_tokens=4096, block_size=16, watermark=0.0)
    held: list[int] = []
    for prompt in prompts:
        r = arrays.ingest(Request(prompt_len=prompt, output_len=50))
        if mgr.can_admit(r):
            mgr.admit(r)
            arrays.prefill_done[r] = prompt
            held.append(r)
        elif held and data.draw(st.booleans()):
            victim = held.pop(data.draw(st.integers(0, len(held) - 1)))
            mgr.free(victim)
    # Grow a few of the held requests.
    for r in held:
        for _ in range(data.draw(st.integers(min_value=0, max_value=20))):
            if mgr.can_append_token(r):
                mgr.append_token(r)
                arrays.decode_steps[r] += 1
            else:
                break
    total_held = int(mgr._held_arr().sum())
    assert mgr.free_blocks + total_held == mgr.num_blocks
    # Every held request has enough blocks for its context.
    for r in held:
        context = arrays.prefill_done[r] + arrays.decode_steps[r]
        assert mgr._held[r] * 16 >= context


@given(
    prompts=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=20)
)
def test_reservation_tokens_conserved(prompts):
    arrays = RequestArrays()
    mgr = VecReservationMemory(arrays, capacity_tokens=16384, reserve_len=1024)
    admitted = []
    for prompt in prompts:
        r = arrays.ingest(Request(prompt_len=prompt, output_len=10))
        if mgr.can_admit(r):
            mgr.admit(r)
            admitted.append(r)
    held = int(mgr._reserved_arr().sum())
    assert mgr.free_token_slots + held == 16384
    for r in admitted:
        mgr.free(r)
    assert mgr.free_token_slots == 16384


# ----------------------------------------------------------------------
# Request lifecycle invariants
# ----------------------------------------------------------------------
@given(
    prompt=small_lengths,
    output=st.integers(min_value=1, max_value=50),
    chunk=st.integers(min_value=1, max_value=256),
)
def test_request_emits_exactly_output_len_tokens(prompt, output, chunk):
    r = Request(prompt_len=prompt, output_len=output)
    now = 0.0
    while not r.is_prefill_complete:
        now += 1.0
        r.record_prefill(min(chunk, r.remaining_prefill), now=now)
    while not r.is_finished:
        now += 1.0
        r.record_decode(now=now)
    assert r.num_emitted == output
    assert len(r.token_times) == output
    assert r.token_times.tolist() == sorted(r.token_times)
    assert r.context_len == prompt + output - 1


@given(
    prompt=small_lengths,
    output=st.integers(min_value=2, max_value=30),
    preempt_after=st.integers(min_value=0, max_value=10),
)
def test_preemption_roundtrip_preserves_emission_count(prompt, output, preempt_after):
    r = Request(prompt_len=prompt, output_len=output)
    r.record_prefill(prompt, now=0.0)
    steps = min(preempt_after, output - 1 - 1)
    now = 1.0
    for _ in range(max(steps, 0)):
        r.record_decode(now=now)
        now += 1.0
    emitted_before = r.num_emitted
    r.restart_after_preemption()
    assert r.num_emitted == emitted_before
    r.record_prefill(r.prefill_target, now=now)
    assert r.num_emitted == emitted_before  # re-prefill emits nothing new
    while not r.is_finished:
        now += 1.0
        r.record_decode(now=now)
    assert r.num_emitted == output


# ----------------------------------------------------------------------
# Perf model monotonicity
# ----------------------------------------------------------------------
@given(n=st.integers(min_value=1, max_value=4096))
@settings(max_examples=30)
def test_iteration_time_positive_and_monotone_in_tokens(n):
    exec_model = ExecutionModel(TINY_1B, A100_80G)
    t_n = exec_model.iteration_time([TokenWork.prefill_chunk(n)]).total
    t_2n = exec_model.iteration_time([TokenWork.prefill_chunk(2 * n)]).total
    assert t_n > 0
    assert t_2n >= t_n


@given(bs=st.integers(min_value=1, max_value=128), ctx=st.integers(min_value=1, max_value=4096))
@settings(max_examples=30)
def test_decode_time_monotone_in_batch_and_context(bs, ctx):
    exec_model = ExecutionModel(TINY_1B, A100_80G)
    base = exec_model.decode_iteration_time(bs, ctx).total
    bigger_batch = exec_model.decode_iteration_time(bs + 1, ctx).total
    longer_ctx = exec_model.decode_iteration_time(bs, ctx + 512).total
    assert bigger_batch >= base
    assert longer_ctx >= base


# ----------------------------------------------------------------------
# Sarathi scheduler invariants under random workloads
# ----------------------------------------------------------------------
@given(
    specs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=600),   # prompt
            st.integers(min_value=1, max_value=20),    # output
        ),
        min_size=1,
        max_size=15,
    ),
    budget=st.sampled_from([64, 256, 512]),
)
@settings(max_examples=40, deadline=None)
def test_sarathi_budget_and_completion_invariants(specs, budget):
    h = harness(
        VecSarathiScheduler, 65536, token_budget=budget, max_batch_size=16
    )
    rows = [h.add(Request(prompt_len=p, output_len=o), now=0.0) for p, o in specs]
    for batch in h.drain(step=0.01, max_iters=20_000):
        assert batch.num_tokens <= budget
        assert batch.size <= 16
    assert all(h.finished(r) for r in rows)
    # All memory returned.
    memory = h.scheduler.memory
    assert memory.free_blocks == memory.num_blocks
