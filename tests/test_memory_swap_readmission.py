"""Tests for swap re-admission sizing in the paged allocator."""

from __future__ import annotations

from repro.engine.arrays import RequestArrays
from repro.scheduling.vectorized import VecPagedMemory

from tests.conftest import make_request


def _setup(capacity_tokens: int, prompt_len: int, output_len: int):
    arrays = RequestArrays()
    mgr = VecPagedMemory(arrays, capacity_tokens, block_size=16, watermark=0.0)
    row = arrays.ingest(make_request(prompt_len=prompt_len, output_len=output_len))
    return arrays, mgr, row


def _decode(arrays: RequestArrays, mgr: VecPagedMemory, row: int, steps: int) -> None:
    """Grow the row's KV by ``steps`` decode tokens."""
    for _ in range(steps):
        mgr.append_token(row)
        arrays.decode_steps[row] += 1


class TestInitialBlocksSizing:
    def test_fresh_request_uses_prefill_target(self):
        _, mgr, r = _setup(1024, 100, 50)
        mgr.admit(r)
        assert mgr._held[r] == mgr.blocks_for(100)

    def test_swapped_request_readmits_full_context(self):
        """A request swapped out mid-decode owns prompt + decoded KV;
        re-admission must claim blocks for the whole context."""
        arrays, mgr, r = _setup(1024, 100, 50)
        mgr.admit(r)
        arrays.prefill_done[r] = 100
        _decode(arrays, mgr, r, 30)
        context = int(arrays.prefill_done[r] + arrays.decode_steps[r])
        assert context == 130
        blocks_held = mgr._held[r]
        # Swap out (state preserved) and back in.
        mgr.free(r)
        mgr.admit(r)
        assert mgr._held[r] == mgr.blocks_for(context)
        assert mgr._held[r] == blocks_held

    def test_can_admit_accounts_for_context(self):
        arrays, mgr, r = _setup(160, 100, 80)
        mgr.admit(r)
        arrays.prefill_done[r] = 100
        _decode(arrays, mgr, r, 58)
        mgr.free(r)
        # Context is now 158 tokens -> 10 blocks -> exactly fits.
        assert mgr.can_admit(r)
        mgr.admit(r)
        assert mgr.free_blocks == 0

    def test_decode_growth_continues_after_readmission(self):
        arrays, mgr, r = _setup(1024, 100, 40)
        mgr.admit(r)
        arrays.prefill_done[r] = 100
        _decode(arrays, mgr, r, 10)
        mgr.free(r)
        mgr.admit(r)  # swap back in
        # Growth resumes against the context-sized allocation.
        for _ in range(10, 39):
            assert mgr.can_append_token(r)
            _decode(arrays, mgr, r, 1)
        assert arrays.decode_steps[r] == 39
