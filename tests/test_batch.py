"""Tests for batch composition."""

from __future__ import annotations

import numpy as np

from repro.scheduling.vectorized import VecBatch


def _batch(num_decodes: int = 0, chunks: tuple[int, ...] = (), last=None, order=None):
    decode_rows = np.arange(num_decodes, dtype=np.int64)
    p_rows = list(range(num_decodes, num_decodes + len(chunks)))
    return VecBatch(
        decode_rows,
        np.full(num_decodes, 100, dtype=np.int64),
        p_rows,
        list(chunks),
        [0] * len(chunks),
        list(last) if last is not None else [True] * len(chunks),
        order=order,
    )


class TestBatch:
    def test_token_accounting(self):
        batch = _batch(num_decodes=2, chunks=(128,))
        assert batch.num_tokens == 130
        assert batch.num_prefill_tokens == 128
        assert batch.num_decode_tokens == 2
        assert batch.num_prefill_seqs == 1
        assert batch.num_decode_seqs == 2
        assert batch.size == 3

    def test_logit_tokens_count_final_chunks_only(self):
        batch = _batch(num_decodes=2, chunks=(64, 64), last=(False, True))
        assert batch.num_logit_tokens == 3

    def test_unique_batch_ids(self):
        assert _batch(num_decodes=1).batch_id != _batch(num_decodes=1).batch_id

    def test_default_order_is_decodes_then_prefills(self):
        batch = _batch(num_decodes=2, chunks=(8,))
        assert batch.in_order(["d0", "d1", "p0"]) == ["d0", "d1", "p0"]

    def test_interleaved_order(self):
        batch = _batch(num_decodes=2, chunks=(8,), order=[2, 0, 1])
        assert batch.in_order(["d0", "d1", "p0"]) == ["p0", "d0", "d1"]
