"""Behavioural tests for Sarathi-Serve's stall-free batching (Algorithm 3)."""

from __future__ import annotations

import pytest

from repro.scheduling.vectorized import VecSarathiScheduler, next_chunk_size

from tests.conftest import harness, make_request


def sarathi(token_budget=512, max_batch_size=8, capacity=65536, **kwargs):
    return harness(
        VecSarathiScheduler, capacity,
        token_budget=token_budget, max_batch_size=max_batch_size, **kwargs,
    )


class TestChunking:
    def test_chunk_bounded_by_leftover_budget(self):
        r = make_request(prompt_len=1000)
        assert next_chunk_size(r.remaining_prefill, token_budget=512, tokens_used=100) == 412

    def test_chunk_bounded_by_remaining_prompt(self):
        r = make_request(prompt_len=100)
        assert next_chunk_size(r.remaining_prefill, token_budget=512, tokens_used=0) == 100

    def test_zero_when_budget_exhausted(self):
        r = make_request(prompt_len=100)
        assert next_chunk_size(r.remaining_prefill, token_budget=512, tokens_used=512) == 0
        assert next_chunk_size(r.remaining_prefill, token_budget=512, tokens_used=600) == 0

    def test_partial_prefill_uses_remaining(self):
        r = make_request(prompt_len=1000)
        r.record_prefill(900, now=0.0)
        assert next_chunk_size(r.remaining_prefill, token_budget=512, tokens_used=0) == 100

    def test_invalid_inputs_rejected(self):
        r = make_request()
        with pytest.raises(ValueError):
            next_chunk_size(r.remaining_prefill, token_budget=0, tokens_used=0)
        with pytest.raises(ValueError):
            next_chunk_size(r.remaining_prefill, token_budget=512, tokens_used=-1)


class TestStallFreeBatching:
    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            sarathi(token_budget=0)

    def test_token_budget_never_exceeded(self):
        s = sarathi(token_budget=256, max_batch_size=32)
        for _ in range(6):
            s.add(make_request(prompt_len=1000, output_len=4), now=0.0)
        now = 0.0
        while s.scheduler.has_work:
            batch = s.schedule(now)
            if batch is None:
                break
            assert batch.num_tokens <= 256
            now += 0.1
            s.complete(batch, now)

    def test_decodes_always_included(self):
        """Stall-free: a running decode appears in EVERY iteration."""
        s = sarathi(token_budget=256)
        decoder = s.add(make_request(prompt_len=64, output_len=20), now=0.0)
        s.complete(s.schedule(now=0.0), now=0.1)
        # A long prompt arrives — it must not displace the decode.
        s.add(make_request(prompt_len=4096, output_len=4), now=0.1)
        now = 0.1
        while not s.finished(decoder):
            batch = s.schedule(now)
            assert decoder in batch.decode_rows.tolist(), "ongoing decode was stalled"
            now += 0.1
            s.complete(batch, now)

    def test_prefill_split_across_iterations(self):
        s = sarathi(token_budget=256)
        r = s.add(make_request(prompt_len=1000, output_len=2), now=0.0)
        chunks = []
        now = 0.0
        while not s.request(r).is_prefill_complete:
            batch = s.schedule(now)
            chunks.append(batch.num_prefill_tokens)
            now += 0.1
            s.complete(batch, now)
        assert chunks == [256, 256, 256, 232]

    def test_ongoing_prefill_before_new_admission(self):
        """Lines 9-12 run before lines 13-20."""
        s = sarathi(token_budget=256)
        first = s.add(make_request(prompt_len=1000, output_len=2, arrival_time=0.0), now=0.0)
        s.complete(s.schedule(now=0.0), now=0.1)
        s.add(make_request(prompt_len=1000, output_len=2, arrival_time=0.1), now=0.1)
        batch = s.schedule(now=0.1)
        # The whole budget goes to the partially-done first request.
        assert batch.size == 1
        assert batch.p_rows == [first]

    def test_new_request_fills_leftover_budget(self):
        s = sarathi(token_budget=256)
        s.add(make_request(prompt_len=64, output_len=20), now=0.0)
        s.complete(s.schedule(now=0.0), now=0.1)
        s.add(make_request(prompt_len=4096, output_len=2), now=0.1)
        batch = s.schedule(now=0.1)
        assert batch.num_prefill_seqs and batch.num_decode_seqs  # hybrid
        assert batch.num_decode_tokens == 1
        assert batch.num_prefill_tokens == 255  # 256 - 1 decode token

    def test_multiple_new_requests_share_budget(self):
        s = sarathi(token_budget=512)
        for _ in range(3):
            s.add(make_request(prompt_len=200, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.num_prefill_seqs == 3
        assert batch.num_prefill_tokens == 512  # 200 + 200 + 112

    def test_max_batch_size_respected(self):
        s = sarathi(token_budget=4096, max_batch_size=4)
        for _ in range(10):
            s.add(make_request(prompt_len=64, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.size == 4

    def test_all_requests_complete(self):
        s = sarathi(token_budget=256)
        rows = [
            s.add(make_request(prompt_len=300, output_len=5, arrival_time=0.0), now=0.0)
            for _ in range(8)
        ]
        s.drain()
        assert all(s.finished(r) for r in rows)

    def test_completion_under_memory_pressure(self):
        s = sarathi(token_budget=256, capacity=1024)
        rows = [
            s.add(make_request(prompt_len=200, output_len=40, arrival_time=0.0), now=0.0)
            for _ in range(6)
        ]
        s.drain()
        assert all(s.finished(r) for r in rows)


class TestHybridOnlyMode:
    def test_no_chunking_schedules_full_prompt(self):
        s = sarathi(token_budget=256, chunk_prefills=False)
        s.add(make_request(prompt_len=4096, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.num_prefill_tokens == 4096  # exceeds budget: no chunking

    def test_still_coalesces_decodes_first(self):
        s = sarathi(token_budget=256, chunk_prefills=False)
        s.add(make_request(prompt_len=64, output_len=20), now=0.0)
        s.complete(s.schedule(now=0.0), now=0.1)
        s.add(make_request(prompt_len=4096, output_len=2), now=0.1)
        batch = s.schedule(now=0.1)
        assert batch.num_prefill_seqs and batch.num_decode_seqs  # hybrid
        assert batch.num_prefill_tokens == 4096
