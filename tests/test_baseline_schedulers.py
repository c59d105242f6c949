"""Behavioural tests for the baseline policies (Algorithms 1 and 2)."""

from __future__ import annotations

import pytest

from repro.scheduling.vectorized import (
    VecFasterTransformerScheduler,
    VecOrcaScheduler,
    VecVLLMScheduler,
)

from tests.conftest import harness, make_request


class TestFasterTransformer:
    def _scheduler(self, max_batch_size=4):
        return harness(
            VecFasterTransformerScheduler, 16384, memory="reservation",
            reserve_len=512, max_batch_size=max_batch_size,
        )

    def test_prefills_whole_batch_first(self):
        s = self._scheduler()
        for _ in range(3):
            s.add(make_request(prompt_len=64, output_len=4), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.num_prefill_seqs == 3
        assert batch.num_decode_seqs == 0

    def test_no_admission_while_decodes_remain(self):
        """Line 3 of Algorithm 1: new requests wait for a full drain."""
        s = self._scheduler(max_batch_size=2)
        s.add(make_request(prompt_len=32, output_len=3), now=0.0)
        s.add(make_request(prompt_len=32, output_len=3), now=0.0)
        first = s.schedule(now=0.0)
        s.complete(first, now=0.1)
        # A new request arrives mid-decode.
        late = s.add(make_request(prompt_len=32, output_len=2, arrival_time=0.1), now=0.1)
        batch = s.schedule(now=0.2)
        assert batch.num_prefill_seqs == 0
        assert late not in batch.decode_rows.tolist()

    def test_batch_shrinks_as_requests_finish(self):
        s = self._scheduler()
        s.add(make_request(prompt_len=32, output_len=2), now=0.0)
        s.add(make_request(prompt_len=32, output_len=6), now=0.0)
        batches = s.drain()
        sizes = [b.size for b in batches]
        # After the short request drains, batch size drops to 1.
        assert sizes[-1] == 1
        assert max(sizes) == 2

    def test_all_requests_complete(self):
        s = self._scheduler()
        rows = [s.add(make_request(prompt_len=32, output_len=3), now=0.0) for _ in range(6)]
        s.drain()
        assert all(s.finished(r) for r in rows)


class TestOrca:
    def _scheduler(self, max_batch_size=8, reserve_len=512):
        return harness(
            VecOrcaScheduler, 16384, memory="reservation",
            reserve_len=reserve_len, max_batch_size=max_batch_size,
        )

    def test_eager_admission_into_hybrid_batch(self):
        s = self._scheduler()
        s.add(make_request(prompt_len=32, output_len=10), now=0.0)
        first = s.schedule(now=0.0)
        s.complete(first, now=0.1)
        # New arrival joins the SAME iteration as the ongoing decode.
        s.add(make_request(prompt_len=256, output_len=4, arrival_time=0.1), now=0.1)
        batch = s.schedule(now=0.2)
        assert batch.num_prefill_seqs and batch.num_decode_seqs  # hybrid
        assert batch.num_prefill_tokens == 256  # full prompt, no chunking
        assert batch.num_decode_seqs == 1

    def test_full_prompt_in_single_iteration(self):
        s = self._scheduler()
        s.add(make_request(prompt_len=4096, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.num_prefill_tokens == 4096

    def test_memory_caps_admission(self):
        s = self._scheduler(reserve_len=4096)
        for _ in range(8):
            s.add(make_request(prompt_len=64, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        # 16384 / 4096 = 4 reservations fit.
        assert batch.size == 4

    def test_batch_size_cap(self):
        s = self._scheduler(max_batch_size=3, reserve_len=128)
        for _ in range(10):
            s.add(make_request(prompt_len=32, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.size == 3

    def test_all_requests_complete(self):
        s = self._scheduler()
        rows = [s.add(make_request(prompt_len=64, output_len=4), now=0.0) for _ in range(10)]
        s.drain()
        assert all(s.finished(r) for r in rows)


class TestVLLM:
    def _scheduler(self, capacity=65536, max_batch_size=8, max_batched_tokens=4096):
        return harness(
            VecVLLMScheduler, capacity,
            max_batch_size=max_batch_size, max_batched_tokens=max_batched_tokens,
        )

    def test_invalid_token_cap_rejected(self):
        with pytest.raises(ValueError):
            self._scheduler(max_batched_tokens=0)

    def test_prefill_only_batches(self):
        """Algorithm 2: prefills never mix with decodes."""
        s = self._scheduler()
        s.add(make_request(prompt_len=128, output_len=8), now=0.0)
        first = s.schedule(now=0.0)
        assert first.num_decode_seqs == 0
        s.complete(first, now=0.1)
        s.add(make_request(prompt_len=256, output_len=4), now=0.1)
        second = s.schedule(now=0.1)
        # New prefill takes priority over the running decode...
        assert second.num_prefill_seqs == 1
        assert second.num_decode_seqs == 0

    def test_generation_stall_structure(self):
        """Eagerly scheduled prefills delay ongoing decodes."""
        s = self._scheduler()
        s.add(make_request(prompt_len=64, output_len=10), now=0.0)
        s.complete(s.schedule(now=0.0), now=0.1)
        # Two new requests arrive; both prefills run before any decode.
        for _ in range(2):
            s.add(make_request(prompt_len=512, output_len=4), now=0.1)
        batch = s.schedule(now=0.1)
        assert batch.num_prefill_seqs == 2
        s.complete(batch, now=0.5)
        decode_batch = s.schedule(now=0.5)
        assert decode_batch.num_decode_seqs == 3  # now everyone decodes

    def test_max_batched_tokens_caps_prefill_batch(self):
        s = self._scheduler(max_batched_tokens=1000)
        for _ in range(4):
            s.add(make_request(prompt_len=600, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.num_prefill_seqs == 1  # 600 + 600 > 1000

    def test_single_oversized_prompt_still_admitted(self):
        s = self._scheduler(max_batched_tokens=1000)
        s.add(make_request(prompt_len=5000, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch is not None
        assert batch.num_prefill_tokens == 5000

    def test_preemption_recompute_roundtrip(self):
        # Tight memory: two decoding requests, growth forces eviction.
        s = self._scheduler(capacity=160, max_batched_tokens=4096)
        s.add(make_request(prompt_len=64, output_len=40, arrival_time=0.0), now=0.0)
        s.complete(s.schedule(now=0.0), now=0.1)
        late = s.add(make_request(prompt_len=80, output_len=40, arrival_time=0.1), now=0.1)
        s.complete(s.schedule(now=0.1), now=0.2)
        # Decode until memory pressure triggers a preemption.
        now = 0.2
        for _ in range(200):
            batch = s.schedule(now)
            if batch is None:
                break
            now += 0.1
            s.complete(batch, now)
            if s.scheduler.num_preemptions:
                break
        assert s.scheduler.num_preemptions >= 1
        assert s.request(late).num_restarts >= 1

    def test_all_requests_complete_under_pressure(self):
        s = self._scheduler(capacity=320)
        rows = [
            s.add(make_request(prompt_len=64, output_len=30, arrival_time=0.0), now=0.0)
            for _ in range(4)
        ]
        s.drain()
        assert all(s.finished(r) for r in rows)


@pytest.mark.parametrize(
    "cls", [VecOrcaScheduler, VecFasterTransformerScheduler], ids=lambda c: c.__name__
)
class TestReservationBatching:
    """Orca and FasterTransformer share one batch composition."""

    def _scheduler(self, cls):
        return harness(cls, 16384, memory="reservation", reserve_len=512, max_batch_size=4)

    def test_partial_running_row_raises(self, cls):
        """A whole prompt commits with the batch that admitted it, so a
        mid-prefill row in the running set is a scheduler bug."""
        s = self._scheduler(cls)
        s.add(make_request(prompt_len=64, output_len=4), now=0.0)
        assert s.scheduler._admit_waiting_head() is not None
        with pytest.raises(RuntimeError, match="partially prefilled"):
            s.schedule(now=0.0)

    def test_decodes_in_running_order(self, cls):
        """Not arrival order: a failed-over request re-arrives with its
        original arrival time, behind requests that arrived after it."""
        s = self._scheduler(cls)
        late = s.add(make_request(prompt_len=32, output_len=4, arrival_time=0.2), now=0.3)
        early = s.add(make_request(prompt_len=32, output_len=4, arrival_time=0.1), now=0.3)
        s.complete(s.schedule(now=0.3), now=0.4)
        assert s.schedule(now=0.4).decode_rows.tolist() == [late, early]
