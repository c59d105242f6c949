"""Unit tests for the fundamental value types."""

from __future__ import annotations

import pytest

from repro.types import (
    IterationTime,
    Request,
    RequestPhase,
    TokenWork,
    next_request_id,
)


class TestRequestConstruction:
    def test_defaults(self):
        r = Request(prompt_len=100, output_len=10)
        assert r.phase is RequestPhase.QUEUED
        assert r.prefill_target == 100
        assert r.prefill_done == 0
        assert r.num_emitted == 0
        assert r.total_len == 110

    def test_unique_ids(self):
        a = Request(prompt_len=1, output_len=1)
        b = Request(prompt_len=1, output_len=1)
        assert a.request_id != b.request_id

    def test_next_request_id_monotone(self):
        assert next_request_id() < next_request_id()

    @pytest.mark.parametrize("prompt,output", [(0, 1), (-1, 1), (1, 0), (1, -5)])
    def test_rejects_nonpositive_lengths(self, prompt, output):
        with pytest.raises(ValueError):
            Request(prompt_len=prompt, output_len=output)


class TestRequestPrefillLifecycle:
    def test_partial_prefill_progress(self):
        r = Request(prompt_len=100, output_len=5)
        r.record_prefill(40, now=1.0)
        assert r.prefill_done == 40
        assert not r.is_prefill_complete
        assert r.remaining_prefill == 60
        assert r.num_emitted == 0

    def test_prefill_completion_emits_first_token(self):
        r = Request(prompt_len=100, output_len=5)
        r.record_prefill(100, now=2.5)
        assert r.is_prefill_complete
        assert r.phase is RequestPhase.DECODE
        assert r.num_emitted == 1
        assert r.first_token_at == 2.5
        assert r.token_times.tolist() == [2.5]

    def test_chunked_prefill_emits_only_at_end(self):
        r = Request(prompt_len=100, output_len=5)
        r.record_prefill(60, now=1.0)
        assert r.num_emitted == 0
        r.record_prefill(40, now=2.0)
        assert r.num_emitted == 1
        assert r.first_token_at == 2.0

    def test_prefill_overshoot_rejected(self):
        r = Request(prompt_len=100, output_len=5)
        with pytest.raises(ValueError):
            r.record_prefill(101, now=0.0)

    def test_single_token_output_finishes_at_prefill(self):
        r = Request(prompt_len=10, output_len=1)
        r.record_prefill(10, now=1.0)
        assert r.is_finished
        assert r.finished_at == 1.0


class TestRequestDecodeLifecycle:
    def _prefilled(self, output_len=3) -> Request:
        r = Request(prompt_len=10, output_len=output_len)
        r.record_prefill(10, now=1.0)
        return r

    def test_decode_emits_token(self):
        r = self._prefilled()
        r.record_decode(now=1.1)
        assert r.num_emitted == 2
        assert r.decode_steps == 1
        assert r.token_times.tolist() == [1.0, 1.1]

    def test_decode_before_prefill_rejected(self):
        r = Request(prompt_len=10, output_len=2)
        with pytest.raises(ValueError):
            r.record_decode(now=0.0)

    def test_finishes_after_output_len_tokens(self):
        r = self._prefilled(output_len=3)
        r.record_decode(now=1.1)
        assert not r.is_finished
        r.record_decode(now=1.2)
        assert r.is_finished
        assert r.finished_at == 1.2

    def test_context_len_tracks_kv_footprint(self):
        r = self._prefilled(output_len=5)
        assert r.context_len == 10
        r.record_decode(now=1.1)
        assert r.context_len == 11

    def test_tbt_samples(self):
        r = self._prefilled(output_len=4)
        for t in (1.5, 2.5, 4.0):
            r.record_decode(now=t)
        assert r.tbt_samples == pytest.approx([0.5, 1.0, 1.5])


class TestRequestPreemption:
    def test_restart_folds_emitted_tokens_into_prefill(self):
        r = Request(prompt_len=100, output_len=10, arrival_time=0.0)
        r.record_prefill(100, now=1.0)
        r.record_decode(now=1.1)
        r.record_decode(now=1.2)
        assert r.num_emitted == 3
        r.restart_after_preemption()
        assert r.prefill_target == 103
        assert r.prefill_done == 0
        assert r.decode_steps == 0
        assert r.phase is RequestPhase.QUEUED
        assert r.num_restarts == 1
        # Emission history survives.
        assert r.num_emitted == 3
        assert len(r.token_times) == 3

    def test_decode_resumes_without_reemitting(self):
        r = Request(prompt_len=50, output_len=5)
        r.record_prefill(50, now=1.0)
        r.record_decode(now=1.1)
        r.restart_after_preemption()
        r.record_prefill(52, now=3.0)  # re-prefill incl. emitted tokens
        assert r.num_emitted == 2  # no new emission from re-prefill
        r.record_decode(now=3.1)
        assert r.num_emitted == 3
        r.record_decode(now=3.2)
        r.record_decode(now=3.3)
        assert r.is_finished

    def test_first_token_time_not_overwritten(self):
        r = Request(prompt_len=50, output_len=5)
        r.record_prefill(50, now=1.0)
        r.restart_after_preemption()
        r.record_prefill(51, now=4.0)
        assert r.first_token_at == 1.0


class TestRequestMetrics:
    def test_ttft_from_arrival(self):
        r = Request(prompt_len=10, output_len=2, arrival_time=5.0)
        r.record_prefill(10, now=7.5)
        assert r.ttft == pytest.approx(2.5)

    def test_ttft_none_before_first_token(self):
        r = Request(prompt_len=10, output_len=2)
        assert r.ttft is None

    def test_scheduling_delay(self):
        r = Request(prompt_len=10, output_len=2, arrival_time=1.0)
        assert r.scheduling_delay is None
        r.first_scheduled_at = 3.0
        assert r.scheduling_delay == pytest.approx(2.0)

    def test_e2e_latency(self):
        r = Request(prompt_len=10, output_len=1, arrival_time=2.0)
        assert r.e2e_latency is None
        r.record_prefill(10, now=6.0)
        assert r.e2e_latency == pytest.approx(4.0)


class TestTokenWork:
    def test_decode_constructor(self):
        w = TokenWork.decode(128)
        assert w.num_tokens == 1
        assert w.past_len == 128
        assert not w.is_prefill
        assert w.emits_token

    def test_prefill_chunk_constructor(self):
        w = TokenWork.prefill_chunk(256, past_len=512, is_last=False)
        assert w.num_tokens == 256
        assert w.past_len == 512
        assert w.is_prefill
        assert not w.emits_token

    def test_last_chunk_emits(self):
        assert TokenWork.prefill_chunk(16).emits_token

    def test_attention_span(self):
        assert TokenWork.prefill_chunk(100, past_len=50).attention_span == 150
        assert TokenWork.decode(10).attention_span == 11

    @pytest.mark.parametrize("tokens,past", [(0, 0), (-1, 0), (1, -1)])
    def test_invalid_values_rejected(self, tokens, past):
        with pytest.raises(ValueError):
            TokenWork(num_tokens=tokens, past_len=past, is_prefill=True)


class TestIterationTime:
    def test_total_sums_components(self):
        t = IterationTime(1.0, 2.0, 3.0, 4.0, 5.0)
        assert t.total == pytest.approx(15.0)

    def test_addition(self):
        a = IterationTime(1, 1, 1, 1, 1)
        b = IterationTime(2, 2, 2, 2, 2)
        c = a + b
        assert c.linear == 3
        assert c.total == pytest.approx(15.0)

    def test_scaled(self):
        t = IterationTime(1.0, 2.0, 0.0, 0.0, 1.0).scaled(2.0)
        assert t.linear == 2.0
        assert t.attention == 4.0
        assert t.total == pytest.approx(8.0)
