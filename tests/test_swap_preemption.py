"""Tests for swap-based preemption (vLLM's alternative to recompute)."""

from __future__ import annotations

import pytest

from repro.api import ServingConfig, build_engine
from repro.scheduling.vectorized import VecVLLMScheduler
from repro.types import RequestPhase

from tests.conftest import harness, make_request, shrink_kv_memory

KV_BYTES = 1024  # per token, arbitrary but nonzero


def swap_scheduler(capacity=160):
    return harness(
        VecVLLMScheduler, capacity,
        max_batch_size=8, preemption_mode="swap", kv_bytes_per_token=KV_BYTES,
    )


class TestConstruction:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="preemption_mode"):
            harness(VecVLLMScheduler, 1024, max_batch_size=8, preemption_mode="magic")

    def test_swap_requires_kv_bytes(self):
        with pytest.raises(ValueError, match="kv_bytes_per_token"):
            harness(VecVLLMScheduler, 1024, max_batch_size=8, preemption_mode="swap")


class TestSwapLifecycle:
    def _two_decoders(self, h):
        # Block geometry chosen so the EARLY request eventually needs a
        # block while the LATE one is running (early evicting late is
        # the swap path; a request evicting itself recomputes).
        early = h.add(make_request(prompt_len=60, output_len=40, arrival_time=0.0), now=0.0)
        h.complete(h.schedule(now=0.0), now=0.1)
        late = h.add(make_request(prompt_len=80, output_len=40, arrival_time=0.1), now=0.1)
        h.complete(h.schedule(now=0.1), now=0.2)
        return early, late

    def test_victim_is_swapped_not_restarted(self):
        h = swap_scheduler()
        scheduler = h.scheduler
        early, late = self._two_decoders(h)
        now = 0.2
        while not scheduler.num_swap_outs and now < 50:
            batch = h.schedule(now)
            if batch is None:
                break
            now += 0.1
            h.complete(batch, now)
        assert scheduler.num_swap_outs >= 1
        assert late in scheduler.swapped or h.request(late).num_restarts == 0
        # Swapped request keeps its computed state.
        if late in scheduler.swapped:
            assert h.request(late).phase is RequestPhase.PREEMPTED
            assert h.request(late).prefill_done == h.request(late).prefill_target

    def test_swap_bytes_charged_to_batches(self):
        h = swap_scheduler()
        scheduler = h.scheduler
        self._two_decoders(h)
        now = 0.2
        swap_bytes_seen = 0
        for _ in range(300):
            batch = h.schedule(now)
            if batch is None:
                if not scheduler.has_work:
                    break
                now += 0.1
                continue
            swap_bytes_seen += batch.swap_bytes
            now += 0.1
            h.complete(batch, now)
        assert scheduler.num_swap_outs >= 1
        assert scheduler.num_swap_ins >= 1
        # Out + in volumes both charged.
        assert swap_bytes_seen >= 2 * KV_BYTES * 64

    def test_all_requests_complete_under_swap(self):
        h = swap_scheduler(capacity=320)
        rows = [
            h.add(make_request(prompt_len=64, output_len=30, arrival_time=0.0), now=0.0)
            for _ in range(4)
        ]
        h.drain(max_iters=5000)
        assert all(h.finished(r) for r in rows)

    def test_self_preemption_falls_back_to_recompute(self):
        h = swap_scheduler(capacity=48)
        only = h.add(make_request(prompt_len=48, output_len=10), now=0.0)
        h.complete(h.schedule(now=0.0), now=0.1)
        assert not h.scheduler._preempt_for_decode(only)
        # Recompute path: restarted and re-queued, not parked in swap.
        assert h.request(only).num_restarts == 1
        assert only not in h.scheduler.swapped


class TestEngineChargesSwapTime:
    def test_swap_traffic_extends_iterations(self, tiny_deployment):
        config = ServingConfig(
            scheduler="vllm", preemption_mode="swap"
        )
        engine = build_engine(tiny_deployment, config)
        # Shrink memory to force swapping.
        shrink_kv_memory(engine)
        trace = [
            make_request(prompt_len=600, output_len=120, arrival_time=0.0)
            for _ in range(8)
        ]
        result = engine.run(trace)
        assert all(r.is_finished for r in result.requests)
        assert engine.scheduler.num_swap_outs > 0
        # Swap transfers show up as communication time on stage 0.
        assert any(r.breakdown.communication > 0 for r in result.records)

    def test_swap_roundtrips_preserve_progress(self, tiny_deployment):
        """Every swap-out is matched by a swap-in, and swapping adds no
        re-prefill work: total recorded prefill equals the requests'
        prefill targets (which only self-preemption recomputes grow)."""
        config = ServingConfig(scheduler="vllm", preemption_mode="swap")
        engine = build_engine(tiny_deployment, config)
        shrink_kv_memory(engine)
        trace = [
            make_request(prompt_len=600, output_len=120, arrival_time=0.0)
            for _ in range(8)
        ]
        result = engine.run(trace)
        scheduler = engine.scheduler
        assert scheduler.num_swap_outs > 0
        assert scheduler.num_swap_ins == scheduler.num_swap_outs
        recorded_prefill = sum(r.num_prefill_tokens for r in result.records)
        base_prefill = sum(r.prompt_len for r in trace)
        # All extra prefill work is attributable to recompute restarts
        # (self-preemptions); swap round-trips themselves add none.
        total_restarts = sum(r.num_restarts for r in trace)
        max_restart_cost = max(r.prompt_len + r.output_len for r in trace)
        assert recorded_prefill >= base_prefill
        assert recorded_prefill <= base_prefill + total_restarts * max_restart_cost
