"""Tests for the shared scheduler framework (admission, commit, preempt)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.arrays import RequestArrays
from repro.scheduling.vectorized import VecBatch, VecPagedMemory, VecScheduler
from repro.types import RequestPhase

from tests.conftest import Harness, make_request


class SingleDecodeScheduler(VecScheduler):
    """Minimal concrete policy: run everything runnable, admit one."""

    name = "test-policy"

    def _build_batch(self, now):
        A = self.A
        decodes, p_rows, p_chunk, p_past = [], [], [], []
        for row in self._schedulable_rows():
            if A.prefill_done[row] >= A.prefill_target[row]:
                decodes.append(row)
            else:
                p_rows.append(row)
                p_chunk.append(int(A.prefill_target[row] - A.prefill_done[row]))
                p_past.append(int(A.prefill_done[row]))
        if not decodes and not p_rows:
            admitted = self._admit_waiting_head()
            if admitted is None:
                return None
            p_rows.append(admitted)
            p_chunk.append(int(A.prefill_target[admitted]))
            p_past.append(0)
        rows = np.array(decodes, dtype=np.int64)
        ctx = A.prefill_done[rows] + A.decode_steps[rows]
        return VecBatch(rows, ctx, p_rows, p_chunk, p_past, [True] * len(p_rows))


def _harness(capacity: int = 4096, watermark: float = 0.01, **kwargs) -> Harness:
    arrays = RequestArrays()
    memory = VecPagedMemory(arrays, capacity, block_size=16, watermark=watermark)
    kwargs.setdefault("max_batch_size", 8)
    return Harness(SingleDecodeScheduler(arrays, memory, **kwargs))


@pytest.fixture
def h():
    return _harness()


class TestAddRequest:
    def test_fcfs_order(self, h):
        a = h.add(make_request(arrival_time=0.0), now=0.0)
        b = h.add(make_request(arrival_time=1.0), now=1.0)
        assert list(h.scheduler.waiting) == [a, b]

    def test_future_arrival_rejected(self, h):
        with pytest.raises(ValueError):
            h.add(make_request(arrival_time=5.0), now=1.0)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            _harness(max_batch_size=0)


class TestScheduleLifecycle:
    def test_schedule_marks_in_flight_and_timestamps(self, h):
        h.scheduler.track_in_flight = True
        r = h.add(make_request(prompt_len=32, output_len=2), now=0.0)
        batch = h.schedule(now=1.5)
        assert batch is not None
        assert h.request(r).first_scheduled_at == 1.5
        assert h.request(r).phase is RequestPhase.PREFILL
        # In-flight requests are not schedulable again.
        assert h.schedule(now=1.6) is None

    def test_schedule_returns_none_when_idle(self, h):
        assert h.schedule(now=0.0) is None

    def test_on_batch_complete_commits_progress(self, h):
        r = h.add(make_request(prompt_len=32, output_len=3), now=0.0)
        batch = h.schedule(now=0.0)
        assert h.complete(batch, now=0.5) == []
        assert h.request(r).is_prefill_complete
        assert h.request(r).num_emitted == 1

    def test_completion_frees_finished_request(self, h):
        r = h.add(make_request(prompt_len=32, output_len=1), now=0.0)
        free_before = h.scheduler.memory.free_blocks
        batch = h.schedule(now=0.0)
        assert h.complete(batch, now=0.5) == [r]
        assert h.scheduler.memory.free_blocks == free_before
        assert h.scheduler.num_running == 0

    def test_full_request_lifecycle(self, h):
        r = h.add(make_request(prompt_len=32, output_len=3), now=0.0)
        now = 0.0
        while not h.finished(r):
            batch = h.schedule(now)
            assert batch is not None
            now += 0.1
            h.complete(batch, now)
        assert h.request(r).num_emitted == 3

    def test_num_scheduled_batches_counter(self, h):
        h.add(make_request(prompt_len=32, output_len=2), now=0.0)
        batch = h.schedule(now=0.0)
        h.complete(batch, now=0.1)
        h.schedule(now=0.2)
        assert h.scheduler.num_scheduled_batches == 2

    def test_gauges_track_pending_work(self, h):
        h.add(make_request(prompt_len=32, output_len=2), now=0.0)
        assert h.scheduler.num_pending == 1
        assert h.scheduler.outstanding_tokens == 34
        h.drain()
        assert h.scheduler.num_pending == 0
        assert h.scheduler.outstanding_tokens == 0


class TestAdmission:
    def test_admit_waiting_head_respects_memory(self):
        h = _harness(capacity=64, watermark=0.0)
        h.add(make_request(prompt_len=1000), now=0.0)
        h.add(make_request(prompt_len=48), now=0.0)
        # Head of queue doesn't fit: FCFS means nothing is admitted.
        assert h.scheduler._admit_waiting_head() is None
        assert h.scheduler.num_waiting == 2

    def test_admit_moves_to_running(self, h):
        r = h.add(make_request(), now=0.0)
        free_before = h.scheduler.memory.free_blocks
        assert h.scheduler._admit_waiting_head() == r
        assert h.scheduler.num_running == 1
        assert h.scheduler.memory.free_blocks < free_before


class TestPreemption:
    def _running_decoder(self, h, prompt_len=32, output_len=50, arrival=0.0):
        row = h.add(
            make_request(prompt_len=prompt_len, output_len=output_len, arrival_time=arrival),
            now=arrival,
        )
        h.scheduler._admit_waiting_head()
        h.A.prefill_done[row] = prompt_len
        h.A.num_emitted[row] = 1
        return row

    def test_preempts_most_recent_arrival(self):
        h = _harness(capacity=96, watermark=0.0)
        old = self._running_decoder(h, prompt_len=48, arrival=0.0)
        young = self._running_decoder(h, prompt_len=48, arrival=1.0)
        # Memory is now full; growing `old` must evict `young`.
        assert h.scheduler.memory.free_blocks == 0
        assert h.scheduler._preempt_for_decode(old)
        assert h.request(young).phase is RequestPhase.QUEUED
        assert h.request(young).num_restarts == 1
        assert h.scheduler.waiting[0] == young
        assert h.scheduler.num_preemptions == 1

    def test_self_preemption_when_lowest_priority(self):
        h = _harness(capacity=48, watermark=0.0)
        only = self._running_decoder(h, prompt_len=48)
        assert not h.scheduler._preempt_for_decode(only)
        # With nobody else to evict, the request preempts itself.
        assert h.request(only).num_restarts == 1
        assert h.scheduler.waiting[0] == only
        assert h.scheduler.memory.free_blocks == 3

    def test_never_preempts_higher_priority_request(self):
        h = _harness(capacity=96, watermark=0.0)
        old = self._running_decoder(h, prompt_len=48, arrival=0.0)
        young = self._running_decoder(h, prompt_len=48, arrival=1.0)
        # Growing the YOUNG request must self-preempt, not evict `old`.
        assert not h.scheduler._preempt_for_decode(young)
        assert h.request(old).num_restarts == 0
        assert h.request(young).num_restarts == 1

    def test_no_preemption_when_space_available(self):
        h = _harness(capacity=4096, watermark=0.0)
        r = self._running_decoder(h)
        assert h.scheduler._preempt_for_decode(r)
        assert h.scheduler.num_preemptions == 0

    def test_recompute_restart_requeues_emitted_tokens(self):
        h = _harness(capacity=48, watermark=0.0)
        only = self._running_decoder(h, prompt_len=48)
        h.scheduler._preempt_for_decode(only)
        # The emitted token's KV must be rebuilt with the prompt.
        assert h.request(only).prefill_target == 49
        assert h.request(only).prefill_done == 0
