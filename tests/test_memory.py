"""Tests for the paged and reservation KV-cache allocators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.arrays import RequestArrays
from repro.hardware.catalog import A40_48G, A100_80G
from repro.memory.capacity import kv_token_capacity
from repro.models.catalog import FALCON_180B, MISTRAL_7B, YI_34B
from repro.parallel.config import ParallelConfig
from repro.scheduling.vectorized import VecPagedMemory, VecReservationMemory

from tests.conftest import make_request


def _row(arrays: RequestArrays, **kwargs) -> int:
    return arrays.ingest(make_request(**kwargs))


def paged(capacity_tokens: int, **kwargs) -> tuple[RequestArrays, VecPagedMemory]:
    arrays = RequestArrays()
    kwargs.setdefault("block_size", 16)
    return arrays, VecPagedMemory(arrays, capacity_tokens, **kwargs)


def reservation(capacity_tokens: int, reserve_len: int):
    arrays = RequestArrays()
    return arrays, VecReservationMemory(arrays, capacity_tokens, reserve_len)


class TestPagedMemory:
    def test_construction_validates(self):
        arrays = RequestArrays()
        with pytest.raises(ValueError):
            VecPagedMemory(arrays, capacity_tokens=0, block_size=16)
        with pytest.raises(ValueError):
            VecPagedMemory(arrays, capacity_tokens=100, block_size=0)
        with pytest.raises(ValueError):
            VecPagedMemory(arrays, capacity_tokens=100, block_size=16, watermark=1.0)

    def test_blocks_for_rounds_up(self):
        _, mgr = paged(1024)
        assert mgr.blocks_for(1) == 1
        assert mgr.blocks_for(16) == 1
        assert mgr.blocks_for(17) == 2

    def test_admit_claims_prompt_blocks(self):
        arrays, mgr = paged(1024, watermark=0.0)
        r = _row(arrays, prompt_len=100)
        assert mgr.can_admit(r)
        mgr.admit(r)
        assert mgr.free_blocks == 64 - 7  # ceil(100/16) = 7

    def test_double_admit_rejected(self):
        arrays, mgr = paged(1024)
        r = _row(arrays)
        mgr.admit(r)
        with pytest.raises(ValueError):
            mgr.admit(r)

    def test_admission_respects_watermark(self):
        arrays, mgr = paged(1600, watermark=0.10)
        # 100 blocks, 10 reserved as watermark.
        assert not mgr.can_admit(_row(arrays, prompt_len=16 * 91))
        assert mgr.can_admit(_row(arrays, prompt_len=16 * 90))

    def test_try_admit_is_can_admit_plus_admit(self):
        arrays, mgr = paged(1600, watermark=0.10)
        assert not mgr.try_admit(_row(arrays, prompt_len=16 * 91))
        assert mgr.free_blocks == 100
        assert mgr.try_admit(_row(arrays, prompt_len=16 * 90))
        assert mgr.free_blocks == 10

    def test_admit_beyond_capacity_raises(self):
        arrays, mgr = paged(64)
        with pytest.raises(MemoryError):
            mgr.admit(_row(arrays, prompt_len=1000))

    def test_decode_growth_within_block_is_free(self):
        arrays, mgr = paged(1024, watermark=0.0)
        r = _row(arrays, prompt_len=10, output_len=4)
        mgr.admit(r)
        arrays.prefill_done[r] = 10
        free_before = mgr.free_blocks
        assert mgr.can_append_token(r)
        mgr.append_token(r)  # token 11 fits in the first block
        assert mgr.free_blocks == free_before

    def test_decode_growth_allocates_new_block_on_boundary(self):
        arrays, mgr = paged(1024, watermark=0.0)
        r = _row(arrays, prompt_len=16, output_len=4)
        mgr.admit(r)
        arrays.prefill_done[r] = 16
        free_before = mgr.free_blocks
        mgr.append_token(r)  # token 17 needs block #2
        assert mgr.free_blocks == free_before - 1

    def test_cannot_append_when_exhausted(self):
        arrays, mgr = paged(32, watermark=0.0)
        r = _row(arrays, prompt_len=32, output_len=4)
        mgr.admit(r)
        arrays.prefill_done[r] = 32
        assert not mgr.can_append_token(r)
        with pytest.raises(MemoryError):
            mgr.append_token(r)

    def test_append_without_allocation_rejected(self):
        arrays, mgr = paged(1024)
        with pytest.raises(ValueError):
            mgr.append_token(_row(arrays))

    def test_can_append_without_allocation_rejected(self):
        """``can_append_token`` must flag never-admitted rows loudly
        (scheduler bug), matching ``append_token`` — not return True."""
        arrays, mgr = paged(1024)
        with pytest.raises(ValueError, match="holds no allocation"):
            mgr.can_append_token(_row(arrays))

    def test_free_of_unknown_request_is_noop(self):
        """``free`` of a row that was never admitted (or already freed)
        is an explicit no-op: nothing changes, nothing raises."""
        arrays, mgr = paged(1024, watermark=0.0)
        free_before = mgr.free_blocks
        mgr.free(_row(arrays))
        assert mgr.free_blocks == free_before

    def test_free_returns_blocks(self):
        arrays, mgr = paged(1024, watermark=0.0)
        r = _row(arrays, prompt_len=160)
        mgr.admit(r)
        mgr.free(r)
        assert mgr.free_blocks == 64
        mgr.admit(r)  # nothing held any more: re-admission is legal

    def test_free_is_idempotent(self):
        arrays, mgr = paged(1024)
        r = _row(arrays)
        mgr.admit(r)
        mgr.free(r)
        mgr.free(r)
        assert mgr.free_token_slots == 1024 // 16 * 16

    def test_admission_uses_prefill_target_after_preemption(self):
        arrays, mgr = paged(1024, watermark=0.0)
        r = _row(arrays, prompt_len=100, output_len=50)
        mgr.admit(r)
        arrays.prefill_done[r] = 100
        for _ in range(30):
            mgr.append_token(r)
            arrays.decode_steps[r] += 1
        mgr.free(r)
        # A recompute restart re-prefills prompt + emitted tokens (the
        # first token came from the prefill, 30 more from decode).
        arrays.prefill_target[r] = 100 + 31
        arrays.prefill_done[r] = 0
        arrays.decode_steps[r] = 0
        mgr.admit(r)
        assert mgr.free_blocks == 64 - mgr.blocks_for(131)

    def test_no_fragmentation_across_requests(self):
        arrays, mgr = paged(160, watermark=0.0)
        rows = [_row(arrays, prompt_len=16) for _ in range(10)]
        for r in rows:
            mgr.admit(r)
        assert mgr.free_blocks == 0
        mgr.free(rows[3])
        mgr.free(rows[7])
        # Any new 2-block request fits in the scattered free blocks.
        assert mgr.can_admit(_row(arrays, prompt_len=32))

    def test_bulk_decode_all_or_nothing(self):
        arrays, mgr = paged(64, watermark=0.0)
        rows = [_row(arrays, prompt_len=16) for _ in range(3)]
        for r in rows:
            mgr.admit(r)
            arrays.prefill_done[r] = 16
        rows_arr = np.array(rows, dtype=np.int64)
        ctx = arrays.prefill_done[rows_arr] + arrays.decode_steps[rows_arr]
        # Three rows each cross a block boundary; only one block is free.
        assert not mgr.try_bulk_decode(rows_arr, ctx)
        assert mgr.free_blocks == 1
        assert mgr.try_bulk_decode(rows_arr[:1], ctx[:1])
        assert mgr.free_blocks == 0


class TestReservationMemory:
    def test_construction_validates(self):
        arrays = RequestArrays()
        with pytest.raises(ValueError):
            VecReservationMemory(arrays, capacity_tokens=0, reserve_len=10)
        with pytest.raises(ValueError):
            VecReservationMemory(arrays, capacity_tokens=10, reserve_len=0)

    def test_reserves_worst_case_slot(self):
        arrays, mgr = reservation(4096, 1024)
        mgr.admit(_row(arrays, prompt_len=100, output_len=10))
        assert mgr.free_token_slots == 4096 - 1024

    def test_long_prompt_reserves_its_own_length(self):
        arrays, mgr = reservation(4096, 1024)
        mgr.admit(_row(arrays, prompt_len=2000, output_len=100))
        assert mgr.free_token_slots == 4096 - 2100

    def test_fewer_requests_fit_than_paged(self):
        """The §5.1 effect: reservation caps effective batch size."""
        capacity = 8192
        p_arrays, paged_mem = paged(capacity, watermark=0.0)
        r_arrays, reserved = reservation(capacity, 2048)
        paged_admits = sum(
            paged_mem.try_admit(_row(p_arrays, prompt_len=128, output_len=32))
            for _ in range(100)
        )
        reserved_admits = sum(
            reserved.try_admit(_row(r_arrays, prompt_len=128, output_len=32))
            for _ in range(100)
        )
        assert reserved_admits < paged_admits / 4

    def test_decode_growth_prepaid(self):
        arrays, mgr = reservation(2048, 1024)
        r = _row(arrays, prompt_len=100, output_len=500)
        mgr.admit(r)
        arrays.prefill_done[r] = 100
        for _ in range(400):
            assert mgr.can_append_token(r)
            mgr.append_token(r)
        assert mgr.free_token_slots == 2048 - 1024

    def test_append_without_admission_rejected(self):
        arrays, mgr = reservation(2048, 1024)
        assert not mgr.can_append_token(_row(arrays))

    def test_free_returns_full_reservation(self):
        arrays, mgr = reservation(2048, 1024)
        r = _row(arrays)
        mgr.admit(r)
        mgr.free(r)
        assert mgr.free_token_slots == 2048

    def test_admit_over_capacity_raises(self):
        arrays, mgr = reservation(1000, 600)
        mgr.admit(_row(arrays))
        with pytest.raises(MemoryError):
            mgr.admit(_row(arrays))


class TestKVTokenCapacity:
    def test_mistral_on_a100_has_large_cache(self):
        tokens = kv_token_capacity(MISTRAL_7B, A100_80G, ParallelConfig())
        # ~57 GB free / 131 KB per token ≈ 450k tokens.
        assert 200_000 < tokens < 800_000

    def test_tp_increases_capacity(self):
        tp1 = kv_token_capacity(YI_34B, A100_80G, ParallelConfig())
        tp2 = kv_token_capacity(YI_34B, A100_80G, ParallelConfig(tensor_parallel=2))
        assert tp2 > 2 * tp1  # weights halve too, freeing extra room

    def test_model_too_big_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            kv_token_capacity(FALCON_180B, A40_48G, ParallelConfig())

    def test_invalid_utilization_rejected(self):
        with pytest.raises(ValueError):
            kv_token_capacity(
                MISTRAL_7B, A100_80G, ParallelConfig(), gpu_memory_utilization=1.5
            )

    def test_activation_reserve_reduces_capacity(self):
        small = kv_token_capacity(
            MISTRAL_7B, A100_80G, ParallelConfig(), activation_reserve_bytes=1 << 30
        )
        big = kv_token_capacity(
            MISTRAL_7B, A100_80G, ParallelConfig(), activation_reserve_bytes=16 << 30
        )
        assert big < small
