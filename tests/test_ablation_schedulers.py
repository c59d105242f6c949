"""Tests for the Table 4 ablation schedulers."""

from __future__ import annotations

import pytest

from repro.api import Deployment, ServingConfig, build_vectorized_scheduler
from repro.hardware.catalog import A100_80G
from repro.models.catalog import TINY_1B
from repro.scheduling.vectorized import VecChunkedPrefillsOnlyScheduler

from tests.conftest import Harness, harness, make_request


def chunked_only(token_budget=256, max_batch_size=8, capacity=65536):
    return harness(
        VecChunkedPrefillsOnlyScheduler, capacity,
        token_budget=token_budget, max_batch_size=max_batch_size,
    )


class TestChunkedPrefillsOnly:
    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            chunked_only(token_budget=0)

    def test_batches_never_hybrid(self):
        s = chunked_only()
        for _ in range(3):
            s.add(make_request(prompt_len=600, output_len=6), now=0.0)
        for batch in s.drain():
            assert not (batch.num_prefill_seqs and batch.num_decode_seqs)

    def test_prefill_batches_respect_budget(self):
        s = chunked_only(token_budget=256)
        s.add(make_request(prompt_len=2000, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.num_prefill_tokens == 256

    def test_alternates_decode_and_prefill(self):
        """A running decode is stalled by at most one chunk iteration."""
        s = chunked_only(token_budget=256)
        s.add(make_request(prompt_len=64, output_len=20), now=0.0)
        s.complete(s.schedule(now=0.0), now=0.1)
        s.add(make_request(prompt_len=2000, output_len=2), now=0.1)
        kinds = []
        now = 0.1
        for _ in range(6):
            batch = s.schedule(now)
            kinds.append("p" if batch.num_prefill_seqs else "d")
            now += 0.1
            s.complete(batch, now)
        # Strict alternation while both phases have work.
        assert kinds[:6] in (["p", "d"] * 3, ["d", "p"] * 3)

    def test_all_requests_complete(self):
        s = chunked_only()
        rows = [s.add(make_request(prompt_len=300, output_len=5), now=0.0) for _ in range(6)]
        s.drain()
        assert all(s.finished(r) for r in rows)


def _hybrid_only() -> Harness:
    deployment = Deployment(model=TINY_1B, gpu=A100_80G)
    config = ServingConfig(scheduler="hybrid_batching_only", token_budget=256)
    return Harness(build_vectorized_scheduler(deployment, config))


class TestHybridBatchingOnlyFactory:
    def test_factory_disables_chunking(self):
        s = _hybrid_only().scheduler
        assert s.name == "hybrid-batching-only"
        assert not s.chunk_prefills

    def test_behaves_like_unchunked_sarathi(self):
        s = _hybrid_only()
        s.add(make_request(prompt_len=4096, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert batch.num_prefill_tokens == 4096
