"""Tests for fairness-aware stall-free batching (multi-tenant)."""

from __future__ import annotations

import pytest

from repro.engine.vectorized import VectorizedReplicaEngine
from repro.scheduling.vectorized import VecFairSarathiScheduler
from repro.types import Request

from tests.conftest import Harness, harness


def fair_harness(token_budget=256, weights=None, capacity=65536) -> Harness:
    return harness(
        VecFairSarathiScheduler, capacity,
        token_budget=token_budget, client_weights=weights, max_batch_size=16,
    )


def fair_scheduler(**kwargs) -> VecFairSarathiScheduler:
    return fair_harness(**kwargs).scheduler


def client_request(client, prompt=300, output=4, arrival=0.0):
    return Request(
        prompt_len=prompt, output_len=output, arrival_time=arrival, client_id=client
    )


class TestConstruction:
    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            fair_scheduler(weights={1: 0.0})

    def test_defaults_to_weight_one(self):
        s = fair_scheduler(weights={7: 2.0})
        assert s._weight(7) == 2.0
        assert s._weight(99) == 1.0


class TestFairAdmission:
    def test_light_client_not_starved_by_flood(self):
        """Client 1 floods 20 requests before client 2's single request
        arrives; fairness admits client 2 long before FCFS would."""
        h = fair_harness(token_budget=128)
        for i in range(20):
            h.add(client_request(1, arrival=0.0), now=0.0)

        # Burn a couple of iterations so client 1 accrues service.
        now = 0.0
        for _ in range(4):
            batch = h.schedule(now)
            now += 0.05
            h.complete(batch, now)
        light = h.add(client_request(2, arrival=0.1), now=now)
        batch = h.schedule(now)
        # The light client's request is admitted into the very next
        # iteration despite 19 queued requests ahead of it in FCFS terms.
        assert light in batch.p_rows

    def test_service_counters_track_tokens(self):
        h = fair_harness(token_budget=128)
        h.add(client_request(3, prompt=300), now=0.0)
        batch = h.schedule(now=0.0)
        assert h.scheduler.service_counters[3] == batch.num_tokens

    def test_weighted_share(self):
        """A weight-2 client should receive ~2x the admitted tokens of a
        weight-1 client under symmetric backlog."""
        h = fair_harness(token_budget=256, weights={1: 2.0, 2: 1.0})
        for _ in range(40):
            h.add(client_request(1, prompt=400, output=2), now=0.0)
            h.add(client_request(2, prompt=400, output=2), now=0.0)
        now = 0.0
        for _ in range(40):  # long enough to leave the startup transient
            batch = h.schedule(now)
            if batch is None:
                break
            now += 0.05
            h.complete(batch, now)
        served = h.scheduler.service_counters
        assert served[1] > 1.5 * served[2]

    def test_fairness_report_normalizes_by_weight(self):
        s = fair_scheduler(weights={1: 2.0})
        s.service_counters[1] = 200.0
        s.service_counters[2] = 100.0
        report = s.fairness_report()
        assert report[1] == pytest.approx(100.0)
        assert report[2] == pytest.approx(100.0)


class TestEndToEnd:
    def test_all_clients_complete(self, tiny_deployment):
        scheduler = fair_scheduler(token_budget=256)
        engine = VectorizedReplicaEngine(tiny_deployment.execution_model(), scheduler)
        requests = [
            client_request(i % 3, prompt=200, output=6, arrival=0.02 * i)
            for i in range(18)
        ]
        result = engine.run(requests)
        assert all(r.is_finished for r in result.requests)
        assert set(scheduler.service_counters) == {0, 1, 2}

    def test_stall_free_property_preserved(self, tiny_deployment):
        """Fair admission must not reintroduce decode stalls."""
        scheduler = fair_scheduler(token_budget=256)
        engine = VectorizedReplicaEngine(tiny_deployment.execution_model(), scheduler)
        decoder = client_request(1, prompt=64, output=40, arrival=0.0)
        flood = [
            client_request(2, prompt=2000, output=2, arrival=0.05)
            for _ in range(6)
        ]
        engine.run([decoder] + flood)
        gaps = decoder.tbt_samples
        assert max(gaps) < 5 * min(gaps)

    def test_ttft_fairness_under_asymmetric_load(self, tiny_deployment):
        """The heavy tenant's backlog should not inflate the light
        tenant's TTFT much beyond its own service time."""
        scheduler = fair_scheduler(token_budget=256)
        engine = VectorizedReplicaEngine(tiny_deployment.execution_model(), scheduler)
        heavy = [
            client_request(1, prompt=1500, output=4, arrival=0.0) for _ in range(10)
        ]
        light = [
            client_request(2, prompt=200, output=4, arrival=0.3 + 0.1 * i)
            for i in range(3)
        ]
        engine.run(heavy + light)
        light_ttfts = [r.ttft for r in light]
        heavy_ttfts = sorted(r.ttft for r in heavy)
        # Light tenant beats the heavy tenant's median TTFT.
        assert max(light_ttfts) < heavy_ttfts[len(heavy_ttfts) // 2]


class TestMultitenantExperiment:
    def test_fair_policy_protects_light_tenant(self):
        from repro.experiments.common import Scale
        from repro.experiments.multitenant import run_fairness_comparison

        rows = {
            (r.policy, r.client): r
            for r in run_fairness_comparison(Scale(32, 0.5, 5))
        }
        assert rows[("fair", "light")].p99_ttft < rows[("fcfs", "light")].p99_ttft
        # Stall-free TBT bound holds under both policies.
        assert all(r.max_tbt < 0.2 for r in rows.values())
