"""Tests for multi-replica routing and fleet simulation."""

from __future__ import annotations

import pytest

from repro.api import ServingConfig
from repro.cluster.fleet import FleetConfig, simulate_fleet
from repro.cluster.router import LeastTokensRouter, RoundRobinRouter, Router
from repro.metrics.timeline import stage_utilization

from tests.conftest import make_request


def _fleet(deployment, trace, num_replicas, router=None):
    return simulate_fleet(
        deployment,
        ServingConfig(),
        trace,
        FleetConfig(num_replicas=num_replicas),
        router=router or LeastTokensRouter(num_replicas),
    )


class TestDeprecation:
    def test_not_reexported_from_top_level(self):
        import repro
        import repro.cluster

        # The static-partition shim is gone; simulate_fleet replaces it.
        assert not hasattr(repro, "simulate_cluster")
        assert not hasattr(repro.cluster, "simulate_cluster")
        assert "simulate_fleet" in repro.cluster.__all__


class TestRouters:
    def test_invalid_replica_count(self):
        with pytest.raises(ValueError):
            RoundRobinRouter(0)

    def test_round_robin_cycles(self):
        router = RoundRobinRouter(3)
        choices = [router.route(make_request()) for _ in range(6)]
        assert choices == [0, 1, 2, 0, 1, 2]

    def test_least_tokens_balances_heavy_tail(self):
        router = LeastTokensRouter(2)
        heavy = make_request(prompt_len=10_000, output_len=100)
        assert router.route(heavy) == 0
        # The next several small requests all avoid the loaded replica.
        for _ in range(5):
            light = make_request(prompt_len=100, output_len=10)
            assert router.route(light) == 1

    def test_least_tokens_eventually_rebalances(self):
        router = LeastTokensRouter(2)
        router.route(make_request(prompt_len=1000, output_len=100))
        total = 0
        while router.route(make_request(prompt_len=200, output_len=20)) == 1:
            total += 220
            assert total < 2000
        assert total > 0


class TestSimulateCluster:
    """Multi-replica scaling, balance and input validation."""

    def _trace(self, n=30, qps_gap=0.05):
        return [
            make_request(prompt_len=128, output_len=6, arrival_time=qps_gap * i)
            for i in range(n)
        ]

    def test_all_requests_finish(self, tiny_deployment):
        result, metrics = _fleet(tiny_deployment, self._trace(), 3)
        assert metrics.num_requests == 30
        merged = result.merged()
        assert not merged.unfinished

    def test_single_replica_matches_simulate(self, tiny_deployment):
        from repro.api import simulate

        trace = self._trace()
        _, solo = simulate(tiny_deployment, ServingConfig(), trace)
        _, fleet = _fleet(tiny_deployment, trace, 1)
        assert fleet.p99_tbt == pytest.approx(solo.p99_tbt)
        assert fleet.median_ttft == pytest.approx(solo.median_ttft)
        assert fleet.mean_bubble_fraction == solo.mean_bubble_fraction

    def test_more_replicas_reduce_queueing(self, tiny_deployment):
        trace = [
            make_request(prompt_len=1500, output_len=20, arrival_time=0.02 * i)
            for i in range(40)
        ]
        _, one = _fleet(tiny_deployment, trace, 1)
        _, four = _fleet(tiny_deployment, trace, 4)
        assert four.median_ttft < one.median_ttft

    def test_input_not_mutated(self, tiny_deployment):
        trace = self._trace()
        _fleet(tiny_deployment, trace, 2)
        assert all(r.prefill_done == 0 for r in trace)

    def test_router_replica_mismatch_rejected(self, tiny_deployment):
        with pytest.raises(ValueError, match="router is configured"):
            _fleet(tiny_deployment, self._trace(), 3, router=RoundRobinRouter(2))

    def test_bad_router_output_rejected(self, tiny_deployment):
        class BadRouter(Router):
            def route(self, request):
                return 99

        with pytest.raises(ValueError, match="invalid replica"):
            _fleet(tiny_deployment, self._trace(), 2, router=BadRouter(2))

    def test_empty_trace_rejected(self, tiny_deployment):
        with pytest.raises(ValueError):
            _fleet(tiny_deployment, [], 2)

    def test_assignments_cover_all_requests(self, tiny_deployment):
        trace = self._trace(n=20)
        result, _ = _fleet(tiny_deployment, trace, 4)
        assert len(result.assignments) == 20
        assert all(0 <= a < 4 for a in result.assignments.values())


class TestFleetBubbles:
    """Replicas run concurrently: the fleet's bubble fraction averages
    each replica's stages, so one replica's busy time never fills
    another replica's idle gaps."""

    def test_bubble_fraction_is_averaged_per_replica(self, tiny_deployment):
        trace = [
            make_request(prompt_len=64, output_len=16, arrival_time=0.05 * i)
            for i in range(80)
        ]
        result, metrics = _fleet(tiny_deployment, trace, 4, router=RoundRobinRouter(4))
        per_replica = [
            stage_utilization(r.records, 0).bubble_fraction
            for r in result.replica_results
        ]
        assert per_replica == pytest.approx([0.741] * 4, abs=1e-3)
        assert metrics.mean_bubble_fraction == sum(per_replica) / 4
        # The chained log alone reads almost no bubbles at all.
        merged = result.merged()
        assert stage_utilization(merged.records, 0).bubble_fraction < 0.01
        assert list(merged.replica_logs) == [r.records for r in result.replica_results]
