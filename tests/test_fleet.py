"""Tests for the event-driven fleet simulator, routers and config API."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Deployment, ServingConfig, build_engine, clone_requests, simulate
from repro.cluster import fleet as fleet_module
from repro.cluster.degradation import BrownoutConfig, DegradationLevel
from repro.cluster.fleet import (
    AdmissionPolicy,
    FaultSchedule,
    FleetConfig,
    FleetResult,
    ReplicaFault,
    simulate_fleet,
)
from repro.cluster.health import HealthConfig
from repro.cluster.router import (
    LeastOutstandingTokensRouter,
    ReplicaSnapshot,
    ReplicaTable,
    ReplicaView,
    RoundRobinRouter,
    SloAwareRouter,
    as_fleet_router,
)
from repro.hardware.catalog import A100_80G, ETHERNET_100G
from repro.metrics.goodput import RequestSLO, fleet_goodput
from repro.models.catalog import TINY_1B
from repro.parallel.config import ParallelConfig
from repro.telemetry.fleet import fleet_rows, replica_utilization_rows
from repro.types import PreemptionMode

from tests.conftest import make_request

def _trace(n=24, gap=0.02, prompt_len=1500, output_len=20):
    return [
        make_request(prompt_len=prompt_len, output_len=output_len, arrival_time=gap * i)
        for i in range(n)
    ]


def _record_key(record):
    return (
        record.stage,
        record.start,
        record.end,
        record.num_prefill_tokens,
        record.num_decode_tokens,
        record.num_prefill_seqs,
        record.num_decode_seqs,
    )


class TestSingleReplicaEquivalence:
    def test_simulate_is_one_replica_fleet_bit_for_bit(self, tiny_deployment):
        trace = _trace()
        engine = build_engine(tiny_deployment, ServingConfig())
        mono = engine.run(clone_requests(trace))

        result, _ = simulate(tiny_deployment, ServingConfig(), trace)

        assert result.makespan == mono.makespan
        assert [_record_key(r) for r in result.records] == [
            _record_key(r) for r in mono.records
        ]
        for ours, theirs in zip(result.requests, mono.requests):
            assert ours.request_id == theirs.request_id
            assert ours.token_times == theirs.token_times
            assert ours.finished_at == theirs.finished_at
            assert ours.first_scheduled_at == theirs.first_scheduled_at

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["sarathi", "vllm", "orca"]),
        pipeline_parallel=st.sampled_from([1, 2]),
        shape=st.lists(
            st.tuples(
                # Few distinct instants, so arrivals tie often.
                st.integers(min_value=0, max_value=4),
                st.sampled_from([64, 300, 1500]),
                st.integers(min_value=1, max_value=12),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_run_matches_simulate_on_shuffled_tied_traces(
        self, kind, pipeline_parallel, shape
    ):
        deployment = Deployment(
            model=TINY_1B,
            gpu=A100_80G,
            parallel=ParallelConfig(
                pipeline_parallel=pipeline_parallel, pp_link=ETHERNET_100G
            ),
        )
        config = ServingConfig(scheduler=kind)
        trace = [
            make_request(
                prompt_len=prompt_len, output_len=output_len, arrival_time=0.05 * slot
            )
            for slot, prompt_len, output_len in shape
        ]
        mono = build_engine(deployment, config).run(clone_requests(trace))
        result, _ = simulate(deployment, config, trace)

        assert result.makespan == mono.makespan
        assert result.engine_stats == mono.engine_stats
        assert [_record_key(r) for r in result.records] == [
            _record_key(r) for r in mono.records
        ]
        for ours, theirs in zip(result.requests, mono.requests, strict=True):
            assert ours.request_id == theirs.request_id
            assert ours.token_times.tolist() == theirs.token_times.tolist()
            assert ours.first_scheduled_at == theirs.first_scheduled_at
            assert ours.first_token_at == theirs.first_token_at
            assert ours.finished_at == theirs.finished_at


class TestStaticPartitionGolden:
    def _reference(self, deployment, config, requests, num_replicas, router):
        """The pre-fleet static-partition algorithm, verbatim."""
        cloned = clone_requests(requests)
        per_replica = [[] for _ in range(num_replicas)]
        for request in sorted(cloned, key=lambda r: r.arrival_time):
            per_replica[router.route(request)].append(request)
        results = []
        for assigned in per_replica:
            if not assigned:
                continue
            engine = build_engine(deployment, config)
            results.append(engine.run(assigned))
        return results

    def test_zero_fault_round_robin_matches_static_partition(self, tiny_deployment):
        trace = _trace()
        reference = self._reference(
            tiny_deployment, ServingConfig(), trace, 2, RoundRobinRouter(2)
        )
        fleet_result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(num_replicas=2),
            router=RoundRobinRouter(2),
        )
        assert len(reference) == len(fleet_result.replica_results) == 2
        for ref, ours in zip(reference, fleet_result.replica_results):
            assert [_record_key(r) for r in ours.records] == [
                _record_key(r) for r in ref.records
            ]
            assert [r.request_id for r in ours.requests] == [
                r.request_id for r in ref.requests
            ]
            for ref_req, our_req in zip(ref.requests, ours.requests):
                assert our_req.token_times == ref_req.token_times
                assert our_req.finished_at == ref_req.finished_at


class TestFaultInjection:
    def test_crash_mid_trace_loses_nothing(self, tiny_deployment):
        trace = _trace()
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(num_replicas=3, faults=FaultSchedule.single(1, down_at=0.3)),
            router=RoundRobinRouter(3),
        )
        assert not result.lost_requests()
        assert len(result.finished_requests) == len(trace)
        assert result.num_failovers > 0
        assert result.num_restarts > 0
        kinds = [e.kind for e in result.events]
        assert "fault_down" in kinds and "failover" in kinds

    def test_restored_replica_serves_again(self, tiny_deployment):
        trace = _trace(n=40, gap=0.05)
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(
                num_replicas=2,
                faults=FaultSchedule.single(0, down_at=0.3, up_at=0.6),
            ),
            router=RoundRobinRouter(2),
        )
        assert not result.lost_requests()
        up_times = [e.time for e in result.events if e.kind == "fault_up"]
        assert up_times == [0.6]
        routed_after_up = [
            e
            for e in result.events
            if e.kind == "route" and e.replica == 0 and e.time >= 0.6
        ]
        assert routed_after_up  # round-robin sends it work again

    def test_failover_counts_prefill_restarts(self, tiny_deployment):
        trace = _trace(n=8, gap=0.0)  # everything in flight immediately
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(num_replicas=2, faults=FaultSchedule.single(0, down_at=0.05)),
            router=RoundRobinRouter(2),
        )
        assert result.num_restarts >= 1
        assert sum(r.num_restarts for r in result.requests) == result.num_restarts

    def test_all_replicas_down_sheds_after_retries(self, tiny_deployment, monkeypatch):
        from repro.cluster.fleet import FleetSimulator

        monkeypatch.setattr(fleet_module, "MAX_RETRIES", 2)
        simulator = FleetSimulator(
            tiny_deployment,
            ServingConfig(),
            FleetConfig(num_replicas=1, faults=FaultSchedule.single(0, down_at=0.0)),
        )
        result = simulator.run([make_request(arrival_time=0.2)])
        assert result.num_shed == 1
        assert not result.lost_requests()
        shed_events = [e for e in result.events if e.kind == "shed"]
        assert shed_events[0].reason == "retries_exhausted"
        rejects = [e for e in result.events if e.kind == "reject"]
        assert all(e.reason == "no_alive_replica" for e in rejects)

    def test_fault_schedule_validation(self):
        with pytest.raises(ValueError, match="up_at"):
            ReplicaFault(0, down_at=1.0, up_at=0.5)
        with pytest.raises(ValueError, match="targets replica"):
            FaultSchedule.single(5, down_at=1.0).validate(2)

    def test_fault_schedule_rejects_overlaps(self):
        # Two holes in time on the same replica must not intersect: the
        # second down_at would crash an already-down slot.
        with pytest.raises(ValueError, match="overlapping faults on replica 1"):
            FaultSchedule(
                faults=(
                    ReplicaFault(1, down_at=0.5, up_at=2.0),
                    ReplicaFault(1, down_at=1.0, up_at=3.0),
                )
            ).validate(2)
        # A fault that never recovers overlaps everything after it.
        with pytest.raises(ValueError, match="overlapping"):
            FaultSchedule(
                faults=(
                    ReplicaFault(0, down_at=1.0),
                    ReplicaFault(0, down_at=5.0, up_at=6.0),
                )
            ).validate(2)
        # Declaration order must not matter: the same overlap listed
        # later-fault-first is still caught.
        with pytest.raises(ValueError, match="overlapping"):
            FaultSchedule(
                faults=(
                    ReplicaFault(0, down_at=5.0, up_at=6.0),
                    ReplicaFault(0, down_at=1.0),
                )
            ).validate(2)
        # Back-to-back faults and cross-replica overlap stay legal.
        FaultSchedule(
            faults=(
                ReplicaFault(0, down_at=1.0, up_at=2.0),
                ReplicaFault(0, down_at=2.0, up_at=3.0),
                ReplicaFault(1, down_at=1.5, up_at=2.5),
            )
        ).validate(2)

    def test_poisson_schedule_deterministic(self):
        a = FaultSchedule.poisson(4, rate=0.3, mean_downtime=2.0, horizon=30.0, seed=3)
        b = FaultSchedule.poisson(4, rate=0.3, mean_downtime=2.0, horizon=30.0, seed=3)
        assert a == b
        assert FaultSchedule.poisson(4, rate=0.0, mean_downtime=2.0, horizon=30.0) == (
            FaultSchedule()
        )


def _overload_trace():
    """Arrivals dense enough that bounded queues actually fill."""
    return _trace(n=24, gap=0.01, prompt_len=2000, output_len=30)


class TestOverloadControl:
    def test_shed_policy_conserves_requests(self, tiny_deployment):
        trace = _overload_trace()
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(
                num_replicas=2, max_queue_depth=2, admission=AdmissionPolicy.SHED
            ),
        )
        assert result.num_shed > 0
        assert len(result.finished_requests) + result.num_shed == len(trace)
        assert not result.lost_requests()

    def test_reject_policy_retries_then_finishes(self, tiny_deployment):
        trace = _overload_trace()
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(
                num_replicas=2, max_queue_depth=2, admission=AdmissionPolicy.REJECT
            ),
        )
        assert result.num_rejections > 0
        retried = [e for e in result.events if e.kind == "reject" and e.retry_at]
        assert retried
        assert all(e.retry_at > e.time for e in retried)
        assert len(result.finished_requests) + result.num_shed == len(trace)

    def test_spill_prefers_open_replica(self, tiny_deployment):
        trace = _overload_trace()
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(
                num_replicas=2, max_queue_depth=2, admission=AdmissionPolicy.SPILL
            ),
        )
        assert len(result.finished_requests) + result.num_shed == len(trace)

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError, match="num_replicas"):
            FleetConfig(num_replicas=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            FleetConfig(max_queue_depth=0)
        with pytest.raises(ValueError, match="admission policy"):
            FleetConfig(admission="teleport")
        # Strings coerce to the enum.
        assert FleetConfig(admission="shed").admission is AdmissionPolicy.SHED

    def test_monitor_sample_floors_must_fit_the_windows(self, monkeypatch):
        """A monitor needing more samples than the windows hold could
        never judge a replica; such configs are rejected by name."""
        monkeypatch.setattr(fleet_module, "TBT_WINDOW", 32)
        with pytest.raises(ValueError, match=r"min_samples \(64\).*TBT_WINDOW \(32\)"):
            FleetConfig(health=HealthConfig(min_samples=64))
        FleetConfig(health=HealthConfig(min_samples=32))
        ladder = (DegradationLevel(token_budget=128),)
        with pytest.raises(
            ValueError, match=r"min_samples \(65\).*num_replicas \* TBT_WINDOW \(64\)"
        ):
            FleetConfig(
                num_replicas=2,
                brownout=BrownoutConfig(levels=ladder, min_samples=65),
            )
        FleetConfig(
            num_replicas=2,
            brownout=BrownoutConfig(levels=ladder, min_samples=64),
        )


class TestFleetRouters:
    def _snap(self, index, alive=True, outstanding=0, queue=0, p99=None):
        return ReplicaSnapshot(
            index=index,
            alive=alive,
            queue_depth=queue,
            num_running=0,
            num_pending=0,
            outstanding_tokens=outstanding,
            kv_occupancy=0.0,
            recent_p99_tbt=p99,
        )

    def _view(self, router, snaps):
        """The array view ``router`` reads, one table row per snapshot."""
        table = ReplicaTable(len(snaps))
        for column in ReplicaTable.COLUMNS:
            values = [getattr(snap, column) for snap in snaps]
            if column == "recent_p99_tbt":
                values = [np.nan if v is None else v for v in values]
            getattr(table, column)[:] = values
        return ReplicaView(table, router.columns)

    def test_least_outstanding_picks_lightest(self):
        router = LeastOutstandingTokensRouter(3)
        snaps = [
            self._snap(0, outstanding=500),
            self._snap(1, outstanding=100),
            self._snap(2, outstanding=300),
        ]
        assert router.route(make_request(), 0.0, self._view(router, snaps)) == 1

    def test_least_outstanding_skips_dead(self):
        router = LeastOutstandingTokensRouter(2)
        snaps = [self._snap(0, alive=False), self._snap(1, outstanding=9999)]
        assert router.route(make_request(), 0.0, self._view(router, snaps)) == 1

    def test_slo_aware_avoids_degraded(self):
        router = SloAwareRouter(2, tbt_slo=0.1)
        snaps = [
            self._snap(0, outstanding=10, p99=0.5),   # violating
            self._snap(1, outstanding=1000, p99=0.05),
        ]
        assert router.route(make_request(), 0.0, self._view(router, snaps)) == 1

    def test_slo_aware_falls_back_when_all_degraded(self):
        router = SloAwareRouter(2, tbt_slo=0.1)
        snaps = [
            self._snap(0, outstanding=10, p99=0.5),
            self._snap(1, outstanding=1000, p99=0.9),
        ]
        assert router.route(make_request(), 0.0, self._view(router, snaps)) == 0

    def test_ties_break_on_queue_depth_then_index(self):
        router = LeastOutstandingTokensRouter(4)
        snaps = [
            self._snap(0, outstanding=100, queue=3),
            self._snap(1, outstanding=100, queue=1),
            self._snap(2, outstanding=100, queue=1),
            self._snap(3, outstanding=200, queue=0),
        ]
        assert router.route(make_request(), 0.0, self._view(router, snaps)) == 1

    def test_slo_aware_counts_sampleless_replicas_healthy(self):
        router = SloAwareRouter(2, tbt_slo=0.1)
        snaps = [
            self._snap(0, outstanding=10, p99=0.5),
            self._snap(1, outstanding=1000, p99=None),
        ]
        assert router.route(make_request(), 0.0, self._view(router, snaps)) == 1

    def test_view_is_read_only_and_declared(self):
        table = ReplicaTable(2)
        view = ReplicaView(table, LeastOutstandingTokensRouter.columns)
        with pytest.raises(ValueError):
            view.outstanding_tokens[0] = 1
        with pytest.raises(ValueError):
            view.alive[0] = False
        assert not hasattr(view, "recent_p99_tbt")
        # Views follow the table's writes.
        table.outstanding_tokens[1] = 7
        assert view.outstanding_tokens[1] == 7
        with pytest.raises(ValueError, match="unknown replica-table column"):
            ReplicaView(table, ("vibes",))

    def test_as_fleet_router_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_fleet_router(object())

    def test_state_blind_router_failover_on_dead_pick(self, tiny_deployment):
        trace = _trace(n=10)
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(num_replicas=2, faults=FaultSchedule.single(0, down_at=0.0)),
            router=RoundRobinRouter(2),
        )
        # Every delivery landed on the surviving replica.
        routed = [e.replica for e in result.events if e.kind == "route"]
        assert routed and all(r == 1 for r in routed)

    def test_slo_aware_end_to_end(self, tiny_deployment):
        trace = _trace()
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(num_replicas=2),
            router=SloAwareRouter(2, tbt_slo=0.05),
        )
        assert len(result.finished_requests) == len(trace)


class TestDeterminism:
    def test_identical_runs_identical_everything(self, tiny_deployment):
        trace = _trace()
        fleet_config = FleetConfig(
            num_replicas=3,
            faults=FaultSchedule.single(1, down_at=0.2, up_at=0.5),
            max_queue_depth=4,
        )

        def run():
            return simulate_fleet(
                tiny_deployment,
                ServingConfig(),
                trace,
                fleet_config,
                router=RoundRobinRouter(3),
            )

        (res_a, met_a), (res_b, met_b) = run(), run()
        assert res_a.events == res_b.events
        assert res_a.assignments == res_b.assignments
        assert res_a.makespan == res_b.makespan
        assert met_a == met_b
        for req_a, req_b in zip(res_a.requests, res_b.requests):
            assert req_a.token_times == req_b.token_times


class TestFleetTelemetryAndMetrics:
    def _faulted_run(self, tiny_deployment):
        trace = _trace()
        return simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(num_replicas=2, faults=FaultSchedule.single(0, down_at=0.2)),
            router=RoundRobinRouter(2),
        )

    def test_fleet_rows_cover_all_events(self, tiny_deployment):
        result, _ = self._faulted_run(tiny_deployment)
        rows = fleet_rows(result)
        assert len(rows) == len(result.events)
        assert {"route", "fault_down"} <= {row["kind"] for row in rows}

    def test_fleet_rows_serialize(self, tiny_deployment, tmp_path):
        from repro.telemetry import write_jsonl, read_jsonl

        result, _ = self._faulted_run(tiny_deployment)
        path = write_jsonl(tmp_path / "fleet.jsonl", fleet_rows(result))
        assert read_jsonl(path) == fleet_rows(result)

    def test_replica_utilization_timeline(self, tiny_deployment):
        result, _ = self._faulted_run(tiny_deployment)
        rows = replica_utilization_rows(result, bucket=0.1)
        assert {row["replica"] for row in rows} == {0, 1}
        assert all(0.0 <= row["busy_fraction"] <= 1.0 + 1e-9 for row in rows)
        # The crashed replica does no work after going down.
        late_dead = [
            r for r in rows if r["replica"] == 0 and r["bucket_start"] >= 0.3
        ]
        assert all(r["busy_fraction"] == 0.0 for r in late_dead)

    def test_fleet_goodput_charges_shed(self, tiny_deployment):
        trace = _overload_trace()
        result, _ = simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(
                num_replicas=1, max_queue_depth=2, admission=AdmissionPolicy.SHED
            ),
        )
        assert result.num_shed > 0
        report = fleet_goodput(
            result, RequestSLO(ttft_deadline=60.0, tbt_deadline=60.0)
        )
        assert report.num_offered == len(trace)
        assert report.num_attained == report.num_finished  # generous SLO
        assert report.attainment < 1.0  # shed requests count against it
        assert report.shed_fraction == result.num_shed / len(trace)

    def test_merged_empty_cluster_result(self):
        merged = FleetResult(
            requests=[], shed=[], replica_results=[], events=[], assignments={},
            makespan=0.0, num_replicas=0, num_rejections=0, num_failovers=0,
        ).merged()
        assert merged.requests == [] and merged.records == []
        assert merged.makespan == 0.0 and merged.num_stages == 0


class TestFleetApi:
    def test_empty_trace_rejected(self, tiny_deployment):
        with pytest.raises(ValueError, match="at least one request"):
            simulate_fleet(tiny_deployment, ServingConfig(), [])

    def test_router_mismatch_rejected(self, tiny_deployment):
        with pytest.raises(ValueError, match="router is configured"):
            simulate_fleet(
                tiny_deployment,
                ServingConfig(),
                _trace(n=4),
                FleetConfig(num_replicas=3),
                router=RoundRobinRouter(2),
            )

    def test_input_trace_not_mutated(self, tiny_deployment):
        trace = _trace(n=6)
        simulate_fleet(
            tiny_deployment,
            ServingConfig(),
            trace,
            FleetConfig(num_replicas=2, faults=FaultSchedule.single(0, down_at=0.1)),
        )
        assert all(r.prefill_done == 0 and r.num_restarts == 0 for r in trace)

    def test_result_is_fleet_result(self, tiny_deployment):
        result, metrics = simulate_fleet(
            tiny_deployment, ServingConfig(), _trace(n=4)
        )
        assert isinstance(result, FleetResult)
        assert metrics.num_requests == 4
        assert result.cache_stats is not None  # perf cache on by default


class TestServingConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("token_budget", 0),
            ("token_budget", -5),
            ("max_batch_size", 0),
            ("block_size", -1),
            ("reserve_len", 0),
            ("tbt_slo", 0.0),
            ("tbt_slo", -1.0),
        ],
    )
    def test_bad_values_raise_with_field_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServingConfig(**{field: value})

    def test_unknown_preemption_mode_raises_at_construction(self):
        with pytest.raises(ValueError, match="preemption_mode"):
            ServingConfig(preemption_mode="teleport")

    def test_preemption_mode_normalized_to_enum(self):
        config = ServingConfig(preemption_mode="swap")
        assert config.preemption_mode is PreemptionMode.SWAP
        assert config.preemption_mode == "swap"  # str mixin compatibility

    def test_valid_config_still_constructs(self):
        config = ServingConfig(
            scheduler="sarathi", token_budget=256, tbt_slo=0.2
        )
        assert config.token_budget == 256

    def test_preemption_mode_parse_error_lists_choices(self):
        with pytest.raises(ValueError, match="recompute"):
            PreemptionMode.parse("magic")
        assert PreemptionMode.parse("swap") is PreemptionMode.SWAP
        assert PreemptionMode.parse(PreemptionMode.RECOMPUTE) is (
            PreemptionMode.RECOMPUTE
        )
