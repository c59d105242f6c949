"""Resilience subsystem: fault kinds, domains, health, brownout, MTTR.

Covers the degraded-mode fault kinds (slowdown / capacity_loss) and
their restore semantics, correlated failure domains, the straggler
health monitor, the SLO-aware brownout controller, the token-budget
override hook on both scheduler stacks, the retry-storm jitter fix,
the recovery (time-to-SLO-reattainment) metric, and the resilience
experiment's headline acceptance: at a high fault rate, brownout-on
beats brownout-off on fleet goodput.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import Deployment, ServingConfig, build_engine, clone_requests
from repro.cluster import fleet as fleet_module
from repro.cluster.degradation import (
    BrownoutConfig,
    BrownoutController,
    DegradationLevel,
)
from repro.cluster.fleet import (
    FailureDomain,
    FaultKind,
    FaultSchedule,
    FleetConfig,
    FleetSimulator,
    HealthConfig,
    ReplicaFault,
    partition_domains,
    simulate_fleet,
)
from repro.cluster.health import HealthMonitor
from repro.cluster.router import ReplicaTable, TbtWindow
from repro.hardware.catalog import A100_80G
from repro.metrics.recovery import recovery_report
from repro.metrics.stats import jain_fairness
from repro.models.catalog import TINY_1B

from tests.conftest import make_request

pytestmark = pytest.mark.tier1

_DEPLOYMENT = Deployment(model=TINY_1B, gpu=A100_80G)


def _decode_trace(n=12, prompt=64, output=120, gap=0.01):
    return [
        make_request(prompt_len=prompt, output_len=output, arrival_time=gap * i)
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Fault kinds and severities
# ----------------------------------------------------------------------
class TestFaultKinds:
    def test_defaults_per_kind(self):
        crash = ReplicaFault(0, down_at=1.0, up_at=2.0)
        assert crash.kind is FaultKind.CRASH
        slow = ReplicaFault(0, down_at=1.0, up_at=2.0, kind="slowdown")
        assert slow.kind is FaultKind.SLOWDOWN
        assert slow.severity == 2.0
        cap = ReplicaFault(0, down_at=1.0, up_at=2.0, kind="capacity_loss")
        assert cap.severity == 0.5

    def test_severity_validation(self):
        with pytest.raises(ValueError):
            ReplicaFault(0, down_at=1.0, up_at=2.0, kind="slowdown", severity=0.9)
        with pytest.raises(ValueError):
            ReplicaFault(0, down_at=1.0, up_at=2.0, kind="capacity_loss", severity=1.5)
        with pytest.raises(ValueError):
            ReplicaFault(0, down_at=1.0, up_at=2.0, kind="crash", severity=2.0)
        with pytest.raises(ValueError):
            ReplicaFault(0, down_at=1.0, up_at=2.0, kind="power_surge")

    @pytest.mark.usefixtures("core")
    def test_slowdown_changes_timelines_and_restores(self):
        """A slowdown window shifts finish times while it is open and
        leaves the replica at full speed after it closes."""
        trace = _decode_trace()
        config = ServingConfig(token_budget=256)

        def finishes(faults):
            result, _ = simulate_fleet(
                _DEPLOYMENT,
                config,
                clone_requests(trace),
                FleetConfig(num_replicas=1, faults=faults),
            )
            return [r.finished_at for r in result.merged().requests]

        clean = finishes(FaultSchedule())
        slowed = finishes(
            FaultSchedule.single(
                0, down_at=0.05, up_at=1.0, kind="slowdown", severity=3.0
            )
        )
        assert slowed != clean
        assert all(s >= c - 1e-12 for s, c in zip(slowed, clean))
        # Restore semantics: once the window closes, requests arriving
        # afterwards run at full speed — a late-only trace under the
        # same fault matches the clean run exactly.
        late_trace = [
            make_request(prompt_len=64, output_len=120, arrival_time=5.0 + 0.01 * i)
            for i in range(4)
        ]

        def finishes_late(faults):
            result, _ = simulate_fleet(
                _DEPLOYMENT,
                config,
                clone_requests(late_trace),
                FleetConfig(num_replicas=1, faults=faults),
            )
            return [r.finished_at for r in result.merged().requests]

        assert finishes_late(
            FaultSchedule.single(
                0, down_at=0.05, up_at=1.0, kind="slowdown", severity=3.0
            )
        ) == finishes_late(FaultSchedule())


# ----------------------------------------------------------------------
# Failure domains and correlated schedules
# ----------------------------------------------------------------------
class TestFailureDomains:
    def test_partition_covers_all_replicas_disjointly(self):
        domains = partition_domains(5, 2)
        members = [r for d in domains for r in d.replicas]
        assert sorted(members) == list(range(5))
        assert len(domains) == 2

    def test_correlated_hits_whole_domain_at_once(self):
        domains = partition_domains(4, 2)
        schedule = FaultSchedule.correlated(
            domains, rate=0.5, mean_downtime=1.0, horizon=10.0, seed=7
        )
        schedule.validate(4)
        by_time: dict[tuple, list[int]] = {}
        for fault in schedule.faults:
            by_time.setdefault((fault.down_at, fault.up_at), []).append(
                fault.replica
            )
        assert by_time, "rate 0.5 over 10s should draw at least one event"
        domain_sets = [set(d.replicas) for d in domains]
        for replicas in by_time.values():
            assert set(replicas) in domain_sets

    def test_correlated_is_deterministic_per_seed(self):
        domains = partition_domains(4, 2)
        kw = dict(rate=0.5, mean_downtime=1.0, horizon=10.0)
        assert FaultSchedule.correlated(
            domains, seed=3, **kw
        ) == FaultSchedule.correlated(domains, seed=3, **kw)
        assert FaultSchedule.correlated(
            domains, seed=3, **kw
        ) != FaultSchedule.correlated(domains, seed=4, **kw)

    def test_overlapping_domains_rejected(self):
        overlapping = (
            FailureDomain("a", (0, 1)),
            FailureDomain("b", (1, 2)),
        )
        with pytest.raises(ValueError):
            FaultSchedule.correlated(
                overlapping, rate=0.5, mean_downtime=1.0, horizon=5.0, seed=0
            )


# ----------------------------------------------------------------------
# Memory shed/restore (capacity_loss plumbing)
# ----------------------------------------------------------------------
class TestCapacityShed:
    @pytest.mark.usefixtures("core")
    def test_shed_and_restore_round_trip(self):
        memory = build_engine(
            _DEPLOYMENT, ServingConfig(token_budget=256)
        ).scheduler.memory
        total = memory.num_blocks
        free_before = memory.free_blocks
        lost = memory.shed_capacity(0.5)
        assert lost == int(total * 0.5)
        assert memory.num_blocks == total - lost
        assert memory.free_blocks == free_before - lost
        memory.restore_capacity(lost)
        assert memory.num_blocks == total
        assert memory.free_blocks == free_before

    @pytest.mark.usefixtures("core")
    def test_shed_fraction_validated(self):
        memory = build_engine(
            _DEPLOYMENT, ServingConfig(token_budget=256)
        ).scheduler.memory
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                memory.shed_capacity(bad)
        with pytest.raises(ValueError):
            memory.restore_capacity(-1)

    @pytest.mark.usefixtures("core")
    def test_capacity_loss_forces_preemptions_and_restores(self):
        """A deep capacity cut mid-run must cause evictions (preempted
        work) yet still finish every request after the pool returns."""
        trace = _decode_trace(n=8, prompt=512, output=80)
        result, metrics = simulate_fleet(
            _DEPLOYMENT,
            ServingConfig(token_budget=256),
            clone_requests(trace),
            FleetConfig(
                num_replicas=1,
                faults=FaultSchedule.single(
                    0,
                    down_at=0.05,
                    up_at=3.0,
                    kind="capacity_loss",
                    severity=0.999,
                ),
            ),
        )
        assert not result.lost_requests()
        assert all(r.is_finished for r in result.requests)
        assert metrics.num_preemptions > 0


# ----------------------------------------------------------------------
# Health monitor
# ----------------------------------------------------------------------
def _slot(index, tbts, alive=True, draining=False):
    """One replica's row flags and its TBT window."""
    window = TbtWindow(max(len(tbts), 1), index)
    window.push(np.array(tbts, dtype=float))
    return alive, draining, window


def _fleet_state(*slots):
    """The state table and windows a monitor reads, from ``_slot`` rows."""
    table = ReplicaTable(len(slots))
    table.alive[:] = [alive for alive, _, _ in slots]
    table.draining[:] = [draining for _, draining, _ in slots]
    return table, [window for _, _, window in slots]


class TestHealthMonitor:
    def test_flags_inflated_replica(self):
        config = HealthConfig(min_samples=4, inflation_factor=2.0, min_healthy=1)
        monitor = HealthMonitor(config, num_replicas=3)
        slots = [
            _slot(0, [0.05] * 8),
            _slot(1, [0.05] * 8),
            _slot(2, [0.30] * 8),
        ]
        flagged = monitor.flag_stragglers(*_fleet_state(*slots))
        assert [index for index, _ in flagged] == [2]
        assert flagged[0][1] == pytest.approx(6.0)

    def test_needs_min_samples_and_peers(self):
        config = HealthConfig(min_samples=8, inflation_factor=2.0)
        monitor = HealthMonitor(config, num_replicas=2)
        assert monitor.flag_stragglers(
            *_fleet_state(_slot(0, [0.05] * 8), _slot(1, [0.5] * 3))
        ) == []
        assert monitor.flag_stragglers(*_fleet_state(_slot(0, [0.5] * 8))) == []

    def test_min_healthy_floor_holds(self):
        config = HealthConfig(min_samples=4, inflation_factor=1.5, min_healthy=3)
        monitor = HealthMonitor(config, num_replicas=4)
        slots = [
            _slot(0, [0.05] * 8),
            _slot(1, [0.05] * 8),
            _slot(2, [0.40] * 8),
            _slot(3, [0.50] * 8),
        ]
        # Both 2 and 3 inflate, but draining both would leave only two
        # routable replicas < min_healthy=3 — exactly one is drained.
        flagged = monitor.flag_stragglers(*_fleet_state(*slots))
        assert [index for index, _ in flagged] == [2]

    @pytest.mark.usefixtures("core")
    def test_fleet_drains_and_restarts_straggler(self):
        """Integration: a slowed replica is drained and later restarted,
        and the run still conserves every request."""
        trace = _decode_trace(n=18, output=200)
        config = ServingConfig(token_budget=256)
        # Three replicas: with only two, the fleet median is the mean of
        # the healthy and slowed medians and a 5x straggler only shows a
        # 1.67x inflation — an outlier needs a majority to stand against.
        fleet_config = FleetConfig(
            num_replicas=3,
            faults=FaultSchedule.single(
                2, down_at=0.02, up_at=20.0, kind="slowdown", severity=5.0
            ),
            health=HealthConfig(
                check_interval=0.1, min_samples=8, inflation_factor=2.0
            ),
        )
        result, _ = simulate_fleet(
            _DEPLOYMENT, config, clone_requests(trace), fleet_config
        )
        kinds = [e.kind for e in result.events]
        assert "drain_start" in kinds
        assert "health_restart" in kinds
        drain = next(e for e in result.events if e.kind == "drain_start")
        assert drain.replica == 2
        assert not result.lost_requests()


# ----------------------------------------------------------------------
# Brownout controller
# ----------------------------------------------------------------------
def _ladder(**overrides):
    kw = dict(
        levels=(
            DegradationLevel(token_budget=128),
            DegradationLevel(token_budget=128, max_context=1000),
            DegradationLevel(
                token_budget=128, max_context=1000, shed_client_ids=(2,)
            ),
        ),
        tbt_slo=0.1,
        enter_margin=0.5,
        exit_margin=0.1,
        min_dwell=1.0,
        check_interval=0.25,
        min_samples=4,
    )
    kw.update(overrides)
    return BrownoutConfig(**kw)


class TestBrownoutController:
    def test_margin_ordering_validated(self):
        with pytest.raises(ValueError):
            _ladder(enter_margin=0.1, exit_margin=0.5)
        with pytest.raises(ValueError):
            _ladder(levels=())

    def test_steps_up_and_down_with_hysteresis(self):
        controller = BrownoutController(_ladder())
        hot = _fleet_state(_slot(0, [0.2] * 8))
        cool = _fleet_state(_slot(0, [0.05] * 8))
        change = controller.evaluate(1.0, *hot)
        assert change is not None and change.direction == 1
        assert controller.level == 1
        # Dwell gate: immediately after a step, nothing moves.
        assert controller.evaluate(1.5, *hot) is None
        assert controller.evaluate(2.5, *hot).level == 2
        assert controller.evaluate(3.8, *hot).level == 3
        # Between exit and enter thresholds: hold the level.
        between = _fleet_state(_slot(0, [0.12] * 8))
        assert controller.evaluate(5.0, *between) is None
        down = controller.evaluate(6.0, *cool)
        assert down.direction == -1 and controller.level == 2

    def test_idle_fleet_steps_down(self):
        controller = BrownoutController(_ladder(), level=2)
        change = controller.evaluate(10.0, *_fleet_state(_slot(0, [])))
        assert change is not None and change.direction == -1
        assert change.p99_tbt is None

    def test_admission_veto_and_budget(self):
        controller = BrownoutController(_ladder(), level=3)
        assert controller.active_budget() == 128
        tenant = make_request(prompt_len=100, output_len=10, arrival_time=0.0)
        tenant.client_id = 2
        assert controller.admission_veto(tenant) == "brownout_tenant"
        big = make_request(prompt_len=900, output_len=200, arrival_time=0.0)
        big.client_id = 0
        assert controller.admission_veto(big) == "brownout_context"
        ok = make_request(prompt_len=100, output_len=10, arrival_time=0.0)
        ok.client_id = 0
        assert controller.admission_veto(ok) is None
        controller_off = BrownoutController(_ladder(), level=0)
        assert controller_off.active_budget() is None
        assert controller_off.admission_veto(tenant) is None


# ----------------------------------------------------------------------
# Token-budget override hook
# ----------------------------------------------------------------------
class TestBudgetOverride:
    @pytest.mark.usefixtures("core")
    @pytest.mark.parametrize(
        "kind", ["sarathi", "sarathi_dynamic"]
    )
    def test_override_clamps_and_restores(self, kind):
        built = build_engine(
            _DEPLOYMENT, ServingConfig(scheduler=kind, token_budget=512)
        )
        scheduler = built.scheduler
        base = scheduler.token_budget
        base_min = getattr(scheduler, "min_budget", None)
        base_max = getattr(scheduler, "max_budget", None)
        scheduler.override_token_budget(128)
        if base_max is not None:
            assert scheduler.max_budget == min(base_max, 128)
            assert scheduler.min_budget <= scheduler.max_budget
        else:
            assert scheduler.token_budget == 128
        # A wider override never raises the budget above its base.
        scheduler.override_token_budget(10**9)
        if base_max is not None:
            assert scheduler.max_budget == base_max
        else:
            assert scheduler.token_budget == base
        scheduler.override_token_budget(None)
        assert scheduler.token_budget == base
        if base_min is not None:
            assert scheduler.min_budget == base_min
        if base_max is not None:
            assert scheduler.max_budget == base_max

    def test_invalid_override_rejected(self):
        scheduler = build_engine(
            _DEPLOYMENT, ServingConfig(token_budget=512)
        ).scheduler
        with pytest.raises(ValueError):
            scheduler.override_token_budget(0)


# ----------------------------------------------------------------------
# Retry-storm jitter (satellite regression)
# ----------------------------------------------------------------------
class TestRetryJitter:
    @staticmethod
    def _cohort():
        """Six requests arriving together at a one-slot queue."""
        return [
            make_request(prompt_len=64, output_len=40, arrival_time=0.0)
            for _ in range(6)
        ]

    def _run(self, trace):
        return simulate_fleet(
            _DEPLOYMENT,
            ServingConfig(token_budget=256),
            clone_requests(trace),
            FleetConfig(num_replicas=1, max_queue_depth=1),
        )

    def _retries(self):
        result, _ = self._run(self._cohort())
        return [
            e for e in result.events if e.kind == "reject" and e.retry_at is not None
        ]

    def test_concurrent_rejects_desynchronize(self):
        """The regression: a cohort bounced at the same instant must not
        retry at the same instant (the retry storm)."""
        rejects = self._retries()
        same_attempt = [e for e in rejects if e.attempt == 0]
        assert len(same_attempt) >= 2
        retry_ats = [e.retry_at for e in same_attempt]
        assert len(set(retry_ats)) == len(retry_ats)

    def test_jitter_zero_restores_lockstep(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "RETRY_JITTER", 0.0)
        rejects = self._retries()
        same_attempt = [e for e in rejects if e.attempt == 0]
        assert len(same_attempt) >= 2
        assert len({e.retry_at for e in same_attempt}) == 1

    def test_backoff_capped(self):
        """Every wait lies in the jittered band of its attempt, so the
        longest scheduled wait is 0.25 * 2**3 * 1.25 = 2.5 s."""
        rejects = self._retries()
        assert {e.attempt for e in rejects} >= {0, 1}
        jitter = 1.0 + fleet_module.RETRY_JITTER
        for event in rejects:
            base = fleet_module.RETRY_BACKOFF * (
                fleet_module.RETRY_BACKOFF_FACTOR**event.attempt
            )
            wait = event.retry_at - event.time
            assert base - 1e-12 <= wait <= base * jitter + 1e-12
            assert wait <= 2.5 + 1e-12

    def test_repeat_in_one_process_is_identical(self):
        """Jitter draws are keyed per run, not by the process-global
        request ids: a second run on a freshly generated (so freshly
        numbered) trace repeats the first exactly."""

        def run():
            trace = self._cohort()
            rank = {r.request_id: i for i, r in enumerate(trace)}
            result, metrics = self._run(trace)
            events = [
                dataclasses.replace(e, request_id=rank.get(e.request_id))
                for e in result.events
            ]
            return events, metrics

        first, second = run(), run()
        assert any(e.kind == "reject" for e in first[0])
        assert first == second


# ----------------------------------------------------------------------
# Recovery metric (time-to-SLO-reattainment)
# ----------------------------------------------------------------------
class TestRecoveryReport:
    def _result(self, faults):
        result, _ = simulate_fleet(
            _DEPLOYMENT,
            ServingConfig(token_budget=256),
            _decode_trace(n=16, output=150),
            FleetConfig(num_replicas=2, faults=faults),
        )
        return result

    def test_clean_run_has_no_disruptions(self):
        report = recovery_report(self._result(FaultSchedule()), slo_tbt=0.5)
        assert report.num_disruptions == 0
        assert report.mean_recovery_time is None

    def test_crash_window_is_measured(self):
        report = recovery_report(
            self._result(FaultSchedule.single(1, down_at=0.1, up_at=0.6)),
            slo_tbt=0.5,
            window=0.5,
        )
        assert report.num_disruptions == 1
        disruption = report.disruptions[0]
        assert disruption.time == pytest.approx(0.1)
        assert disruption.kinds == ("fault_down",)
        if disruption.recovery_time is not None:
            assert disruption.recovery_time >= 0.0
            assert report.mean_recovery_time == disruption.recovery_time
        else:
            assert report.num_censored == 1

    def test_correlated_event_is_one_disruption(self):
        domains = partition_domains(2, 2)
        faults = FaultSchedule(
            tuple(
                ReplicaFault(r, down_at=0.1, up_at=0.4)
                for d in domains
                for r in d.replicas
            )
        )
        report = recovery_report(self._result(faults), slo_tbt=0.5)
        assert report.num_disruptions == 1
        assert sorted(report.disruptions[0].replicas) == [0, 1]

    def test_validation(self):
        result = self._result(FaultSchedule())
        with pytest.raises(ValueError):
            recovery_report(result, slo_tbt=0.0)
        with pytest.raises(ValueError):
            recovery_report(result, slo_tbt=0.1, window=0.0)
        with pytest.raises(ValueError):
            recovery_report(result, slo_tbt=0.1, min_samples=0)


# ----------------------------------------------------------------------
# Fairness stats (leaderboard satellite)
# ----------------------------------------------------------------------
class TestJainFairness:
    def test_equal_is_one(self):
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_one_hot_is_one_over_n(self):
        assert jain_fairness([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_one(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([1.0, -0.1])

    def test_leaderboard_table_renders_fairness_columns(self):
        from repro.experiments.leaderboard import (
            LeaderboardCell,
            LeaderboardRow,
            leaderboard_table,
        )

        cell = LeaderboardCell(
            scheduler="sarathi", workload="static", qps=4.0,
            num_offered=10, num_finished=10, mean_latency=1.0,
            median_ttft=0.2, p99_tbt=0.1, attainment=0.9,
            goodput_rps=2.0, num_preemptions=0,
            max_wait=1.25, latency_fairness=0.875,
        )
        headers, rows = leaderboard_table(
            [LeaderboardRow(cell=cell, capacity_qps=None, rank=1)]
        )
        assert "max wait (s)" in headers
        assert "fairness" in headers
        assert rows[0][headers.index("max wait (s)")] == "1.25"
        assert rows[0][headers.index("fairness")] == "0.875"


# ----------------------------------------------------------------------
# The resilience experiment: determinism and the brownout payoff
# ----------------------------------------------------------------------
class TestResilienceExperiment:
    def test_registered_figure(self):
        from repro.experiments.registry import REGISTRY

        assert "resilience" in REGISTRY
        assert REGISTRY["resilience"].expensive

    def _points(self):
        from repro.api import execution_model_for
        from repro.experiments.common import Scale, mistral_deployment
        from repro.experiments.resilience import (
            ResiliencePointSpec,
            SWEEP_TOKEN_BUDGET,
            run_resilience_point,
        )
        from repro.metrics.slo import derived_slo

        deployment = mistral_deployment()
        config = ServingConfig(
            scheduler="sarathi", token_budget=SWEEP_TOKEN_BUDGET
        )
        slo = derived_slo(execution_model_for(deployment), strict=True)
        scale = Scale(
            num_requests=40, capacity_rel_tol=0.2, capacity_max_probes=3, seed=0
        )
        out = {}
        for brownout in (False, True):
            spec = ResiliencePointSpec(
                deployment=deployment,
                config=config,
                scale=scale,
                num_replicas=4,
                qps=6.0,
                fault_rate=0.15,
                correlated=True,
                brownout=brownout,
                mean_downtime=6.0,
                tbt_deadline=slo.p99_tbt,
            )
            out[brownout] = (spec, run_resilience_point(spec))
        return out

    def test_deterministic_and_brownout_beats_off_at_high_fault_rate(self):
        """Acceptance: same seed → identical point; at the sweep's high
        fault rate the brownout-on arm wins on fleet goodput and
        recovers faster."""
        from repro.experiments.resilience import run_resilience_point

        points = self._points()
        spec_off, off = points[False]
        _, on = points[True]
        assert run_resilience_point(spec_off) == off  # deterministic
        assert on.goodput_rps > off.goodput_rps
        assert on.attainment > off.attainment
        assert off.num_disruptions > 0
        if off.mean_recovery_s is not None and on.mean_recovery_s is not None:
            assert on.mean_recovery_s <= off.mean_recovery_s
