"""The fleet's array-native state: TBT windows and the replica table.

Each replica's TBT window is a numpy ring buffer the engine writes one
array per commit; it must keep exactly the last ``TBT_WINDOW`` samples
in batch item order, empty on every crash and drain-recycle, and exist
only when something reads it.  The replica state table must agree with
the on-demand snapshots at every routing decision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Deployment, ServingConfig
from repro.cluster import fleet as fleet_module
from repro.cluster.degradation import BrownoutConfig, DegradationLevel
from repro.cluster.fleet import FaultSchedule, FleetConfig, FleetSimulator, ReplicaFault
from repro.cluster.health import HealthConfig
from repro.cluster.router import (
    FleetRouter,
    LeastOutstandingTokensRouter,
    ReplicaTable,
    SloAwareRouter,
    TbtWindow,
    lexicographic_argmin,
)
from repro.hardware.catalog import A100_80G
from repro.metrics.stats import percentile
from repro.models.catalog import TINY_1B
from repro.scheduling import SchedulingPolicy, register_policy, unregister

from tests.conftest import make_request

pytestmark = pytest.mark.tier1

_DEPLOYMENT = Deployment(model=TINY_1B, gpu=A100_80G)
_CONFIG = ServingConfig(token_budget=256)


def _decode_trace(n=18, prompt=64, output=120, gap=0.01):
    return [
        make_request(prompt_len=prompt, output_len=output, arrival_time=gap * i)
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# The ring buffer against a per-sample reference list
# ----------------------------------------------------------------------
class TestTbtWindow:
    @pytest.mark.parametrize("size", [1, 5, 32])
    def test_overflow_across_commits_keeps_the_last_samples(self, size):
        rng = np.random.default_rng(size)
        window = TbtWindow(size)
        reference: list[float] = []
        for _ in range(60):
            # Commits smaller than, equal to and larger than the window.
            commit = rng.random(int(rng.integers(0, 3 * size + 2)))
            window.push(commit)
            reference.extend(commit.tolist())
            kept = reference[-size:]
            assert window.count == len(kept)
            assert window.samples().tolist() == kept
            if kept:
                for q in (50, 99):
                    assert window.percentile(q) == percentile(kept, q)
            else:
                assert window.percentile(99) is None

    def test_clear_empties_and_restarts(self):
        window = TbtWindow(4)
        window.push(np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        window.clear()
        assert window.count == 0
        assert window.samples().tolist() == []
        assert window.percentile(99) is None
        window.push(np.array([0.7, 0.8]))
        assert window.samples().tolist() == [0.7, 0.8]

    def test_moved_windows_report_once_per_refresh(self):
        table = ReplicaTable(3)
        windows = [TbtWindow(4, i, table.changed) for i in range(3)]
        windows[2].push(np.array([0.1, 0.3]))
        windows[2].push(np.array([0.2]))
        windows[0].push(np.array([0.5]))
        assert table.changed == [2, 0]
        table.refresh_p99(windows)
        assert table.changed == []
        assert table.recent_p99_tbt[2] == percentile([0.1, 0.3, 0.2], 99)
        assert table.recent_p99_tbt[0] == 0.5
        assert np.isnan(table.recent_p99_tbt[1])
        windows[2].clear()
        table.refresh_p99(windows)
        assert np.isnan(table.recent_p99_tbt[2])


def test_lexicographic_argmin_matches_tuple_min():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        first = rng.integers(0, 3, n)
        second = rng.integers(0, 3, n)
        pool = rng.random(n) < 0.7
        if not pool.any():
            continue
        expected = min(
            (int(first[i]), int(second[i]), i) for i in np.flatnonzero(pool)
        )[2]
        assert lexicographic_argmin(pool, first, second) == expected


# ----------------------------------------------------------------------
# The windows inside a fleet run
# ----------------------------------------------------------------------
class _Recorder:
    """Logs every commit an engine pushes, with the fleet event count."""

    def __init__(self) -> None:
        self.simulator: FleetSimulator | None = None
        self.pushes: list[tuple[int, int, list[float]]] = []

    def install(self, simulator: FleetSimulator) -> None:
        self.simulator = simulator
        for slot in simulator.replicas:
            # Every incarnation's engine gets the slot's window, so a
            # tap there sees each commit the replica pushes.
            slot.window = _Tap(slot.window, slot.index, self)
            slot.engine.tbt_window = slot.window

    def reference(self, index: int) -> list[float]:
        """Samples pushed to ``index`` since its last crash or recycle."""
        events = self.simulator.events
        last_clear = max(
            (
                position
                for position, event in enumerate(events)
                if event.replica == index
                and event.kind in ("fault_down", "health_restart")
            ),
            default=-1,
        )
        samples: list[float] = []
        for replica, num_events, tbts in self.pushes:
            if replica == index and num_events > last_clear:
                samples.extend(tbts)
        return samples


class _Tap:
    """A slot's window whose pushes are also logged by a recorder."""

    def __init__(self, window: TbtWindow, index: int, recorder: _Recorder) -> None:
        self._window = window
        self._index = index
        self._recorder = recorder

    def push(self, tbts) -> None:
        recorder = self._recorder
        recorder.pushes.append(
            (self._index, len(recorder.simulator.events), np.asarray(tbts).tolist())
        )
        self._window.push(tbts)

    def __getattr__(self, name):
        return getattr(self._window, name)


class _CheckingRouter(FleetRouter):
    """Least-loaded routing that audits the fleet state at every arrival."""

    columns = ReplicaTable.COLUMNS

    def __init__(self, num_replicas: int, recorder: _Recorder) -> None:
        super().__init__(num_replicas)
        self.recorder = recorder
        self.checks = 0
        self.draining_checks = 0

    def route(self, request, now, view):
        simulator = self.recorder.simulator
        size = fleet_module.TBT_WINDOW
        # Every view array is read-only, also the routable mask the
        # fleet builds while a replica drains.
        for name in ("alive", *self.columns):
            with pytest.raises(ValueError):
                getattr(view, name)[0] = getattr(view, name)[0]
        if simulator.table.draining.any():
            self.draining_checks += 1
        for slot in simulator.replicas:
            i = slot.index
            kept = self.recorder.reference(i)[-size:]
            window = simulator.windows[i]
            assert window.samples().tolist() == kept
            expected = percentile(kept, 99) if kept else None
            p99 = view.recent_p99_tbt[i]
            assert (np.isnan(p99) and expected is None) or p99 == expected
            snap = slot.snapshot(now)
            assert snap.recent_p99_tbt == expected
            assert bool(simulator.table.alive[i]) == snap.alive
            assert bool(simulator.table.draining[i]) == snap.draining
            assert view.queue_depth[i] == snap.queue_depth
            assert view.num_running[i] == snap.num_running
            assert view.num_pending[i] == snap.num_pending
            assert view.outstanding_tokens[i] == snap.outstanding_tokens
            assert view.kv_occupancy[i] == snap.kv_occupancy
        self.checks += 1
        return lexicographic_argmin(
            view.alive, view.outstanding_tokens, view.queue_depth
        )


def _audited_run(fleet_config: FleetConfig, trace):
    recorder = _Recorder()
    router = _CheckingRouter(fleet_config.num_replicas, recorder)
    simulator = FleetSimulator(_DEPLOYMENT, _CONFIG, fleet_config, router=router)
    recorder.install(simulator)
    result = simulator.run(trace)
    return simulator, recorder, router, result


class TestWindowsInTheFleet:
    def test_engine_pushes_every_decode_tbt(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "TBT_WINDOW", 16)
        trace = _decode_trace(n=8)
        simulator, recorder, router, result = _audited_run(
            FleetConfig(num_replicas=1), trace
        )
        assert router.checks == len(trace)
        pushed = sorted(t for _, _, tbts in recorder.pushes for t in tbts)
        expected = sorted(
            b - a
            for request in result.requests
            for a, b in zip(request.token_times, request.token_times[1:])
        )
        assert pushed == expected
        # Overflow across many commits: the window is the reference's tail.
        assert len(pushed) > 16
        assert simulator.windows[0].samples().tolist() == recorder.reference(0)[-16:]

    def test_crash_and_drain_recycle_clear_the_window(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "TBT_WINDOW", 24)
        trace = _decode_trace(n=24, output=200)
        fleet_config = FleetConfig(
            num_replicas=3,
            faults=FaultSchedule(
                (
                    ReplicaFault(0, down_at=0.3, up_at=0.6),
                    ReplicaFault(2, 0.02, 20.0, "slowdown", 5.0),
                )
            ),
            health=HealthConfig(
                check_interval=0.1, min_samples=8, inflation_factor=2.0
            ),
        )
        simulator, recorder, router, result = _audited_run(fleet_config, trace)
        kinds = {event.kind for event in result.events}
        assert {"fault_down", "drain_start", "health_restart"} <= kinds
        assert router.draining_checks > 0
        # Both clears dropped samples: each replica they hit had pushed
        # TBTs before the clearing event.
        for position, event in enumerate(result.events):
            if event.kind in ("fault_down", "health_restart"):
                assert any(
                    replica == event.replica and num_events <= position
                    for replica, num_events, tbts in recorder.pushes
                    if tbts
                )
        assert router.checks >= len(trace)
        for slot in simulator.replicas:
            kept = recorder.reference(slot.index)[-24:]
            assert simulator.windows[slot.index].samples().tolist() == kept


# ----------------------------------------------------------------------
# Windows exist only for a reader
# ----------------------------------------------------------------------
class _DeferNothing(SchedulingPolicy):
    name = "admit-all"

    def compose_batch(self, pool):
        from repro.scheduling import BatchDirective

        return [BatchDirective(r) for r in pool.decodes] + [
            BatchDirective(r, chunk=pool.token_budget)
            for r in pool.runnable
            if not r.is_prefill_complete
        ]

    def admit(self, snapshot, request, now):
        return True


class TestWindowInstallation:
    def _windows(self, config=_CONFIG, router=None, **fleet):
        simulator = FleetSimulator(
            _DEPLOYMENT, config, FleetConfig(num_replicas=2, **fleet), router=router
        )
        engines = [slot.engine.tbt_window for slot in simulator.replicas]
        return simulator, simulator.windows, engines

    def test_no_window_without_a_reader(self):
        simulator, windows, engines = self._windows(
            router=LeastOutstandingTokensRouter(2)
        )
        assert windows is None
        assert engines == [None, None]
        result = simulator.run(_decode_trace(n=6))
        assert all(r.is_finished for r in result.requests)
        assert simulator.replicas[0].snapshot(0.0).recent_p99_tbt is None

    def test_readers_install_windows(self):
        brownout = BrownoutConfig(levels=(DegradationLevel(token_budget=128),))
        for kwargs in (
            {"router": SloAwareRouter(2, tbt_slo=0.1)},
            {"health": HealthConfig()},
            {"brownout": brownout},
        ):
            _, windows, engines = self._windows(**kwargs)
            assert windows is not None and engines == windows

    def test_admission_hook_installs_windows(self):
        register_policy("admit_all_probe", lambda ctx: _DeferNothing())
        try:
            _, windows, engines = self._windows(
                config=ServingConfig(scheduler="admit_all_probe", token_budget=256)
            )
        finally:
            unregister("admit_all_probe")
        assert windows is not None and engines == windows
