"""Tests for the chaos harness (``repro.runtime.chaos``) and the golden
recovery drills it enables.

Chaos must be deterministic (same seed, same faults, every run) so the
recovery paths can be golden-tested: a chaos-ridden sweep retries its
way to output bit-identical to the unfaulted run, and a sweep cut down
mid-flight resumes with exactly the missing cells recomputed.
"""

from __future__ import annotations

import pytest

from repro.api import Deployment
from repro.experiments.capacity_runner import CapacityCellSpec, run_capacity_cells
from repro.experiments.common import Scale
from repro.hardware.catalog import A100_80G
from repro.models.catalog import YI_34B
from repro.parallel.config import ParallelConfig
from repro.runtime import (
    CHAOS_ENV,
    ChaosConfig,
    chaos_from_env,
    corrupt_file,
    map_tasks,
)
from repro.types import SchedulerKind
from repro.workload.datasets import SHAREGPT4

pytestmark = pytest.mark.chaos

TINY = Scale(num_requests=12, capacity_rel_tol=0.5, capacity_max_probes=3)


def square(x: int) -> int:  # module-level: picklable for worker processes
    return x * x


class TestChaosConfig:
    def test_parse_full_spec(self):
        config = ChaosConfig.parse("kill=0.2, hang=0.1, seed=3, hang_seconds=5")
        assert config == ChaosConfig(
            seed=3, kill_rate=0.2, hang_rate=0.1, hang_seconds=5.0
        )

    def test_parse_aliases_and_attempts(self):
        config = ChaosConfig.parse("kill_rate=0.4,attempts=2")
        assert config.kill_rate == 0.4
        assert config.max_attempt == 2

    @pytest.mark.parametrize("spec", ["", "  ", "off", "none", "0"])
    def test_parse_off_values(self, spec):
        assert ChaosConfig.parse(spec) is None

    def test_parse_zero_rates_is_off(self):
        assert ChaosConfig.parse("kill=0,hang=0") is None

    @pytest.mark.parametrize(
        "spec", ["kill", "frobnicate=1", "kill=lots", "kill=2.0"]
    )
    def test_parse_rejects_garbage(self, spec):
        with pytest.raises(ValueError):
            ChaosConfig.parse(spec)

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="kill rate"):
            ChaosConfig(kill_rate=1.5)
        with pytest.raises(ValueError, match="exceed 1"):
            ChaosConfig(kill_rate=0.7, hang_rate=0.7)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert chaos_from_env() is None
        monkeypatch.setenv(CHAOS_ENV, "kill=0.3,seed=9")
        assert chaos_from_env() == ChaosConfig(seed=9, kill_rate=0.3)


class TestDeterminism:
    def test_decisions_stable_and_seed_dependent(self):
        a = ChaosConfig(seed=1, kill_rate=0.3, hang_rate=0.2)
        b = ChaosConfig(seed=1, kill_rate=0.3, hang_rate=0.2)
        decisions = [a.decision(i, 0) for i in range(64)]
        assert decisions == [b.decision(i, 0) for i in range(64)]
        assert {"kill", "hang", None} == set(decisions)  # all kinds drawn
        other_seed = ChaosConfig(seed=2, kill_rate=0.3, hang_rate=0.2)
        assert decisions != [other_seed.decision(i, 0) for i in range(64)]

    def test_draw_is_uniform_in_unit_interval(self):
        config = ChaosConfig(seed=0, kill_rate=0.5)
        draws = [config.draw(i, 0) for i in range(256)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.3 < sum(draws) / len(draws) < 0.7

    def test_faults_stop_past_max_attempt(self):
        config = ChaosConfig(seed=0, kill_rate=1.0, max_attempt=1)
        assert config.decision(0, 0) == "kill"
        assert config.decision(0, 1) is None  # retries always run clean

    def test_corrupt_file_is_deterministic(self, tmp_path):
        payload = bytes(range(256)) * 4
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(payload)
        b.write_bytes(payload)
        assert corrupt_file(a, seed=3) == corrupt_file(b, seed=3) == 8
        assert a.read_bytes() == b.read_bytes() != payload

    def test_corrupt_file_handles_empty_and_missing(self, tmp_path):
        empty = tmp_path / "empty"
        empty.touch()
        assert corrupt_file(empty) == 0
        assert corrupt_file(tmp_path / "nope") == 0


class TestRecoveryDrills:
    def test_resume_after_kill_completes_exactly_missing_cells(self, tmp_path):
        """A sweep cut down by worker kills resumes with only the holes.

        ``max_retries=0`` turns every chaos kill into a quarantined
        cell — the ledger ends up holding a strict subset, exactly as
        if the run had been killed mid-sweep.
        """
        items = list(range(8))
        chaos = ChaosConfig(seed=5, kill_rate=0.4)
        first = map_tasks(
            square, items, jobs=2, run_dir=tmp_path, chaos=chaos,
            max_retries=0, strict=False,
        )
        done = {o.index for o in first.outcomes}
        missing = set(items) - done
        assert first.failures and missing  # the drill actually lost cells
        assert done  # ...but not all of them

        second = map_tasks(square, items, jobs=2, run_dir=tmp_path, resume=True)
        assert second.ok
        assert second.values == [x * x for x in items]
        assert second.num_resumed == len(done)
        assert {o.index for o in second.outcomes if o.resumed} == done
        assert {o.index for o in second.outcomes if not o.resumed} == missing

    def test_chaos_capacity_grid_bit_identical_to_serial(self):
        """The acceptance drill: kills mid-grid, zero lost cells."""
        # Yi-34B/TP2 keeps capacities near 1 QPS: cheap probes.
        deployment = Deployment(
            model=YI_34B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=2)
        )
        specs = [
            CapacityCellSpec(
                deployment=deployment,
                scheduler=scheduler,
                dataset=SHAREGPT4,
                scale=TINY,
                strict=strict,
                qps_hint=1.0,
            )
            for strict in (True, False)
            for scheduler in (SchedulerKind.VLLM, SchedulerKind.SARATHI)
        ]
        serial = run_capacity_cells(specs, jobs=1)

        reports = []
        chaotic = run_capacity_cells(
            specs, jobs=2, chaos=ChaosConfig(seed=1, kill_rate=0.4),
            reports=reports,
        )
        assert [o.cell for o in chaotic] == [o.cell for o in serial]
        assert sum(r.num_retries for r in reports) > 0  # chaos actually bit
        assert all(not r.failures for r in reports)
