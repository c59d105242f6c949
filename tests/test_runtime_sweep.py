"""Tests for the parallel sweep engine (``repro.runtime``) and the
capacity grid runner.

The contract under test: a sweep's output is a pure function of its
spec list — the same tables come back serial or parallel — and each
capacity cell is a pure function of its own spec, the same alone as
inside a grid.  The fig10-shaped smoke grid is run both ways and
compared exactly.
"""

from __future__ import annotations

import pytest

from repro.api import Deployment
from repro.experiments.capacity_runner import (
    CapacityCellSpec,
    run_capacity_cells,
    serving_config_for,
    token_budget_for,
)
from repro.experiments.common import Scale
from repro.hardware.catalog import A100_80G
from repro.metrics.capacity import CapacityResult
from repro.metrics.slo import SLOSpec
from repro.metrics.summary import RunMetrics
from repro.models.catalog import TINY_1B, YI_34B
from repro.parallel.config import ParallelConfig
from repro.runtime import (
    JOBS_ENV,
    RESUME_ENV,
    RUN_DIR_ENV,
    jobs_from_env,
    map_tasks,
    resume_from_env,
    run_dir_from_env,
    sweep_env,
)
from repro.telemetry import capacity_probe_rows, sweep_cell_rows
from repro.workload.datasets import SHAREGPT4

TINY = Scale(num_requests=12, capacity_rel_tol=0.5, capacity_max_probes=3)


def square(x: int) -> int:  # module-level: picklable for worker processes
    return x * x


@pytest.fixture(scope="module")
def serial_outcomes():
    """The smoke grid run once serially — the golden reference."""
    return run_capacity_cells(tiny_grid_specs(), jobs=1)


def tiny_grid_specs(scale: Scale = TINY) -> list[CapacityCellSpec]:
    # Yi-34B/TP2 keeps capacities near 1 QPS, so every probe simulates
    # a handful of requests.  The dynamic scheduler prices candidate
    # budgets through each cell's execution model.
    deployment = Deployment(
        model=YI_34B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=2)
    )
    return [
        CapacityCellSpec(
            deployment=deployment,
            scheduler=scheduler,
            dataset=SHAREGPT4,
            scale=scale,
            strict=strict,
            qps_hint=1.0,
        )
        for strict in (True, False)
        for scheduler in ("vllm", "sarathi_dynamic")
    ]


class TestMapTasks:
    def test_serial_preserves_order(self):
        outcomes = map_tasks(square, [3, 1, 2], jobs=1)
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert not any(o.resumed for o in outcomes)

    def test_parallel_matches_serial(self):
        items = list(range(8))
        serial = map_tasks(square, items, jobs=1)
        parallel = map_tasks(square, items, jobs=2)
        assert [o.value for o in parallel] == [o.value for o in serial]
        assert [o.index for o in parallel] == list(range(8))

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            map_tasks(square, [1], jobs=0)


class TestEnvKnobs:
    def test_jobs_default_and_parse(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert jobs_from_env() == 1
        monkeypatch.setenv(JOBS_ENV, "4")
        assert jobs_from_env() == 4

    @pytest.mark.parametrize("value", ["zero", "0", "-2"])
    def test_jobs_rejects_garbage(self, monkeypatch, value):
        monkeypatch.setenv(JOBS_ENV, value)
        with pytest.raises(ValueError, match=JOBS_ENV):
            jobs_from_env()

    def test_sweep_env_sets_and_restores(self, monkeypatch, tmp_path):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setenv(RUN_DIR_ENV, "original")
        with sweep_env(jobs=3, run_dir=tmp_path):
            assert jobs_from_env() == 3
            assert run_dir_from_env() == tmp_path
        assert jobs_from_env() == 1
        assert run_dir_from_env() is not None
        assert run_dir_from_env().name == "original"

    def test_run_dir_and_resume(self, monkeypatch, tmp_path):
        monkeypatch.delenv(RUN_DIR_ENV, raising=False)
        monkeypatch.delenv(RESUME_ENV, raising=False)
        assert run_dir_from_env() is None
        assert resume_from_env() is False
        monkeypatch.setenv(RUN_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(RESUME_ENV, "1")
        assert run_dir_from_env() == tmp_path
        assert resume_from_env() is True
        monkeypatch.setenv(RESUME_ENV, "0")
        assert resume_from_env() is False

    def test_sweep_env_pins_fault_knobs(self, monkeypatch, tmp_path):
        """The crash-recovery pair (ledger directory and resume) is
        pinned for the duration of the block and then cleared."""
        for env in (RUN_DIR_ENV, RESUME_ENV):
            monkeypatch.delenv(env, raising=False)
        with sweep_env(run_dir=tmp_path, resume=True):
            assert run_dir_from_env() == tmp_path
            assert resume_from_env() is True
        assert run_dir_from_env() is None
        assert resume_from_env() is False


class TestWavePlanning:
    def test_spec_validation(self):
        deployment = Deployment(model=TINY_1B, gpu=A100_80G)
        with pytest.raises(ValueError, match="strict"):
            CapacityCellSpec(
                deployment=deployment,
                scheduler="vllm",
                dataset=SHAREGPT4,
                scale=TINY,
            )
        with pytest.raises(ValueError, match="qps_hint"):
            CapacityCellSpec(
                deployment=deployment,
                scheduler="vllm",
                dataset=SHAREGPT4,
                scale=TINY,
                strict=True,
                qps_hint=0.0,
            )


class TestGridBitIdentity:
    """The golden test: the smoke grid, serial vs parallel."""

    def test_parallel_and_warm_runs_identical(self, serial_outcomes):
        # Half the grid keeps the drill fast.
        specs = tiny_grid_specs()[:2]
        serial = serial_outcomes[:2]

        parallel = run_capacity_cells(specs, jobs=2)
        assert [o.cell for o in parallel] == [o.cell for o in serial]

    def test_cell_is_the_same_alone_and_in_the_grid(self, serial_outcomes):
        """A cell's outcome depends on its own spec only: searched by
        itself it finds the same capacity with the same probes as
        inside the grid."""
        for spec, in_grid in zip(tiny_grid_specs(), serial_outcomes):
            [alone] = run_capacity_cells([spec])
            assert alone.cell == in_grid.cell
            assert alone.qps_hint == spec.qps_hint


class TestServingConfigValidation:
    def test_explicit_zero_budget_raises(self):
        deployment = Deployment(model=TINY_1B, gpu=A100_80G)
        with pytest.raises(ValueError, match="token_budget"):
            serving_config_for(
                deployment, "sarathi", strict=True, token_budget=0
            )

    def test_none_budget_uses_regime_default(self):
        deployment = Deployment(model=TINY_1B, gpu=A100_80G)
        config = serving_config_for(deployment, "sarathi", strict=True)
        assert config.token_budget == token_budget_for(deployment, strict=True)

    def test_explicit_budget_respected(self):
        deployment = Deployment(model=TINY_1B, gpu=A100_80G)
        config = serving_config_for(
            deployment, "sarathi", strict=True, token_budget=96
        )
        assert config.token_budget == 96


def fake_metrics(p99_tbt: float) -> RunMetrics:
    return RunMetrics(
        num_requests=4,
        makespan=10.0,
        median_ttft=0.5,
        p90_ttft=0.8,
        p99_ttft=0.9,
        median_tbt=0.05,
        p99_tbt=p99_tbt,
        max_tbt=p99_tbt * 1.5,
        median_scheduling_delay=0.01,
        p99_scheduling_delay=0.05,
        output_tokens=64,
        total_tokens=256,
        num_preemptions=1,
        throughput_rps=0.4,
        throughput_tokens_per_s=25.0,
        mean_bubble_fraction=0.0,
    )


class TestSweepTelemetry:
    def test_probe_rows_phases_and_labels(self):
        result = CapacityResult(
            capacity_qps=1.0,
            slo=SLOSpec(name="strict", p99_tbt=0.1),
            probes=[
                (0.5, fake_metrics(0.05), True),
                (1.0, fake_metrics(0.08), True),
                (2.0, fake_metrics(0.30), False),
            ],
            qps_hint=2.0,
            num_bracket_probes=2,
            num_bisect_probes=1,
        )
        rows = capacity_probe_rows(result, deployment="tiny", scheduler="vllm")
        assert len(rows) == 3
        assert [r["phase"] for r in rows] == ["bracket", "bracket", "bisect"]
        assert [r["probe_index"] for r in rows] == [0, 1, 2]
        assert all(r["deployment"] == "tiny" for r in rows)
        assert rows[2]["meets_slo"] is False
        assert rows[0]["qps_hint"] == 2.0
        assert rows[0]["p99_tbt"] == 0.05

    def test_cell_rows_cover_the_grid(self, serial_outcomes):
        outcomes = serial_outcomes
        rows = sweep_cell_rows(outcomes)
        assert len(rows) == len(outcomes)
        assert {row["scheduler"] for row in rows} == {"vllm", "sarathi_dynamic"}
        assert all("cell_seconds" in row and "worker_pid" in row for row in rows)
        # Probe accounting is consistent with the cell's probe count.
        for row in rows:
            assert row["num_bracket_probes"] + row["num_bisect_probes"] == row[
                "num_probes"
            ]
        probe_rows = [r for o in outcomes for r in o.probe_rows]
        assert sum(row["num_probes"] for row in rows) == len(probe_rows)

    def test_cell_rows_count_ledger_hits(self, serial_outcomes, tmp_path):
        """The resume acceptance check: ledger hits show up in telemetry,
        and a resumed grid's rows equal the first run's cells."""
        specs = tiny_grid_specs()[:2]
        first = run_capacity_cells(specs, jobs=1, run_dir=tmp_path)
        resumed = run_capacity_cells(specs, jobs=1, run_dir=tmp_path, resume=True)
        assert [o.cell for o in first] == [o.cell for o in serial_outcomes[:2]]
        assert [o.cell for o in resumed] == [o.cell for o in first]
        assert [row["resumed"] for row in sweep_cell_rows(first)] == [False, False]
        assert [row["resumed"] for row in sweep_cell_rows(resumed)] == [True, True]
