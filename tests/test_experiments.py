"""Smoke tests for every experiment runner, at smoke scale.

These ensure each figure's runner executes end to end and returns rows
with the paper's qualitative shape; the benches run the same code at a
larger scale and print the comparison tables.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import SMOKE, Scale, format_table, scale_from_env
from repro.experiments import (
    falcon_deployment,
    falcon_tp8_cross_node_deployment,
    llama70_deployment,
    mistral_deployment,
    token_budget_for,
    yi_deployment,
)

TINY = Scale(num_requests=24, capacity_rel_tol=0.5, capacity_max_probes=5)


class TestCommon:
    def test_deployment_presets_match_table1(self):
        assert mistral_deployment().parallel.world_size == 1
        assert yi_deployment().parallel.label == "TP2-PP1"
        assert llama70_deployment().parallel.label == "TP4-PP2"
        assert falcon_deployment().parallel.label == "TP4-PP2"
        assert falcon_tp8_cross_node_deployment().parallel.tensor_parallel == 8

    def test_token_budget_for(self):
        assert token_budget_for(mistral_deployment(), strict=True) == 512
        assert token_budget_for(mistral_deployment(), strict=False) == 2048
        assert token_budget_for(llama70_deployment(), strict=False) == 1536

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert scale_from_env() is SMOKE
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            scale_from_env()

    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]


class TestFig01:
    def test_stall_report_shape(self):
        from repro.experiments.fig01_stalls import run_stall_timeline

        reports = {r.scheduler: r for r in run_stall_timeline(TINY, qps=0.4)}
        assert reports["vllm"].max_stall > reports["sarathi"].max_stall
        assert reports["sarathi"].num_stalls == 0

    def test_load_sweep_shape(self):
        from repro.experiments.fig01_stalls import run_tbt_vs_load

        points = run_tbt_vs_load(TINY, qps_values=(0.3, 1.0))
        assert len(points) == 4
        worst = {(p.scheduler, p.qps): p.max_tbt for p in points}
        p99 = {(p.scheduler, p.qps): p.p99_tbt for p in points}
        # Under load, vLLM's worst inter-token gap explodes (at smoke
        # scale stalls are too rare to reach p99; benches assert p99 at
        # full scale); Sarathi's tail stays flat across load.
        assert worst[("vllm", 1.0)] > 10 * worst[("sarathi", 1.0)]
        assert p99[("sarathi", 1.0)] < 2 * p99[("sarathi", 0.3)]


class TestFig02:
    def test_quadrant_ordering(self):
        from repro.experiments.fig02_quadrant import run_quadrant

        points = {p.scheduler: p for p in run_quadrant(TINY, qps=3.0)}
        assert points["sarathi"].p99_tbt < points["vllm"].p99_tbt
        assert (
            points["faster_transformer"].median_ttft > points["sarathi"].median_ttft
        )


class TestFig03:
    def test_phase_scaling(self):
        from repro.experiments.fig03_phase_throughput import run_phase_throughput

        points = run_phase_throughput(batch_sizes=(1, 8, 64))
        prefill = [p.prefill_tokens_per_s for p in points]
        decode = [p.decode_tokens_per_s for p in points]
        assert prefill[-1] < 1.5 * prefill[0]     # saturated
        assert decode[-1] > 20 * decode[0]        # near-linear in batch


class TestFig04:
    def test_linear_dominates(self):
        from repro.experiments.fig04_breakdown import (
            decode_vs_prefill_linear_parity,
            run_breakdown,
        )

        rows = run_breakdown(seq_lens=(512, 2048))
        for row in rows:
            # Prefill iterations are solidly linear-dominated; decode
            # iterations at long contexts cede some share to KV reads.
            threshold = 0.5 if row.phase == "prefill" else 0.35
            assert row.linear_fraction > threshold
        parity = decode_vs_prefill_linear_parity()
        assert 32 <= parity <= 512  # paper: ~128


class TestFig05:
    def test_decode_memory_bound_prefill_compute_bound(self):
        from repro.experiments.fig05_intensity import run_intensity_sweep

        points = {p.num_tokens: p for p in run_intensity_sweep()}
        assert points[32].is_memory_bound
        assert not points[4096].is_memory_bound


class TestFig06:
    def test_higher_tp_has_later_knee(self):
        from repro.experiments.fig06_linear_runtime import (
            compute_bound_knee,
            run_linear_runtime,
        )

        points = run_linear_runtime()
        assert compute_bound_knee(points, 8) >= compute_bound_knee(points, 1)

    def test_layer_time_shrinks_with_tp(self):
        from repro.experiments.fig06_linear_runtime import run_linear_runtime

        points = run_linear_runtime(token_counts=(512,), tp_degrees=(1, 8))
        t = {p.tensor_parallel: p.layer_time for p in points}
        assert t[8] < t[1] / 4


class TestFig07:
    def test_schedule_traces(self):
        from repro.experiments.fig07_schedules import run_schedule_traces

        traces = {t.scheduler: t for t in run_schedule_traces()}
        # FT never stalls decodes but makes C wait; vLLM the opposite.
        assert traces["faster_transformer"].worst_decode_gap < 0.1
        assert traces["vllm"].worst_decode_gap > 0.3
        assert traces["sarathi"].worst_decode_gap < 0.15
        assert (
            traces["faster_transformer"].first_token_c > traces["sarathi"].first_token_c
        )
        # Sarathi's schedule contains hybrid iterations.
        assert any("+" in it for it in traces["sarathi"].iterations)


class TestFig08:
    def test_bubble_comparison(self):
        from repro.experiments.fig08_bubbles import run_bubble_comparison

        reports = {r.scheduler: r for r in run_bubble_comparison(TINY, qps=0.35)}
        assert (
            reports["sarathi"].iteration_time_cv < reports["orca"].iteration_time_cv
        )


class TestFig09:
    def test_chunked_far_cheaper_than_full(self):
        from repro.experiments.fig09_hybrid_latency import run_hybrid_latency

        points = run_hybrid_latency(prompt_lengths=(1024, 8192))
        for p in points:
            assert p.chunked_prefill_slowdown < p.full_prefill_slowdown
        long = points[-1]
        assert long.full_prefill_slowdown > 10
        assert long.chunked_prefill_slowdown < 4


class TestFig12Variants:
    def test_variant_grid(self):
        from repro.experiments.fig12_slo_sweep import sweep_variants

        variants = sweep_variants(mistral_deployment())
        assert set(variants) == {
            "vllm-bs32",
            "vllm-bs64",
            "vllm-bs128",
            "sarathi-512",
            "sarathi-2048",
        }
        assert variants["vllm-bs32"].max_batch_size == 32
        assert variants["sarathi-2048"].token_budget == 2048


class TestFig13:
    def test_cross_node_tp_slower(self):
        from repro.experiments.fig13_tp_vs_pp import run_decode_latency

        points = run_decode_latency(batch_sizes=(32,))
        by_layout = {p.layout: p.tbt for p in points}
        assert by_layout["TP8-cross-node"] > 1.5 * by_layout["TP4-PP2-hybrid"]


class TestFig14:
    def test_overhead_shrinks_with_chunk_size(self):
        from repro.experiments.fig14_chunk_overhead import run_chunk_overhead

        points = run_chunk_overhead(prompt_lengths=(8192,))
        overheads = {p.chunk_size: p.overhead for p in points}
        assert overheads[512] > overheads[1024] > overheads[2048]
        assert overheads[512] < 1.35  # paper: at most ~25%
        assert overheads[2048] < 1.08  # near-negligible

    def test_chunk_larger_than_prompt_skipped(self):
        from repro.experiments.fig14_chunk_overhead import run_chunk_overhead

        points = run_chunk_overhead(prompt_lengths=(1024,), chunk_sizes=(512, 2048))
        assert [p.chunk_size for p in points] == [512]


class TestTable4:
    def test_ablation_shape(self):
        from repro.experiments.table4_ablation import run_ablation
        from repro.workload.datasets import ARXIV_SUMMARIZATION

        # Long arxiv prompts make the hybrid-only stalls visible even at
        # smoke scale.
        rows = run_ablation(TINY, datasets=(ARXIV_SUMMARIZATION,))
        by_sched = {r.scheduler: r for r in rows}
        assert (
            by_sched["sarathi"].p99_tbt
            < by_sched["hybrid_batching_only"].p99_tbt
        )


class TestCapacityRunnerSmoke:
    def test_capacity_cell_runs(self):
        from repro.experiments.capacity_runner import (
            CapacityCellSpec,
            run_capacity_cells,
        )
        from repro.workload.datasets import SHAREGPT4

        spec = CapacityCellSpec(
            deployment=mistral_deployment(),
            scheduler="sarathi",
            dataset=SHAREGPT4,
            scale=TINY,
            strict=True,
            qps_hint=1.0,
        )
        [outcome] = run_capacity_cells([spec])
        cell = outcome.cell
        assert cell.capacity_qps > 0
        assert cell.slo_name == "strict"
        assert cell.num_probes <= TINY.capacity_max_probes + 1


class TestGainHelper:
    def test_sarathi_gain_over_computes_ratios(self):
        from repro.experiments.capacity_runner import CapacityCell
        from repro.experiments.fig10_capacity_small import sarathi_gain_over

        def cell(scheduler, qps):
            return CapacityCell(
                deployment="D",
                scheduler=scheduler,
                dataset="ds",
                slo_name="strict",
                slo_p99_tbt=0.1,
                capacity_qps=qps,
                num_probes=1,
            )

        cells = [cell("sarathi", 3.0), cell("vllm", 1.5), cell("orca", 1.0)]
        gains_vllm = sarathi_gain_over(cells, "vllm")
        gains_orca = sarathi_gain_over(cells, "orca")
        key = ("D", "ds", "strict")
        assert gains_vllm[key] == 2.0
        assert gains_orca[key] == 3.0

    def test_zero_baseline_skipped(self):
        from repro.experiments.capacity_runner import CapacityCell
        from repro.experiments.fig10_capacity_small import sarathi_gain_over

        cells = [
            CapacityCell("D", "sarathi", "ds", "strict", 0.1, 2.0, 1),
            CapacityCell("D", "vllm", "ds", "strict", 0.1, 0.0, 1),
        ]
        assert sarathi_gain_over(cells, "vllm") == {}
