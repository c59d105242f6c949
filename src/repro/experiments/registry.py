"""Figure registry: reproduce any paper figure from the command line.

``python -m repro reproduce fig14`` runs that figure's experiment at
the requested scale and prints the same rows the paper reports.  The
registry maps figure ids to (runner, formatter) pairs; benchmarks use
the same runners, so CLI output and bench output always agree.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.common import DEFAULT, Scale, format_table
from repro.runtime import sweep_env

Table = tuple[list[str], list[list[str]]]


@dataclass(frozen=True)
class FigureEntry:
    """One reproducible figure/table."""

    figure_id: str
    title: str
    expensive: bool
    run: Callable[[Scale], Table]


def _fig01a(scale: Scale) -> Table:
    from repro.experiments.fig01_stalls import run_stall_timeline

    rows = [
        [r.scheduler, str(r.num_stalls), f"{r.max_stall:.2f}", f"{r.p99_tbt:.3f}"]
        for r in run_stall_timeline(scale)
    ]
    return (["scheduler", "stalls>0.5s", "max stall (s)", "P99 TBT (s)"], rows)


def _fig01b(scale: Scale) -> Table:
    from repro.experiments.fig01_stalls import run_tbt_vs_load

    rows = [
        [p.scheduler, f"{p.qps:.2f}", f"{p.p99_tbt:.3f}", f"{p.max_tbt:.2f}"]
        for p in run_tbt_vs_load(scale)
    ]
    return (["scheduler", "qps", "P99 TBT (s)", "max TBT (s)"], rows)


def _fig02(scale: Scale) -> Table:
    from repro.experiments.fig02_quadrant import run_quadrant

    rows = [
        [p.scheduler, f"{p.throughput_tokens_per_s:.0f}", f"{p.p99_tbt:.3f}",
         f"{p.median_ttft:.2f}"]
        for p in run_quadrant(scale, qps=3.0)
    ]
    return (["scheduler", "tok/s", "P99 TBT (s)", "med TTFT (s)"], rows)


def _fig03(scale: Scale) -> Table:
    from repro.experiments.fig03_phase_throughput import run_phase_throughput

    rows = [
        [str(p.batch_size), f"{p.prefill_tokens_per_s:.0f}", f"{p.decode_tokens_per_s:.0f}"]
        for p in run_phase_throughput()
    ]
    return (["batch", "prefill tok/s", "decode tok/s"], rows)


def _fig04(scale: Scale) -> Table:
    from repro.experiments.fig04_breakdown import run_breakdown

    rows = [
        [r.phase, str(r.seq_len), f"{r.total * 1e3:.1f}",
         f"{r.linear / r.total:.0%}", f"{r.attention / r.total:.0%}"]
        for r in run_breakdown()
    ]
    return (["phase", "seq len", "total (ms)", "linear", "attention"], rows)


def _fig05(scale: Scale) -> Table:
    from repro.experiments.fig05_intensity import run_intensity_sweep

    rows = [
        [str(p.num_tokens), f"{p.arithmetic_intensity:.1f}",
         "memory" if p.is_memory_bound else "compute"]
        for p in run_intensity_sweep()
    ]
    return (["tokens", "FLOPs/byte", "regime"], rows)


def _fig06(scale: Scale) -> Table:
    from repro.experiments.fig06_linear_runtime import run_linear_runtime

    rows = [
        [f"TP{p.tensor_parallel}", str(p.num_tokens), f"{p.layer_time * 1e6:.0f}",
         "memory" if p.is_memory_bound else "compute"]
        for p in run_linear_runtime()
    ]
    return (["config", "tokens", "layer time (µs)", "regime"], rows)


def _fig07(scale: Scale) -> Table:
    from repro.experiments.fig07_schedules import run_schedule_traces

    rows = [
        [t.scheduler, f"{t.worst_decode_gap:.3f}", f"{t.first_token_c:.3f}",
         "  ".join(t.iterations[:6])]
        for t in run_schedule_traces()
    ]
    return (["scheduler", "worst A/B gap (s)", "TTFT of C (s)", "schedule"], rows)


def _fig08(scale: Scale) -> Table:
    from repro.experiments.fig08_bubbles import run_bubble_comparison

    rows = [
        [r.scheduler, f"{r.iteration_time_cv:.2f}",
         f"{r.bubble_fraction_last_stage:.1%}", f"{r.bubble_time:.1f}"]
        for r in run_bubble_comparison(scale)
    ]
    return (["scheduler", "iter-time CV", "bubble fraction", "bubble time (s)"], rows)


def _fig09(scale: Scale) -> Table:
    from repro.experiments.fig09_hybrid_latency import run_hybrid_latency

    rows = [
        [str(p.prompt_len), f"{p.full_prefill_slowdown:.1f}x",
         f"{p.chunked_prefill_slowdown:.2f}x"]
        for p in run_hybrid_latency()
    ]
    return (["prompt", "+full prefill", "+chunked prefill"], rows)


def _fig10(scale: Scale) -> Table:
    from repro.experiments.fig10_capacity_small import run_capacity_grid

    rows = [
        [c.deployment.split("/")[0], c.dataset, c.slo_name, c.scheduler,
         f"{c.capacity_qps:.2f}"]
        for c in run_capacity_grid(scale)
    ]
    return (["model", "dataset", "SLO", "scheduler", "capacity qps"], rows)


def _fig11(scale: Scale) -> Table:
    from repro.experiments.fig11_capacity_pp import run_capacity_grid_pp

    rows = [
        [c.deployment.split("/")[0], c.dataset, c.slo_name, c.scheduler,
         f"{c.capacity_qps:.2f}"]
        for c in run_capacity_grid_pp(scale)
    ]
    return (["model", "dataset", "SLO", "scheduler", "capacity qps"], rows)


def _fig12(scale: Scale) -> Table:
    from repro.experiments.fig12_slo_sweep import run_slo_sweep

    rows = [
        [p.variant, f"{p.slo_p99_tbt:.2f}", f"{p.capacity_qps:.2f}"]
        for p in run_slo_sweep(scale)
    ]
    return (["variant", "SLO (s)", "capacity qps"], rows)


def _fig13a(scale: Scale) -> Table:
    from repro.experiments.fig13_tp_vs_pp import run_decode_latency

    rows = [
        [p.layout, str(p.batch_size), f"{p.tbt * 1e3:.1f}"]
        for p in run_decode_latency()
    ]
    return (["layout", "batch", "TBT (ms)"], rows)


def _fig13b(scale: Scale) -> Table:
    from repro.experiments.fig13_tp_vs_pp import run_parallel_capacity

    rows = [
        [c.system, c.slo_name, f"{c.capacity_qps:.2f}"]
        for c in run_parallel_capacity(scale)
    ]
    return (["system", "SLO", "capacity qps"], rows)


def _fig14(scale: Scale) -> Table:
    from repro.experiments.fig14_chunk_overhead import run_chunk_overhead

    rows = [
        [str(p.prompt_len), str(p.chunk_size), f"{p.overhead:.3f}"]
        for p in run_chunk_overhead()
    ]
    return (["prompt len", "chunk", "overhead (x)"], rows)


def _fleet(scale: Scale) -> Table:
    from repro.experiments.fleet import run_fleet_sweep

    rows = [
        [str(p.num_replicas), f"{p.qps:.2f}", f"{p.fault_rate:.2f}",
         f"{p.attainment:.0%}", f"{p.goodput_rps:.2f}",
         str(p.num_shed), str(p.num_failovers), str(p.num_restarts)]
        for p in run_fleet_sweep(scale)
    ]
    return (
        ["replicas", "qps", "faults/s", "attainment", "goodput rps",
         "shed", "failovers", "restarts"],
        rows,
    )


def _prefix(scale: Scale) -> Table:
    from repro.experiments.prefix_cache import capacity_gain, run_prefix_cache_capacity

    points = run_prefix_cache_capacity(scale)
    gains = capacity_gain(points)
    rows = [
        [str(p.chunk_size), p.variant, f"{p.capacity_qps:.2f}",
         f"{p.hit_rate:.0%}", str(p.cow_copies),
         f"{gains[p.chunk_size]:.2f}x" if p.variant == "cache-on" else "-"]
        for p in points
    ]
    return (["chunk", "variant", "capacity qps", "hit rate", "COW", "gain"], rows)


def _resilience(scale: Scale) -> Table:
    from repro.experiments.resilience import run_resilience_sweep

    def _recovery(value):
        return f"{value:.2f}" if value is not None else "-"

    rows = [
        [f"{p.fault_rate:.2f}",
         "correlated" if p.correlated else "independent",
         "on" if p.brownout else "off",
         f"{p.attainment:.0%}", f"{p.goodput_rps:.2f}",
         f"{p.p99_tbt:.3f}", f"{p.shed_fraction:.0%}",
         str(p.num_disruptions), _recovery(p.mean_recovery_s),
         _recovery(p.max_recovery_s)]
        for p in run_resilience_sweep(scale)
    ]
    return (
        ["faults/s", "domains", "brownout", "attainment", "goodput rps",
         "P99 TBT (s)", "shed", "disruptions", "MTTR (s)", "max rec (s)"],
        rows,
    )


def _leaderboard(scale: Scale) -> Table:
    from repro.experiments.leaderboard import leaderboard_table, run_leaderboard

    return leaderboard_table(run_leaderboard(scale))


def _table4(scale: Scale) -> Table:
    from repro.experiments.table4_ablation import run_ablation

    rows = [
        [r.scheduler, r.dataset, f"{r.p50_ttft:.2f}", f"{r.p99_tbt:.2f}"]
        for r in run_ablation(scale)
    ]
    return (["scheduler", "dataset", "P50 TTFT (s)", "P99 TBT (s)"], rows)


REGISTRY: dict[str, FigureEntry] = {
    entry.figure_id: entry
    for entry in (
        FigureEntry("fig01a", "Generation stalls (Yi-34B, arxiv)", False, _fig01a),
        FigureEntry("fig01b", "P99 TBT vs load", False, _fig01b),
        FigureEntry("fig02", "Throughput/latency quadrant", False, _fig02),
        FigureEntry("fig03", "Prefill vs decode throughput", False, _fig03),
        FigureEntry("fig04", "Runtime breakdown", False, _fig04),
        FigureEntry("fig05", "Arithmetic intensity", False, _fig05),
        FigureEntry("fig06", "Linear runtime vs tokens per TP", False, _fig06),
        FigureEntry("fig07", "A/B/C/D schedules", False, _fig07),
        FigureEntry("fig08", "Pipeline bubbles", False, _fig08),
        FigureEntry("fig09", "Hybrid batch latency", False, _fig09),
        FigureEntry("fig10", "Capacity: Mistral-7B & Yi-34B", True, _fig10),
        FigureEntry("fig11", "Capacity: PP models", True, _fig11),
        FigureEntry("fig12", "Capacity vs SLO sweep", True, _fig12),
        FigureEntry("fig13a", "TP vs PP decode latency", False, _fig13a),
        FigureEntry("fig13b", "TP vs PP capacity", True, _fig13b),
        FigureEntry("fig14", "Chunked-prefill overhead", False, _fig14),
        FigureEntry("table4", "Technique ablation", False, _table4),
        FigureEntry(
            "prefix", "Prefix-cache capacity: hit rate × chunk × SLO", True, _prefix
        ),
        FigureEntry("fleet", "Fleet goodput: replicas × faults × load", True, _fleet),
        FigureEntry(
            "resilience",
            "Fleet resilience: fault rate × domain correlation × brownout",
            True,
            _resilience,
        ),
        FigureEntry(
            "leaderboard",
            "Scheduler leaderboard: every registered policy × workload suite",
            True,
            _leaderboard,
        ),
    )
}


def list_figures() -> list[FigureEntry]:
    return list(REGISTRY.values())


def reproduce_figure(
    figure_id: str,
    scale: Scale = DEFAULT,
    jobs: int | None = None,
    run_dir: str | Path | None = None,
    resume: bool | None = None,
) -> str:
    """Run one figure's experiment and render its table.

    The sweep knobs (``jobs`` and the ``run_dir``/``resume`` ledger
    pair) reach the figure's sweep through the ``REPRO_*`` environment
    (runners pick them up via the sweep engine's defaults), so every
    registry entry keeps its plain ``run(scale)`` signature.  An
    interrupted or failed sweep raises; no partial table is rendered.
    """
    key = figure_id.lower()
    if key not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown figure {figure_id!r}; known: {known}")
    entry = REGISTRY[key]
    with sweep_env(jobs=jobs, run_dir=run_dir, resume=resume):
        headers, rows = entry.run(scale)
    return f"{entry.figure_id} — {entry.title}\n\n" + format_table(headers, rows)
