"""Experiment registry: reproduce any paper figure and check its claims.

``python -m repro reproduce fig14`` runs that experiment at the
requested scale, prints the rows the paper reports, then checks the
paper's shape claims against those same rows: one ``claim ok|FAILED:``
line per claim, and exit status 1 if any fails.  An entry is
``run(scale) -> rows``, ``table(rows)`` and ``claims``;
``benchmarks/bench_reproduce.py`` times the same ``run`` and asserts
the same claims, so the CLI and the benchmark cannot disagree.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any

from repro.experiments.common import DEFAULT, Scale, format_table
from repro.runtime import sweep_env

Table = tuple[list[str], list[list[str]]]


@dataclass(frozen=True)
class Claim:
    """One paper-shape predicate over an experiment's rows."""

    text: str
    holds: Callable[[Any], bool]


@dataclass(frozen=True)
class FigureEntry:
    """One reproducible figure/table."""

    figure_id: str
    title: str
    expensive: bool
    run: Callable[[Scale], Any]
    table: Callable[[Any], Table]
    claims: tuple[Claim, ...] = ()


def _runner(target: str, scaled: bool = True, **kwargs) -> Callable[[Scale], Any]:
    """``run(scale)`` for ``"<module>:<function>"`` in ``repro.experiments``.

    The module is imported on the first run, so listing the registry
    loads no experiment.  Analytical experiments (``scaled=False``) take
    no scale.
    """
    module, name = target.split(":")

    def run(scale: Scale):
        function = getattr(import_module(f"repro.experiments.{module}"), name)
        return function(scale, **kwargs) if scaled else function(**kwargs)

    return run


def _rows(headers: list[str], row: Callable[[Any], list[str]]) -> Callable[[Any], Table]:
    """A table with one row per record."""
    return lambda records: (headers, [row(r) for r in records])


def _by(rows, *attrs) -> dict:
    """Index rows by one attribute, or by a tuple of attributes."""
    if len(attrs) == 1:
        return {getattr(r, attrs[0]): r for r in rows}
    return {tuple(getattr(r, a) for a in attrs): r for r in rows}


def _sched(rows) -> dict:
    return _by(rows, "scheduler")


# ----------------------------------------------------------------------
# Runners and claims that need more than one expression
# ----------------------------------------------------------------------
def _fig01b_peak_max_tbt(points) -> bool:
    highest = max(p.qps for p in points)
    by_key = _by(points, "scheduler", "qps")
    return by_key[("vllm", highest)].max_tbt > 10 * by_key[("sarathi", highest)].max_tbt


def _fig01b_some_p99(points) -> bool:
    # At small scales stalls can be too rare to land exactly at the 99th
    # percentile of the heaviest point, so any load point counts.
    by_key = _by(points, "scheduler", "qps")
    return any(
        by_key[("vllm", p.qps)].p99_tbt > by_key[("sarathi", p.qps)].p99_tbt
        for p in points
    )


def _fig04(scale: Scale):
    """The breakdown rows and the decode/prefill linear-parity point."""
    from repro.experiments.fig04_breakdown import (
        decode_vs_prefill_linear_parity,
        run_breakdown,
    )

    return run_breakdown(), decode_vs_prefill_linear_parity()


def _prefill_rows(result) -> list:
    return [r for r in result[0] if r.phase == "prefill"]


def _fig04_attention_grows(result) -> bool:
    fracs = [r.attention / r.total for r in _prefill_rows(result)]
    return fracs[-1] > fracs[0]


def _layer_time(points, tp: int, tokens: int) -> float:
    return _by(points, "tensor_parallel", "num_tokens")[(tp, tokens)].layer_time


def _knee_moves_right(points) -> bool:
    from repro.experiments.fig06_linear_runtime import compute_bound_knee

    return compute_bound_knee(points, 8) >= compute_bound_knee(points, 1)


def _fig09(scale: Scale):
    """Mistral-7B at budget 256 (the table) and LLaMA2-70B TP4 at 512.

    The claims hold for both deployments; the table shows Mistral-7B.
    """
    from repro.experiments.common import mistral_deployment
    from repro.experiments.fig09_hybrid_latency import (
        llama70_tp4_deployment,
        run_hybrid_latency,
    )

    return (
        run_hybrid_latency(mistral_deployment(), token_budget=256),
        run_hybrid_latency(llama70_tp4_deployment(), token_budget=512),
    )


def _fig09_full_slowdown_grows(sweeps) -> bool:
    slowdowns = [[p.full_prefill_slowdown for p in points] for points in sweeps]
    return all(s == sorted(s) for s in slowdowns)


_CAPACITY_TABLE = _rows(
    ["model", "dataset", "SLO", "scheduler", "capacity qps"],
    lambda c: [c.deployment.split("/")[0], c.dataset, c.slo_name, c.scheduler,
               f"{c.capacity_qps:.2f}"],
)


def _gains_over_vllm(cells) -> dict[tuple, float]:
    from repro.experiments.fig10_capacity_small import sarathi_gain_over

    return sarathi_gain_over(cells, "vllm")


def _max_strict_gain(cells) -> float:
    return max(g for (_, _, slo), g in _gains_over_vllm(cells).items() if slo == "strict")


def _fig12_capacity(points, variant: str, loosest: bool = False) -> float:
    slo = (max if loosest else min)(p.slo_p99_tbt for p in points)
    return _by(points, "variant", "slo_p99_tbt")[(variant, slo)].capacity_qps


def _fig12_vllm_flat(points) -> bool:
    caps = [_fig12_capacity(points, f"vllm-bs{bs}") for bs in (32, 64, 128)]
    return max(caps) - min(caps) <= 0.5 * max(max(caps), 0.1)


def _fig12_monotone(points) -> bool:
    slos = sorted({p.slo_p99_tbt for p in points})
    by_key = _by(points, "variant", "slo_p99_tbt")
    for variant in {p.variant for p in points}:
        caps = [by_key[(variant, slo)].capacity_qps for slo in slos]
        if any(b < a * 0.8 for a, b in zip(caps, caps[1:])):
            return False
    return True


def _fig13b_capacity(cells, system: str, slo: str) -> float:
    return _by(cells, "system", "slo_name")[(system, slo)].capacity_qps


def _fig14_falls_with_chunk(points) -> bool:
    for prompt in {p.prompt_len for p in points}:
        mine = sorted((p for p in points if p.prompt_len == prompt), key=lambda p: p.chunk_size)
        overheads = [p.overhead for p in mine]
        if overheads != sorted(overheads, reverse=True):
            return False
    return True


def _table4_in_every_dataset(holds: Callable[[Any, Any, Any], bool]):
    """``holds(combined, hybrid_only, chunked_only)`` on every dataset."""

    def check(rows) -> bool:
        by_key = _by(rows, "dataset", "scheduler")
        return all(
            holds(
                by_key[(dataset, "sarathi")],
                by_key[(dataset, "hybrid_batching_only")],
                by_key[(dataset, "chunked_prefills_only")],
            )
            for dataset in {r.dataset for r in rows}
        )

    return check


def _tenant(rows, policy: str, client: str):
    return _by(rows, "policy", "client")[(policy, client)]


def _at_cv(points, scheduler: str, burstiest: bool):
    cv = (max if burstiest else min)(p.cv for p in points)
    return _by(points, "scheduler", "cv")[(scheduler, cv)]


def _burstiness_vllm_degrades(points) -> bool:
    burst = _at_cv(points, "vllm", burstiest=True)
    vllm_worst = max(burst.p99_tbt, burst.max_tbt / 10)
    return vllm_worst > 1.5 * _at_cv(points, "vllm", burstiest=False).p99_tbt


def _utilization_table(utils) -> Table:
    rows = [
        [name, f"{u.mfu:.1%}", f"{u.mbu:.1%}", f"{u.balance:.1%}"]
        for name, u in utils.items()
    ]
    return (["batch", "MFU", "MBU", "min(MFU,MBU)"], rows)


def _prefix_table(points) -> Table:
    from repro.experiments.prefix_cache import capacity_gain

    gains = capacity_gain(points)
    # A search that never failed a probe gives a lower bound, and a
    # ratio with a lower bound in it is no measured gain.
    unbounded = {p.chunk_size for p in points if not p.bounded}

    def gain(p) -> str:
        if p.variant != "cache-on":
            return "-"
        return "n/a" if p.chunk_size in unbounded else f"{gains[p.chunk_size]:.2f}x"

    rows = [
        [str(p.chunk_size), p.variant,
         f"{p.capacity_qps:.2f}" if p.bounded else f">= {p.capacity_qps:.2f}",
         f"{p.hit_rate:.0%}", str(p.cow_copies), gain(p)]
        for p in points
    ]
    return (["chunk", "variant", "capacity qps", "hit rate", "COW", "gain"], rows)


def _prefix_cache_never_hurts(points) -> bool:
    caps = _by(points, "chunk_size", "variant")
    return all(
        caps[(p.chunk_size, "cache-on")].capacity_qps >= p.capacity_qps
        for p in points
        if p.variant == "cache-off"
    )


def _fleet_scales_without_faults(points) -> bool:
    """Fault-free goodput at each fleet size's highest load rises with size."""
    peak = {}
    for p in points:
        if p.fault_rate == 0 and p.qps >= peak.get(p.num_replicas, p).qps:
            peak[p.num_replicas] = p
    goodputs = [peak[n].goodput_rps for n in sorted(peak)]
    return all(a < b for a, b in zip(goodputs, goodputs[1:]))


def _fleet_fault_pairs(points) -> list[tuple]:
    """``(fault-free, faulted)`` points at the same fleet size and load."""
    healthy = {(p.num_replicas, p.qps): p for p in points if p.fault_rate == 0}
    return [(healthy[(p.num_replicas, p.qps)], p) for p in points if p.fault_rate > 0]


def _brownout_pairs(points) -> list[tuple]:
    """``(brownout-off, brownout-on)`` points under the same faults."""
    on = {(p.fault_rate, p.correlated): p for p in points if p.brownout}
    return [
        (p, on[(p.fault_rate, p.correlated)])
        for p in points
        if not p.brownout and p.fault_rate > 0
    ]


def _brownout_wins_at_highest_rate(points) -> bool:
    top = max(p.fault_rate for p in points)
    return all(
        on.goodput_rps > off.goodput_rps
        for off, on in _brownout_pairs(points)
        if off.fault_rate == top
    )


def _recovery(value) -> str:
    return f"{value:.2f}" if value is not None else "-"


def _leaderboard_table(rows) -> Table:
    from repro.experiments.leaderboard import leaderboard_table

    return leaderboard_table(rows)


REGISTRY: dict[str, FigureEntry] = {
    entry.figure_id: entry
    for entry in (
        # -------------------------------------------------------------
        # The paper's figures and tables
        # -------------------------------------------------------------
        FigureEntry(
            "fig01a", "Generation stalls (Yi-34B, arxiv)", False,
            _runner("fig01_stalls:run_stall_timeline"),
            _rows(["scheduler", "stalls>0.5s", "max stall (s)", "P99 TBT (s)"],
                  lambda r: [r.scheduler, str(r.num_stalls), f"{r.max_stall:.2f}",
                             f"{r.p99_tbt:.3f}"]),
            (
                Claim("Sarathi has no generation stall over 0.5 s",
                      lambda rs: _sched(rs)["sarathi"].num_stalls == 0),
                Claim("vLLM's longest stall exceeds 1 s",
                      lambda rs: _sched(rs)["vllm"].max_stall > 1.0),
            ),
        ),
        FigureEntry(
            "fig01b", "P99 TBT vs load", False,
            _runner("fig01_stalls:run_tbt_vs_load"),
            _rows(["scheduler", "qps", "P99 TBT (s)", "max TBT (s)"],
                  lambda p: [p.scheduler, f"{p.qps:.2f}", f"{p.p99_tbt:.3f}",
                             f"{p.max_tbt:.2f}"]),
            (
                Claim("at the highest load, vLLM's max TBT > 10x Sarathi's",
                      _fig01b_peak_max_tbt),
                Claim("at some load, vLLM's P99 TBT > Sarathi's", _fig01b_some_p99),
            ),
        ),
        FigureEntry(
            "fig02", "Throughput/latency quadrant", False,
            _runner("fig02_quadrant:run_quadrant", qps=3.0),
            _rows(["scheduler", "tok/s", "P99 TBT (s)", "med TTFT (s)"],
                  lambda p: [p.scheduler, f"{p.throughput_tokens_per_s:.0f}",
                             f"{p.p99_tbt:.3f}", f"{p.median_ttft:.2f}"]),
            (
                Claim("Sarathi's P99 TBT < vLLM's",
                      lambda ps: _sched(ps)["sarathi"].p99_tbt < _sched(ps)["vllm"].p99_tbt),
                Claim("Sarathi's P99 TBT < Orca's",
                      lambda ps: _sched(ps)["sarathi"].p99_tbt < _sched(ps)["orca"].p99_tbt),
                Claim("Sarathi's throughput > 1.25x FasterTransformer's",
                      lambda ps: _sched(ps)["sarathi"].throughput_tokens_per_s
                      > 1.25 * _sched(ps)["faster_transformer"].throughput_tokens_per_s),
            ),
        ),
        FigureEntry(
            "fig03", "Prefill vs decode throughput", False,
            _runner("fig03_phase_throughput:run_phase_throughput", scaled=False),
            _rows(["batch", "prefill tok/s", "decode tok/s"],
                  lambda p: [str(p.batch_size), f"{p.prefill_tokens_per_s:.0f}",
                             f"{p.decode_tokens_per_s:.0f}"]),
            (
                Claim("prefill tok/s grows < 1.5x from the smallest to the largest batch",
                      lambda ps: ps[-1].prefill_tokens_per_s / ps[0].prefill_tokens_per_s
                      < 1.5),
                Claim("decode tok/s grows > 0.3x the largest batch size over the sweep",
                      lambda ps: ps[-1].decode_tokens_per_s / ps[0].decode_tokens_per_s
                      > 0.3 * ps[-1].batch_size),
                Claim("at the smallest batch, prefill tok/s > 20x decode tok/s",
                      lambda ps: ps[0].prefill_tokens_per_s > 20 * ps[0].decode_tokens_per_s),
            ),
        ),
        FigureEntry(
            "fig04", "Runtime breakdown", False, _fig04,
            lambda result: _rows(
                ["phase", "seq len", "total (ms)", "linear", "attention"],
                lambda r: [r.phase, str(r.seq_len), f"{r.total * 1e3:.1f}",
                           f"{r.linear / r.total:.0%}", f"{r.attention / r.total:.0%}"],
            )(result[0]),
            (
                Claim("linear ops are > 50% of every prefill",
                      lambda res: all(r.linear_fraction > 0.5 for r in _prefill_rows(res))),
                Claim("the attention share of a prefill grows with sequence length",
                      _fig04_attention_grows),
                Claim("1 decode token costs the linear time of 32-512 prefill tokens",
                      lambda res: 32 <= res[1] <= 512),
            ),
        ),
        FigureEntry(
            "fig05", "Arithmetic intensity", False,
            _runner("fig05_intensity:run_intensity_sweep", scaled=False),
            _rows(["tokens", "FLOPs/byte", "regime"],
                  lambda p: [str(p.num_tokens), f"{p.arithmetic_intensity:.1f}",
                             "memory" if p.is_memory_bound else "compute"]),
            (
                Claim("1 token is memory-bound",
                      lambda ps: _by(ps, "num_tokens")[1].is_memory_bound),
                Claim("32 tokens are memory-bound",
                      lambda ps: _by(ps, "num_tokens")[32].is_memory_bound),
                Claim("1024 tokens are compute-bound",
                      lambda ps: not _by(ps, "num_tokens")[1024].is_memory_bound),
                Claim("intensity grows monotonically with token count",
                      lambda ps: [p.arithmetic_intensity for p in ps]
                      == sorted(p.arithmetic_intensity for p in ps)),
            ),
        ),
        FigureEntry(
            "fig06", "Linear runtime vs tokens per TP", False,
            _runner("fig06_linear_runtime:run_linear_runtime", scaled=False),
            _rows(["config", "tokens", "layer time (µs)", "regime"],
                  lambda p: [f"TP{p.tensor_parallel}", str(p.num_tokens),
                             f"{p.layer_time * 1e6:.0f}",
                             "memory" if p.is_memory_bound else "compute"]),
            (
                Claim("at every token count, TP8 is faster than TP1",
                      lambda ps: all(_layer_time(ps, 8, n) < _layer_time(ps, 1, n)
                                     for n in {p.num_tokens for p in ps})),
                Claim("the compute-bound knee is no earlier at TP8 than at TP1",
                      _knee_moves_right),
                Claim("past the knee, 4096 tokens take > 1.7x 2048 tokens (TP1)",
                      lambda ps: _layer_time(ps, 1, 4096) > 1.7 * _layer_time(ps, 1, 2048)),
            ),
        ),
        FigureEntry(
            "fig07", "A/B/C/D schedules", False,
            _runner("fig07_schedules:run_schedule_traces", scaled=False),
            _rows(["scheduler", "worst A/B gap (s)", "TTFT of C (s)", "schedule"],
                  lambda t: [t.scheduler, f"{t.worst_decode_gap:.3f}",
                             f"{t.first_token_c:.3f}", "  ".join(t.iterations[:6])]),
            (
                Claim("Sarathi's worst A/B decode gap < 0.3x vLLM's",
                      lambda ts: _sched(ts)["sarathi"].worst_decode_gap
                      < 0.3 * _sched(ts)["vllm"].worst_decode_gap),
                Claim("Sarathi's worst A/B decode gap < 0.3x Orca's",
                      lambda ts: _sched(ts)["sarathi"].worst_decode_gap
                      < 0.3 * _sched(ts)["orca"].worst_decode_gap),
                Claim("Sarathi's TTFT of C < 0.5x FasterTransformer's",
                      lambda ts: _sched(ts)["sarathi"].first_token_c
                      < 0.5 * _sched(ts)["faster_transformer"].first_token_c),
                Claim("Sarathi runs hybrid batches",
                      lambda ts: any("+" in it for it in _sched(ts)["sarathi"].iterations)),
            ),
        ),
        FigureEntry(
            "fig08", "Pipeline bubbles", False,
            _runner("fig08_bubbles:run_bubble_comparison"),
            _rows(["scheduler", "iter-time CV", "bubble fraction", "bubble time (s)"],
                  lambda r: [r.scheduler, f"{r.iteration_time_cv:.2f}",
                             f"{r.bubble_fraction_last_stage:.1%}", f"{r.bubble_time:.1f}"]),
            (
                Claim("Sarathi's iteration-time CV < Orca's",
                      lambda rs: _sched(rs)["sarathi"].iteration_time_cv
                      < _sched(rs)["orca"].iteration_time_cv),
                Claim("Sarathi's last-stage bubble fraction <= Orca's",
                      lambda rs: _sched(rs)["sarathi"].bubble_fraction_last_stage
                      <= _sched(rs)["orca"].bubble_fraction_last_stage),
            ),
        ),
        FigureEntry(
            "fig09", "Hybrid batch latency", False, _fig09,
            lambda sweeps: _rows(
                ["prompt", "+full prefill", "+chunked prefill"],
                lambda p: [str(p.prompt_len), f"{p.full_prefill_slowdown:.1f}x",
                           f"{p.chunked_prefill_slowdown:.2f}x"],
            )(sweeps[0]),
            (
                # Equal when the whole prompt fits in one chunk.
                Claim("a chunked hybrid is never slower than a full-prefill one",
                      lambda sw: all(p.chunked_prefill_slowdown
                                     <= p.full_prefill_slowdown + 1e-9
                                     for points in sw for p in points)),
                Claim("at the longest prompt, the full-prefill hybrid is > 10x decode-only",
                      lambda sw: all(points[-1].full_prefill_slowdown > 10 for points in sw)),
                Claim("at the longest prompt, the chunked hybrid is < 6x decode-only",
                      lambda sw: all(points[-1].chunked_prefill_slowdown < 6
                                     for points in sw)),
                Claim("the full-prefill slowdown grows with prompt length",
                      _fig09_full_slowdown_grows),
            ),
        ),
        FigureEntry(
            "fig10", "Capacity: Mistral-7B & Yi-34B", True,
            _runner("fig10_capacity_small:run_capacity_grid"), _CAPACITY_TABLE,
            (
                # 0.85 leaves room for the capacity search's granularity.
                Claim("Sarathi >= 0.85x vLLM's capacity in every cell",
                      lambda cs: all(g >= 0.85 for g in _gains_over_vllm(cs).values())),
                Claim("Sarathi > 1.8x vLLM in some strict-SLO cell",
                      lambda cs: _max_strict_gain(cs) > 1.8),
            ),
        ),
        FigureEntry(
            "fig11", "Capacity: PP models", True,
            _runner("fig11_capacity_pp:run_capacity_grid_pp"), _CAPACITY_TABLE,
            (
                Claim("Sarathi >= 0.85x vLLM's capacity in every cell",
                      lambda cs: all(g >= 0.85 for g in _gains_over_vllm(cs).values())),
                Claim("Sarathi > 1.5x vLLM in some strict-SLO cell",
                      lambda cs: _max_strict_gain(cs) > 1.5),
            ),
        ),
        FigureEntry(
            "fig12", "Capacity vs SLO sweep", True,
            _runner("fig12_slo_sweep:run_slo_sweep"),
            _rows(["variant", "SLO (s)", "capacity qps"],
                  lambda p: [p.variant, f"{p.slo_p99_tbt:.2f}", f"{p.capacity_qps:.2f}"]),
            (
                Claim("at the tightest SLO, vLLM's capacity barely moves with batch size",
                      _fig12_vllm_flat),
                Claim("at the tightest SLO, sarathi-512 >= vllm-bs128",
                      lambda ps: _fig12_capacity(ps, "sarathi-512")
                      >= _fig12_capacity(ps, "vllm-bs128")),
                Claim("at the loosest SLO, sarathi-2048 >= 0.8x sarathi-512",
                      lambda ps: _fig12_capacity(ps, "sarathi-2048", loosest=True)
                      >= _fig12_capacity(ps, "sarathi-512", loosest=True) * 0.8),
                Claim("no variant's capacity drops below 0.8x the next-tighter SLO's",
                      _fig12_monotone),
            ),
        ),
        FigureEntry(
            "fig13a", "TP vs PP decode latency", False,
            _runner("fig13_tp_vs_pp:run_decode_latency", scaled=False),
            _rows(["layout", "batch", "TBT (ms)"],
                  lambda p: [p.layout, str(p.batch_size), f"{p.tbt * 1e3:.1f}"]),
            (
                Claim("cross-node TP8 TBT > 1.5x TP4-PP2's at batch 8, 16, 32 and 64",
                      lambda ps: all(
                          _by(ps, "layout", "batch_size")[("TP8-cross-node", bs)].tbt
                          > 1.5 * _by(ps, "layout", "batch_size")[("TP4-PP2-hybrid", bs)].tbt
                          for bs in (8, 16, 32, 64))),
            ),
        ),
        FigureEntry(
            "fig13b", "TP vs PP capacity", True,
            _runner("fig13_tp_vs_pp:run_parallel_capacity"),
            _rows(["system", "SLO", "capacity qps"],
                  lambda c: [c.system, c.slo_name, f"{c.capacity_qps:.2f}"]),
            (
                Claim("strict SLO: sarathi-PP >= vllm-PP",
                      lambda cs: _fig13b_capacity(cs, "sarathi-PP", "strict")
                      >= _fig13b_capacity(cs, "vllm-PP", "strict")),
                Claim("relaxed SLO: sarathi-PP >= vllm-PP",
                      lambda cs: _fig13b_capacity(cs, "sarathi-PP", "relaxed")
                      >= _fig13b_capacity(cs, "vllm-PP", "relaxed")),
                Claim("relaxed SLO: sarathi-PP > vllm-TP8",
                      lambda cs: _fig13b_capacity(cs, "sarathi-PP", "relaxed")
                      > _fig13b_capacity(cs, "vllm-TP8", "relaxed")),
            ),
        ),
        FigureEntry(
            "fig14", "Chunked-prefill overhead", False,
            _runner("fig14_chunk_overhead:run_chunk_overhead", scaled=False),
            _rows(["prompt len", "chunk", "overhead (x)"],
                  lambda p: [str(p.prompt_len), str(p.chunk_size), f"{p.overhead:.3f}"]),
            (
                Claim("overhead falls as the chunk grows, at every prompt length",
                      _fig14_falls_with_chunk),
                Claim("chunk 512 adds < 35%",
                      lambda ps: all(p.overhead < 1.35 for p in ps if p.chunk_size == 512)),
                Claim("chunk 2048 adds < 10%",
                      lambda ps: all(p.overhead < 1.10 for p in ps if p.chunk_size == 2048)),
            ),
        ),
        FigureEntry(
            "table4", "Technique ablation", False,
            _runner("table4_ablation:run_ablation"),
            _rows(["scheduler", "dataset", "P50 TTFT (s)", "P99 TBT (s)"],
                  lambda r: [r.scheduler, r.dataset, f"{r.p50_ttft:.2f}",
                             f"{r.p99_tbt:.2f}"]),
            (
                Claim("combined P99 TBT < hybrid-only's, on every dataset",
                      _table4_in_every_dataset(lambda c, h, k: c.p99_tbt < h.p99_tbt)),
                Claim("combined P99 TBT <= 1.1x chunked-only's, on every dataset",
                      _table4_in_every_dataset(lambda c, h, k: c.p99_tbt <= k.p99_tbt * 1.1)),
                Claim("hybrid-only P50 TTFT <= combined's, on every dataset",
                      _table4_in_every_dataset(lambda c, h, k: h.p50_ttft <= c.p50_ttft)),
                Claim("combined P50 TTFT <= chunked-only's, on every dataset",
                      _table4_in_every_dataset(lambda c, h, k: c.p50_ttft <= k.p50_ttft)),
            ),
        ),
        # -------------------------------------------------------------
        # Extra ablations and extensions (EXPERIMENTS.md)
        # -------------------------------------------------------------
        FigureEntry(
            "budget", "Ablation: token budget sweep", False,
            _runner("ablations:run_budget_sweep"),
            _rows(["budget", "P99 TBT (s)", "med TTFT (s)", "makespan (s)"],
                  lambda p: [str(p.token_budget), f"{p.p99_tbt:.3f}",
                             f"{p.median_ttft:.3f}", f"{p.makespan:.1f}"]),
            (
                Claim("P99 TBT at the largest budget > at the smallest",
                      lambda ps: ps[-1].p99_tbt > ps[0].p99_tbt),
                Claim("median TTFT at the largest budget <= 1.1x at the smallest",
                      lambda ps: ps[-1].median_ttft <= ps[0].median_ttft * 1.1),
            ),
        ),
        FigureEntry(
            "tiles", "Ablation: tile quantization", False,
            _runner("ablations:run_tile_quantization", scaled=False),
            _rows(["chunk", "tiled (ms)", "untiled (ms)", "penalty"],
                  lambda p: [str(p.chunk), f"{p.with_tiles * 1e3:.1f}",
                             f"{p.without_tiles * 1e3:.1f}",
                             f"{p.with_tiles / p.without_tiles - 1:+.1%}"]),
            (
                Claim("with tiles modelled, chunk 257 costs > 1.10x chunk 256",
                      lambda ps: _by(ps, "chunk")[257].with_tiles
                      > 1.10 * _by(ps, "chunk")[256].with_tiles),
                Claim("without tiles, chunk 257 costs < 1.05x chunk 256",
                      lambda ps: _by(ps, "chunk")[257].without_tiles
                      < 1.05 * _by(ps, "chunk")[256].without_tiles),
            ),
        ),
        FigureEntry(
            "allocator", "Ablation: paged vs reservation KV allocator", False,
            _runner("ablations:run_allocator_comparison"),
            _rows(["allocator", "med TTFT (s)", "P99 sched delay (s)", "makespan (s)"],
                  lambda p: [p.allocator, f"{p.median_ttft:.2f}",
                             f"{p.p99_scheduling_delay:.2f}", f"{p.makespan:.1f}"]),
            (
                Claim("paged P99 scheduling delay <= reservation's",
                      lambda ps: _by(ps, "allocator")["paged"].p99_scheduling_delay
                      <= _by(ps, "allocator")["reservation"].p99_scheduling_delay),
            ),
        ),
        FigureEntry(
            "dynamic", "Ablation: static vs dynamic token budget", False,
            _runner("ablations:run_dynamic_budget_comparison"),
            _rows(["variant", "P99 TBT (s)", "med TTFT (s)", "mean budget"],
                  lambda p: [p.variant, f"{p.p99_tbt:.3f}", f"{p.median_ttft:.3f}",
                             f"{p.mean_budget:.0f}"]),
            (
                Claim("dynamic median TTFT <= 1.05x static-512's",
                      lambda ps: _by(ps, "variant")["dynamic"].median_ttft
                      <= _by(ps, "variant")["static-512"].median_ttft * 1.05),
                Claim("the dynamic budget averages > 512 tokens",
                      lambda ps: _by(ps, "variant")["dynamic"].mean_budget > 512),
            ),
        ),
        FigureEntry(
            "fairness", "Extension: multi-tenant fairness", False,
            _runner("multitenant:run_fairness_comparison"),
            _rows(["policy", "tenant", "med TTFT (s)", "P99 TTFT (s)", "max TBT (s)"],
                  lambda r: [r.policy, r.client, f"{r.median_ttft:.2f}",
                             f"{r.p99_ttft:.2f}", f"{r.max_tbt:.3f}"]),
            (
                Claim("fair admission cuts the light tenant's P99 TTFT below 0.5x FCFS's",
                      lambda rs: _tenant(rs, "fair", "light").p99_ttft
                      < 0.5 * _tenant(rs, "fcfs", "light").p99_ttft),
                Claim("the heavy tenant's median TTFT stays < 1.3x FCFS's",
                      lambda rs: _tenant(rs, "fair", "heavy").median_ttft
                      < 1.3 * _tenant(rs, "fcfs", "heavy").median_ttft),
                Claim("every tenant's max TBT < 0.2 s under both policies",
                      lambda rs: all(r.max_tbt < 0.2 for r in rs)),
            ),
        ),
        FigureEntry(
            "burstiness", "Extension: arrival burstiness", False,
            _runner("robustness:run_burstiness_sweep"),
            _rows(["scheduler", "inter-arrival CV", "P99 TBT (s)", "max TBT (s)",
                   "med TTFT (s)"],
                  lambda p: [p.scheduler, f"{p.cv:.1f}", f"{p.p99_tbt:.3f}",
                             f"{p.max_tbt:.2f}", f"{p.median_ttft:.2f}"]),
            (
                Claim("Sarathi's max TBT at the burstiest CV < 2x at the smoothest",
                      lambda ps: _at_cv(ps, "sarathi", burstiest=True).max_tbt
                      < 2 * _at_cv(ps, "sarathi", burstiest=False).max_tbt),
                Claim("vLLM's tail at the burstiest CV > 1.5x its smoothest P99 TBT",
                      _burstiness_vllm_degrades),
                Claim("at the burstiest CV, vLLM's max TBT > 3x Sarathi's",
                      lambda ps: _at_cv(ps, "vllm", burstiest=True).max_tbt
                      > 3 * _at_cv(ps, "sarathi", burstiest=True).max_tbt),
            ),
        ),
        FigureEntry(
            "eviction", "Extension: recompute vs swap eviction", False,
            _runner("robustness:run_preemption_policy_comparison"),
            _rows(["policy", "P99 TBT (s)", "med TTFT (s)", "makespan (s)", "preemptions",
                   "swap-outs", "re-prefilled tokens"],
                  lambda p: [p.policy, f"{p.p99_tbt:.3f}", f"{p.median_ttft:.2f}",
                             f"{p.makespan:.1f}", str(p.num_preemptions),
                             str(p.num_swap_outs), str(p.redone_prefill_tokens)]),
            (
                Claim("recompute preempts",
                      lambda ps: _by(ps, "policy")["recompute"].num_preemptions > 0),
                Claim("swap swaps out",
                      lambda ps: _by(ps, "policy")["swap"].num_swap_outs > 0),
                Claim("swap re-prefills fewer tokens than recompute",
                      lambda ps: _by(ps, "policy")["swap"].redone_prefill_tokens
                      < _by(ps, "policy")["recompute"].redone_prefill_tokens),
            ),
        ),
        FigureEntry(
            "disagg", "Extension: Sarathi vs disaggregated 1P+1D", False,
            _runner("disagg_comparison:run_disagg_comparison"),
            _rows(["system", "med TTFT (s)", "P99 TBT (s)", "makespan (s)", "migrations",
                   "migration time (s)", "preemptions"],
                  lambda p: [p.system, f"{p.median_ttft:.3f}", f"{p.p99_tbt:.3f}",
                             f"{p.makespan:.1f}", str(p.num_migrations),
                             f"{p.total_migration_time:.2f}", str(p.num_preemptions)]),
            (
                Claim("the NVLink 1P+1D P99 TBT < 2 Sarathi replicas'",
                      lambda ps: _by(ps, "system")["disagg-1P1D-NVLink"].p99_tbt
                      < _by(ps, "system")["sarathi-2-replicas"].p99_tbt),
                Claim("the NVLink 1P+1D makespan < 1.5x 2 Sarathi replicas'",
                      lambda ps: _by(ps, "system")["disagg-1P1D-NVLink"].makespan
                      < 1.5 * _by(ps, "system")["sarathi-2-replicas"].makespan),
                Claim("Ethernet migration time > 5x NVLink's",
                      lambda ps: _by(ps, "system")["disagg-1P1D-Ethernet-100G"]
                      .total_migration_time
                      > 5 * _by(ps, "system")["disagg-1P1D-NVLink"].total_migration_time),
            ),
        ),
        FigureEntry(
            "utilization", "Extension: MFU/MBU by batch composition", False,
            _runner("fig05_intensity:run_batch_utilization", scaled=False),
            _utilization_table,
            (
                Claim("a decode-only batch has MFU < 25%",
                      lambda us: us["decode-only (bs 32)"].mfu < 0.25),
                Claim("a prefill-only batch has lower MBU than a decode-only one",
                      lambda us: us["prefill-only (2048)"].mbu < us["decode-only (bs 32)"].mbu),
                Claim("the hybrid's min(MFU, MBU) > decode-only's",
                      lambda us: us["hybrid (32d + 480p)"].balance
                      > us["decode-only (bs 32)"].balance),
                Claim("the hybrid's min(MFU, MBU) > prefill-only's",
                      lambda us: us["hybrid (32d + 480p)"].balance
                      > us["prefill-only (2048)"].balance),
            ),
        ),
        # -------------------------------------------------------------
        # Prefix cache, fleet and scheduler plug-ins
        # -------------------------------------------------------------
        FigureEntry(
            "prefix", "Prefix-cache capacity: hit rate × chunk × SLO", True,
            _runner("prefix_cache:run_prefix_cache_capacity"), _prefix_table,
            (
                Claim("cache-on capacity >= cache-off's at every chunk size",
                      _prefix_cache_never_hurts),
                Claim("follow-up rounds hit the cache: every cache-on hit rate > 0",
                      lambda ps: all(p.hit_rate > 0 for p in ps if p.variant == "cache-on")),
            ),
        ),
        FigureEntry(
            "fleet", "Fleet goodput: replicas × faults × load", True,
            _runner("fleet:run_fleet_sweep"),
            _rows(["replicas", "qps", "faults/s", "attainment", "goodput rps",
                   "shed", "failovers", "restarts"],
                  lambda p: [str(p.num_replicas), f"{p.qps:.2f}", f"{p.fault_rate:.2f}",
                             f"{p.attainment:.0%}", f"{p.goodput_rps:.2f}",
                             str(p.num_shed), str(p.num_failovers), str(p.num_restarts)]),
            (
                Claim("without faults, goodput at full load rises with the replica count",
                      _fleet_scales_without_faults),
                Claim("crashes cost goodput at every fleet size and load",
                      lambda ps: all(f.goodput_rps < h.goodput_rps
                                     for h, f in _fleet_fault_pairs(ps))),
                Claim("requests fail over under crashes and never without",
                      lambda ps: all((p.num_failovers > 0) == (p.fault_rate > 0)
                                     for p in ps)),
            ),
        ),
        FigureEntry(
            "resilience",
            "Fleet resilience: fault rate × domain correlation × brownout",
            True,
            _runner("resilience:run_resilience_sweep"),
            _rows(["faults/s", "domains", "brownout", "attainment", "goodput rps",
                   "P99 TBT (s)", "shed", "disruptions", "MTTR (s)", "max rec (s)"],
                  lambda p: [f"{p.fault_rate:.2f}",
                             "correlated" if p.correlated else "independent",
                             "on" if p.brownout else "off",
                             f"{p.attainment:.0%}", f"{p.goodput_rps:.2f}",
                             f"{p.p99_tbt:.3f}", f"{p.shed_fraction:.0%}",
                             str(p.num_disruptions), _recovery(p.mean_recovery_s),
                             _recovery(p.max_recovery_s)]),
            (
                Claim("at the highest fault rate, brownout-on goodput > brownout-off's",
                      _brownout_wins_at_highest_rate),
                Claim("under slowdown faults, brownout-on P99 TBT < brownout-off's",
                      lambda ps: all(on.p99_tbt < off.p99_tbt
                                     for off, on in _brownout_pairs(ps))),
            ),
        ),
        FigureEntry(
            "leaderboard",
            "Scheduler leaderboard: every registered policy × workload suite",
            True,
            _runner("leaderboard:run_leaderboard"),
            _leaderboard_table,
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
) -> tuple[str, bool]:
    """Run one figure's experiment, render its table and check its claims.

    Returns the text (title, table, then one ``claim ok|FAILED: ...``
    line per claim) and whether every claim held.  The sweep knobs
    (``jobs`` and the ``run_dir``/``resume`` ledger pair) reach the
    figure's sweep through the ``REPRO_*`` environment (runners pick
    them up via the sweep engine's defaults), so every registry entry
    keeps its plain ``run(scale)`` signature.  An interrupted or failed
    sweep raises; no partial table is rendered.
    """
    key = figure_id.lower()
    if key not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown figure {figure_id!r}; known: {known}")
    entry = REGISTRY[key]
    with sweep_env(jobs=jobs, run_dir=run_dir, resume=resume):
        rows = entry.run(scale)
    text = f"{entry.figure_id} — {entry.title}\n\n" + format_table(*entry.table(rows))
    verdicts = [(claim.text, claim.holds(rows)) for claim in entry.claims]
    if verdicts:
        text += "\n\n" + "\n".join(
            f"claim {'ok' if held else 'FAILED'}: {claim}" for claim, held in verdicts
        )
    return text, all(held for _, held in verdicts)
