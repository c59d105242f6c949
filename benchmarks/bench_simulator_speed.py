#!/usr/bin/env python
"""Perf-regression harness for the memoized execution model.

Times fixed-seed workloads on the plain ``ExecutionModel`` and on the
memoized one (``repro.perf.cache``), verifies the outputs stayed
bit-identical, and writes the speedups plus hit rates to
``BENCH_simulator.json`` at the repo root so future PRs have a perf
trajectory to compare against.  The model holds the only pricing memo:
the engine and the dynamic scheduler price through it, so an uncached
arm runs every component price through the analytical model, with no
memo at any layer.

Cases:

* **capacity_sweep_dynamic** — a capacity search with the
  SLO-driven dynamic scheduler, whose per-iteration budget bisection
  prices many candidate batches through the execution model; the
  memoized model is the difference between minutes and seconds here.
* **hybrid_batch_fig09** — a Fig. 9-style sweep pricing hybrid
  prefill+decode batches across token budgets and prompt lengths
  directly on the execution model.
* **parallel_capacity_grid** — a Fig. 10-shaped capacity grid run the
  pre-engine way (serial, memoization off) vs through the sweep engine
  at ``--jobs 4``, with the engine's serial wall-clock recorded in the
  detail.  The engine's serial and ``--jobs 4`` runs must produce the
  identical table.
* **prefix_cache_conversation** — KV prefix caching on a multi-round
  conversation workload.  The timed columns are a 100%-miss workload
  (unique prefix ids) with the cache off vs on — those two runs must
  stay bit-identical, pinning the cache's no-sharing contract — and
  the detail records the headline number: conversation capacity at a
  fixed P99-TBT SLO with the cache off vs on, per chunk size.
* **leaderboard_smoke** — the two-policy scheduler leaderboard
  (sarathi vs the SRPT oracle, capacity search skipped) run twice in
  one process, which must produce identical rankings cell for cell.
* **fleet_resilience** — the resilience experiment's high-fault-rate
  operating point (correlated slowdown faults over 2 domains) with the
  brownout controller off vs on, run twice in one process; both runs
  must produce identical points, and the detail records the headline:
  brownout-on goodput vs brownout-off, plus the MTTR-style recovery
  times.

Usage::

    python benchmarks/bench_simulator_speed.py            # full harness
    python benchmarks/bench_simulator_speed.py --quick    # CI smoke
    python benchmarks/bench_simulator_speed.py --no-write # don't touch
                                                          # BENCH_simulator.json
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import astuple, replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import (  # noqa: E402
    Deployment,
    ServingConfig,
    execution_model_for,
)
from repro.experiments.capacity_runner import (  # noqa: E402
    CapacityCellSpec,
    measure_capacity,
    run_capacity_cells,
    serving_config_for,
)
from repro.experiments.common import Scale, mistral_deployment  # noqa: E402
from repro.experiments.fig09_hybrid_latency import run_hybrid_latency  # noqa: E402
from repro.experiments.prefix_cache import (  # noqa: E402
    CHUNK_SIZES,
    capacity_gain,
    conversation_spec_for,
    run_prefix_cache_capacity,
)
from repro.hardware.catalog import A100_80G  # noqa: E402
from repro.metrics.slo import derived_slo  # noqa: E402
from repro.models.catalog import TINY_1B  # noqa: E402
from repro.reporting import (  # noqa: E402
    BenchCase,
    render_bench_table,
    write_bench_json,
)
from repro.workload.conversation import simulate_conversations  # noqa: E402
from repro.workload.datasets import ARXIV_SUMMARIZATION, SHAREGPT4  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simulator.json"

# Sized so the uncached dynamic-scheduler sweep stays around a minute;
# --quick shrinks both the model and the load for CI.
SWEEP_SCALE = Scale(num_requests=24, capacity_rel_tol=0.3, capacity_max_probes=5)
QUICK_SCALE = Scale(num_requests=10, capacity_rel_tol=0.4, capacity_max_probes=3)
# The capacity grid prices long arxiv prompts, where the execution
# model dominates wall-clock; smaller request counts keep the three
# runs of the grid (uncached / serial / parallel) around a minute.
GRID_SCALE = Scale(num_requests=16, capacity_rel_tol=0.3, capacity_max_probes=4)
GRID_QUICK_SCALE = Scale(num_requests=8, capacity_rel_tol=0.5, capacity_max_probes=3)


def _probe_fingerprint(result) -> list[tuple]:
    """Everything a capacity search decided, as comparable values."""
    return [
        (
            qps,
            ok,
            metrics.median_ttft,
            metrics.p99_tbt,
            metrics.max_tbt,
            metrics.throughput_tokens_per_s,
            metrics.num_preemptions,
        )
        for qps, metrics, ok in result.probes
    ] + [("capacity", result.capacity_qps)]


def _timed_capacity_sweep(
    deployment: Deployment,
    scale: Scale,
    seed: int,
    min_load_duration: float = 60.0,
) -> BenchCase:
    """Fixed-seed capacity sweep, dynamic scheduler, both paths."""
    slo = derived_slo(deployment.execution_model(), strict=True)
    scale = replace(scale, seed=seed)

    config = serving_config_for(deployment, "sarathi_dynamic", strict=True)

    def sweep(memoized: bool):
        exec_model = (
            execution_model_for(deployment)
            if memoized
            else deployment.execution_model()
        )
        start = time.perf_counter()
        result = measure_capacity(
            deployment,
            "sarathi_dynamic",
            SHAREGPT4,
            slo,
            scale,
            config=config,
            qps_hint=0.5,
            min_load_duration=min_load_duration,
            exec_model=exec_model,
        )
        return time.perf_counter() - start, result, exec_model

    uncached_s, uncached, _ = sweep(memoized=False)
    cached_s, cached, cached_model = sweep(memoized=True)
    stats = cached_model.cache_stats

    identical = _probe_fingerprint(uncached) == _probe_fingerprint(cached)
    return BenchCase(
        name="capacity_sweep_dynamic",
        uncached_seconds=uncached_s,
        cached_seconds=cached_s,
        identical=identical,
        cache_hits=stats.hits,
        cache_misses=stats.misses,
        work_hits=stats.work_hits,
        work_misses=stats.work_misses,
        detail=(
            f"{deployment.label}, sarathi_dynamic, {SHAREGPT4.name}, "
            f"seed={scale.seed}, probes={cached.num_probes}, "
            f"capacity={cached.capacity_qps:.2f} qps"
        ),
    )


def _timed_hybrid_batch(deployment: Deployment, quick: bool, seed: int) -> BenchCase:
    """Fig. 9-style hybrid-batch pricing sweep, both paths."""
    budgets = (128, 256) if quick else (128, 256, 512, 1024, 2048)
    batch_sizes = (8, 32) if quick else (8, 16, 32, 64)
    repeats = 2 if quick else 5

    def sweep(exec_model):
        points = []
        for _ in range(repeats):
            for budget in budgets:
                for batch_size in batch_sizes:
                    points.extend(
                        run_hybrid_latency(
                            deployment,
                            token_budget=budget,
                            decode_batch_size=batch_size,
                            exec_model=exec_model,
                        )
                    )
        return points

    uncached_model = deployment.execution_model()
    start = time.perf_counter()
    uncached_points = sweep(uncached_model)
    uncached_s = time.perf_counter() - start

    cached_model = execution_model_for(deployment)
    start = time.perf_counter()
    cached_points = sweep(cached_model)
    cached_s = time.perf_counter() - start

    identical = uncached_points == cached_points
    stats = cached_model.cache_stats
    return BenchCase(
        name="hybrid_batch_fig09",
        uncached_seconds=uncached_s,
        cached_seconds=cached_s,
        identical=identical,
        cache_hits=stats.hits,
        cache_misses=stats.misses,
        work_hits=stats.work_hits,
        work_misses=stats.work_misses,
        detail=(
            f"{deployment.label}, budgets={budgets}, "
            f"decode_batches={batch_sizes}, repeats={repeats}"
        ),
    )


def _timed_parallel_grid(
    deployment: Deployment,
    scale: Scale,
    seed: int,
    quick: bool,
) -> BenchCase:
    """A capacity grid three ways: legacy serial vs engine serial/parallel.

    The timed columns are the pre-engine serial loop with memoization
    off and the engine at ``--jobs 4``; the engine's serial and
    parallel runs must produce the identical cell table.
    """
    scale = replace(scale, seed=seed)
    dataset = ARXIV_SUMMARIZATION
    strict_values = (True,) if quick else (True, False)
    schedulers = ("vllm", "sarathi")
    specs = [
        CapacityCellSpec(
            deployment=deployment,
            scheduler=scheduler,
            dataset=dataset,
            scale=scale,
            strict=strict,
            qps_hint=0.3,
        )
        for strict in strict_values
        for scheduler in schedulers
    ]
    # One dynamic-scheduler cell: its per-iteration budget bisection
    # prices thousands of trial batches through the cell's model.
    specs.append(
        CapacityCellSpec(
            deployment=deployment,
            scheduler="sarathi_dynamic",
            dataset=dataset,
            scale=scale,
            strict=True,
            qps_hint=0.3,
        )
    )

    # Pre-engine baseline: serial loop, fresh uncached model per cell.
    start = time.perf_counter()
    for spec in specs:
        config = serving_config_for(deployment, spec.scheduler, spec.strict)
        slo = derived_slo(deployment.execution_model(), spec.strict)
        measure_capacity(
            deployment, spec.scheduler, dataset, slo, scale,
            config=config, qps_hint=spec.qps_hint,
            exec_model=deployment.execution_model(),
        )
    legacy_s = time.perf_counter() - start

    def engine_run(jobs: int):
        start = time.perf_counter()
        outcomes = run_capacity_cells(specs, jobs=jobs)
        return time.perf_counter() - start, outcomes

    serial_s, serial = engine_run(jobs=1)
    par_s, par = engine_run(jobs=4)

    # Bit-identity holds across engine runs (same spec list, any jobs).
    # The legacy baseline only times; it is not golden-checked.
    identical = [o.cell for o in serial] == [o.cell for o in par]
    return BenchCase(
        name="parallel_capacity_grid",
        uncached_seconds=legacy_s,
        cached_seconds=par_s,
        identical=identical,
        cache_hits=sum(o.cache_row["cache_hits"] for o in serial),
        cache_misses=sum(o.cache_row["cache_misses"] for o in serial),
        work_hits=sum(o.cache_row["cache_work_hits"] for o in serial),
        work_misses=sum(o.cache_row["cache_work_misses"] for o in serial),
        detail=(
            f"{len(specs)} cells ({deployment.label}, {dataset.name}), "
            f"seed={scale.seed}; serial+no-memo {legacy_s:.1f}s, engine "
            f"jobs=1 {serial_s:.1f}s, jobs=4 {par_s:.1f}s"
        ),
    )


# ----------------------------------------------------------------------
# KV prefix caching on conversation workloads
# ----------------------------------------------------------------------
# Small token budgets ration prefill hardest, so they see the largest
# relative capacity gain from reuse; the full harness records both a
# strict (512) and a relaxed (2048) chunk size.
PREFIX_SCALE = Scale(num_requests=36, capacity_rel_tol=0.3, capacity_max_probes=5)
PREFIX_QUICK_SCALE = Scale(num_requests=12, capacity_rel_tol=0.5, capacity_max_probes=3)


def _conversation_fingerprint(result) -> list[tuple]:
    # Closed-loop workloads regenerate their requests per run, so the
    # global request-id counter differs between runs; requests compare
    # in creation order on every other externally visible field.
    return [
        (
            r.arrival_time,
            r.prompt_len,
            r.output_len,
            r.prefix_id,
            r.first_scheduled_at,
            r.first_token_at,
            r.finished_at,
            tuple(r.token_times),
            r.num_restarts,
        )
        for r in result.requests
    ]


def _timed_prefix_cache_conversation(
    deployment: Deployment, quick: bool, seed: int
) -> BenchCase:
    """Prefix-cache conversation case: miss-path identity + SLO capacity.

    Unlike the memoization cases, cache-on here does *different work*
    (follow-up rounds skip re-prefilling shared history), so the two
    timed columns are the configuration where the contract demands
    bit-identity: a 100%-miss workload (unique prefix ids per round)
    with the cache off vs on.  The headline capacity gain at the fixed
    P99-TBT SLO goes in the detail and the hit counters come from a
    cache-on run of the real (sharing) conversation workload.
    """
    scale = replace(PREFIX_QUICK_SCALE if quick else PREFIX_SCALE, seed=seed)
    chunk_sizes = (512,) if quick else CHUNK_SIZES

    def run(prefix_mode: str, cache_on: bool):
        spec = replace(
            conversation_spec_for(scale, prefix_mode=prefix_mode),
            arrival_qps=0.5,
        )
        config = ServingConfig(
            scheduler="sarathi",
            token_budget=chunk_sizes[0],
            prefix_cache=cache_on,
        )
        start = time.perf_counter()
        result, _ = simulate_conversations(deployment, config, spec, seed=scale.seed)
        return time.perf_counter() - start, result

    miss_off_s, miss_off = run("unique", cache_on=False)
    miss_on_s, miss_on = run("unique", cache_on=True)
    identical = (
        _conversation_fingerprint(miss_off) == _conversation_fingerprint(miss_on)
        and miss_on.prefix_stats is not None
        and miss_on.prefix_stats.hits == 0
    )

    # Hit counters from the sharing workload (same load, prefix ids on).
    _, sharing = run("conversation", cache_on=True)
    stats = sharing.prefix_stats

    points = run_prefix_cache_capacity(
        scale, deployment, chunk_sizes=chunk_sizes, qps_hint=0.3
    )
    gains = capacity_gain(points)
    caps = {(p.chunk_size, p.variant): p.capacity_qps for p in points}
    gain_text = ", ".join(
        f"chunk {chunk}: {caps[(chunk, 'cache-off')]:.2f}->"
        f"{caps[(chunk, 'cache-on')]:.2f} qps ({gains[chunk]:.2f}x)"
        for chunk in chunk_sizes
    )
    return BenchCase(
        name="prefix_cache_conversation",
        uncached_seconds=miss_off_s,
        cached_seconds=miss_on_s,
        identical=identical,
        cache_hits=stats.hits if stats is not None else 0,
        cache_misses=stats.misses if stats is not None else 0,
        detail=(
            f"{deployment.label}, sarathi, conversation workload seed={scale.seed}; "
            f"capacity at 25x-TBT SLO: {gain_text}; timed columns = 100%-miss "
            f"workload cache off vs on (must be bit-identical)"
        ),
    )


# ----------------------------------------------------------------------
# Scheduler leaderboard determinism
# ----------------------------------------------------------------------
# The leaderboard's whole claim is that rankings are seeded and
# reproducible; two policies keep the case under the CI budget while
# still exercising all three workload generators per run.
LEADERBOARD_POLICIES = ("sarathi", "srpt_oracle")
LEADERBOARD_SCALE = Scale(num_requests=40, capacity_rel_tol=0.35, capacity_max_probes=7)
LEADERBOARD_QUICK_SCALE = Scale(
    num_requests=12, capacity_rel_tol=0.5, capacity_max_probes=3
)


def _leaderboard_fingerprint(rows) -> list[tuple]:
    return [(row.rank, row.capacity_qps, astuple(row.cell)) for row in rows]


def _timed_leaderboard(deployment: Deployment, quick: bool, seed: int) -> BenchCase:
    """Leaderboard case: two identical runs in one process.

    Runs the two-policy mini-leaderboard (sarathi vs the SRPT oracle,
    capacity search skipped) twice.  Both runs must produce identical
    rows cell for cell, and the detail records the oracle-vs-sarathi
    mean-latency gap on the saturating static workload.
    """
    from repro.experiments.leaderboard import run_leaderboard

    scale = replace(
        LEADERBOARD_QUICK_SCALE if quick else LEADERBOARD_SCALE, seed=seed
    )

    def run():
        start = time.perf_counter()
        rows = run_leaderboard(
            scale,
            deployment=deployment,
            schedulers=LEADERBOARD_POLICIES,
            include_capacity=False,
        )
        return time.perf_counter() - start, rows

    first_s, first = run()
    second_s, second = run()
    identical = _leaderboard_fingerprint(first) == _leaderboard_fingerprint(second)

    static = {
        row.cell.scheduler: row.cell for row in first if row.cell.workload == "static"
    }
    oracle = static["srpt_oracle"]
    sarathi = static["sarathi"]
    return BenchCase(
        name="leaderboard_smoke",
        uncached_seconds=first_s,
        cached_seconds=second_s,
        identical=identical,
        detail=(
            f"{deployment.label}, {len(LEADERBOARD_POLICIES)} policies x 3 "
            f"workloads, seed={scale.seed}; static qps {oracle.qps:g}: "
            f"srpt_oracle mean latency {oracle.mean_latency:.2f}s vs sarathi "
            f"{sarathi.mean_latency:.2f}s; timed columns = first run vs "
            f"identical second run (must rank identically)"
        ),
    )


# ----------------------------------------------------------------------
# Fleet resilience determinism + brownout payoff
# ----------------------------------------------------------------------
RESILIENCE_SCALE = Scale(num_requests=80, capacity_rel_tol=0.2, capacity_max_probes=3)
RESILIENCE_QUICK_SCALE = Scale(
    num_requests=40, capacity_rel_tol=0.2, capacity_max_probes=3
)


def _timed_fleet_resilience(quick: bool, seed: int) -> BenchCase:
    """Resilience case: brownout off/on pair, run twice.

    Always runs on the Mistral deployment (the resilience sweep's own):
    the operating point — correlated 2x slowdowns against the strict
    TBT SLO with a chunk-dominated 1024 budget — is tuned so the
    brownout's budget rung has real leverage, and a tiny model would
    change the regime.  Both runs must produce identical points.
    """
    from repro.experiments.resilience import (
        ResiliencePointSpec,
        SWEEP_TOKEN_BUDGET,
        run_resilience_point,
    )

    deployment = mistral_deployment()
    scale = replace(
        RESILIENCE_QUICK_SCALE if quick else RESILIENCE_SCALE, seed=seed
    )
    config = ServingConfig(
        scheduler="sarathi", token_budget=SWEEP_TOKEN_BUDGET
    )
    slo = derived_slo(execution_model_for(deployment), strict=True)
    specs = [
        ResiliencePointSpec(
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
        for brownout in (False, True)
    ]

    def run():
        start = time.perf_counter()
        points = [run_resilience_point(spec) for spec in specs]
        return time.perf_counter() - start, points

    first_s, first = run()
    second_s, second = run()
    identical = first == second
    off, on = first

    def _fmt(value):
        return "-" if value is None else f"{value:.2f}s"

    return BenchCase(
        name="fleet_resilience",
        uncached_seconds=first_s,
        cached_seconds=second_s,
        identical=identical,
        detail=(
            f"{deployment.label}, 4 replicas x 2 domains, correlated "
            f"slowdown rate=0.15, seed={scale.seed}; goodput "
            f"{off.goodput_rps:.2f} rps (brownout off) -> "
            f"{on.goodput_rps:.2f} rps (on), MTTR {_fmt(off.mean_recovery_s)} "
            f"-> {_fmt(on.mean_recovery_s)}; timed columns = first run vs "
            f"identical second run (must be bit-identical)"
        ),
    )


def bench_simulator_cache_speed(benchmark, report):
    """pytest entry: quick variant of the harness, same assertions."""
    deployment = Deployment(model=TINY_1B, gpu=A100_80G)

    def run():
        sweep = _timed_capacity_sweep(
            deployment, QUICK_SCALE, seed=0, min_load_duration=10.0
        )
        hybrid = _timed_hybrid_batch(deployment, quick=True, seed=0)
        grid = _timed_parallel_grid(deployment, GRID_QUICK_SCALE, seed=0, quick=True)
        prefix = _timed_prefix_cache_conversation(deployment, quick=True, seed=0)
        leaderboard = _timed_leaderboard(deployment, quick=True, seed=0)
        resilience = _timed_fleet_resilience(quick=True, seed=0)
        return [sweep, hybrid, grid, prefix, leaderboard, resilience]

    cases = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Simulator speed — memoized vs raw execution model "
        "(cached path must be bit-identical).",
        render_bench_table(cases),
    )
    for case in cases:
        assert case.identical, f"{case.name}: cached path diverged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: tiny model, tiny load"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"where to write the report (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="print the table without rewriting the JSON report",
    )
    args = parser.parse_args(argv)

    if args.quick:
        deployment = Deployment(model=TINY_1B, gpu=A100_80G)
        scale = QUICK_SCALE
    else:
        deployment = mistral_deployment()
        scale = SWEEP_SCALE

    print(f"deployment: {deployment.label} ({'quick' if args.quick else 'full'})")
    print("timing capacity sweep (dynamic scheduler)…", flush=True)
    sweep_case = _timed_capacity_sweep(
        deployment, scale, args.seed, min_load_duration=10.0 if args.quick else 60.0
    )
    print("timing hybrid-batch pricing sweep…", flush=True)
    hybrid_case = _timed_hybrid_batch(deployment, args.quick, args.seed)
    print("timing parallel capacity grid (sweep engine)…", flush=True)
    grid_case = _timed_parallel_grid(
        deployment,
        GRID_QUICK_SCALE if args.quick else GRID_SCALE,
        args.seed,
        quick=args.quick,
    )
    print("timing prefix-cache conversation capacity…", flush=True)
    prefix_case = _timed_prefix_cache_conversation(deployment, args.quick, args.seed)
    print("timing scheduler leaderboard (2-policy smoke)…", flush=True)
    leaderboard_case = _timed_leaderboard(deployment, args.quick, args.seed)
    print("timing fleet resilience (brownout off/on)…", flush=True)
    resilience_case = _timed_fleet_resilience(args.quick, args.seed)
    cases = [
        sweep_case, hybrid_case, grid_case,
        prefix_case, leaderboard_case, resilience_case,
    ]

    print()
    print(render_bench_table(cases))

    failures = [case.name for case in cases if not case.identical]
    if failures:
        print(f"\nFAIL: outputs diverged between paths: {', '.join(failures)}")
        return 1

    if not args.no_write:
        meta = {
            "deployment": deployment.label,
            "quick": args.quick,
            "seed": args.seed,
            "python": sys.version.split()[0],
        }
        path = write_bench_json(args.output, cases, meta)
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
