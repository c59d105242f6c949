"""Layer-timed benchmark of the Sarathi-Serve simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replica_decode --seed 1 --seconds 10 --trace 0

Each workload runs in fresh child processes (``perfbench/child.py``),
one after another, so ``setup_s`` and ``peak_rss_mb`` belong to one
workload and every per-process registry starts cold.  Children get
``REPRO_ENGINE=vectorized``, no other ``REPRO_*`` variable, and one
numeric thread.  A run keeps starting children until ``--seconds`` is
used up, with at least ``MIN_PLAIN_CHILDREN`` of them, and reports
medians over the children.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced children.  ``--trace 1`` alternates an untraced and a traced
child and reports the per-layer metrics; ``wall_s`` is the untraced
median and ``trace.overhead_frac`` the traced median wall time over
it, minus one.  Both modes print every child's wall time.  Wall time
is reported but not among the bounded end-to-end metrics: on a shared
host it moves by 15-40% between half-minute windows, more than any
bound a regression check can use (see BASELINE.md).

Every child's outputs are checked (see ``checks.py``) and digested;
all digests of a run, traced or not, must be equal.  The last line of
standard output is the JSON result.  The exit code is 1 when a check
fails and 2 when the program or a child cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PLAIN_CHILDREN = 3
# setup_s is a median over at least this many set-ups; workloads whose
# timed call is long add set-up-only children to reach it.
MIN_SETUPS = 12
SETUPS_PER_ROUND = 3
CHILD_TIMEOUT_S = 100.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_ENGINE="vectorized",
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(workload: str, seed: int, mode: str) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, repr(t0)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_children(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Rounds of children until the time is used, at least the minimum.

    Untraced rounds also run set-up-only children, up to
    ``SETUPS_PER_ROUND`` a round, until the run has ``MIN_SETUPS``
    set-ups; spreading them over the run keeps one slow phase of the
    host from deciding the median.
    """
    modes = ("plain", "traced") if traced else ("plain",)
    min_rounds = 1 if traced else MIN_PLAIN_CHILDREN
    start = time.monotonic()
    reports: list[dict] = []
    rounds = 0
    while True:
        for mode in modes:
            reports.append({**run_child(workload, seed, mode), "mode": mode})
        for _ in range(SETUPS_PER_ROUND):
            if traced or len(reports) >= MIN_SETUPS:
                break
            reports.append({**run_child(workload, seed, "setup"), "mode": "setup"})
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            break
    while not traced and len(reports) < MIN_SETUPS:
        reports.append({**run_child(workload, seed, "setup"), "mode": "setup"})
    return reports


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def simulated(report: dict, correct: bool) -> dict[str, float]:
    """The simulated outputs; equal in every child of a correct run."""
    values = {name: value for name, (value, _) in report["serving"].items()}
    values["completed_frac"] = (
        report["completed"] / report["offered"] if correct else 0.0
    )
    return values


def end_to_end(
    plain: list[dict], setups: list[float], correct: bool
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        **simulated(plain[0], correct),
    }


def per_layer(plain: list[dict], traced: list[dict], correct: bool) -> dict[str, float]:
    values = {
        name: statistics.median_low(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values["wall_s"] = median_of(plain, "wall_s")
    values["trace.overhead_frac"] = median_of(traced, "wall_s") / values["wall_s"] - 1.0
    return {**values, **simulated(plain[0], correct)}


def print_report(workload: str, seed: int, reports: list[dict], problems: list[str]) -> None:
    first = reports[0]
    plain = [r for r in reports if r["mode"] == "plain"]
    print(f"workload {workload}, seed {seed}: {len(reports)} children, digest {first['digest'][:16]}")
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in plain)
    print(f"  wall_s per untraced child: {walls}")
    print(f"  failed_frac = {1 - first['completed'] / first['offered']:.6g} ratio "
          f"({first['offered'] - first['completed']} of {first['offered']} simulated requests)")
    for name, (value, samples) in first["serving"].items():
        tail = f", {samples // 100} beyond the p99" if "p99" in name else ""
        print(f"  {name} = {value:.6g} s ({samples} samples{tail})")
    for key, (_, qps, probes) in sorted(first["cells"].items()):
        print(f"  sim_capacity_qps.{key} = {qps:.6g} qps ({probes} probes)")
    traced = [r for r in reports if r["mode"] == "traced"]
    if traced:
        wall, layers = traced[0]["wall_s"], traced[0]["layers"]
        shares = sorted(
            (
                (layers[name] / wall, name[: -len(".self_s")])
                for name in layers
                if name.endswith(".self_s")
            ),
            reverse=True,
        )
        print("  self-time share of traced wall time: " + ", ".join(
            f"{name} {share:.1%}" for share, name in shares
        ))
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose one of {workloads}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        reports = run_children(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 2

    setups = [r["setup_s"] for r in reports if r["mode"] != "traced"]
    reports = [r for r in reports if r["mode"] != "setup"]
    problems = [v for r in reports for v in r["violations"]]
    digests = {r["digest"] for r in reports}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different output digests for one seed")
    correct = not problems
    print_report(args.workload, args.seed, reports, problems)

    plain = [r for r in reports if r["mode"] == "plain"]
    traced = [r for r in reports if r["mode"] == "traced"]
    if traced:
        values, declared = per_layer(plain, traced, correct), spec["per_layer"]
    else:
        values, declared = end_to_end(plain, setups, correct), spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    offered = sum(r["offered"] for r in reports)
    failed = offered if not correct else offered - sum(r["completed"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": offered,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
