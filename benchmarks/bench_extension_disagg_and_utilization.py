"""Extensions: disaggregated serving and roofline utilization.

Neither is a paper figure; both quantify claims the paper makes in
prose — §6 predicts the disaggregation tradeoff and leaves the
comparison to future work, and Fig. 5's caption claims Sarathi's
hybrid batches "maximize both compute and bandwidth utilization".
"""

from __future__ import annotations

from repro.api import ServingConfig, build_engine, clone_requests
from repro.experiments.common import format_table, mistral_deployment
from repro.experiments.disagg_comparison import run_disagg_comparison
from repro.metrics.utilization import batch_utilization
from repro.types import TokenWork


def bench_extension_disagg(benchmark, report, bench_scale):
    points = benchmark.pedantic(
        run_disagg_comparison, args=(bench_scale,), rounds=1, iterations=1
    )
    rows = [
        [
            p.system,
            f"{p.median_ttft:.3f}",
            f"{p.p99_tbt:.3f}",
            f"{p.makespan:.1f}",
            str(p.num_migrations),
            f"{p.total_migration_time:.2f}",
        ]
        for p in points
    ]
    report(
        "Extension — Sarathi (2 replicas) vs disaggregated 1P+1D at equal "
        "GPUs (Mistral-7B, sharegpt4). §6 prediction: disaggregation gives "
        "interference-free decode TBT but pays KV migration and splits "
        "the fleet.",
        format_table(
            ["system", "med TTFT (s)", "P99 TBT (s)", "makespan (s)",
             "migrations", "migration time (s)"],
            rows,
        ),
    )
    by_system = {p.system: p for p in points}
    sarathi = by_system["sarathi-2-replicas"]
    disagg = by_system["disagg-1P1D-NVLink"]
    # Disaggregation's decode pool is interference-free...
    assert disagg.p99_tbt < sarathi.p99_tbt
    # ...but both systems complete the trace in comparable time, and the
    # Ethernet variant pays real migration seconds.
    assert disagg.makespan < 1.5 * sarathi.makespan
    ethernet = by_system["disagg-1P1D-Ethernet-100G"]
    assert ethernet.total_migration_time > 5 * disagg.total_migration_time


def _utilization_rows():
    exec_model = mistral_deployment().execution_model()
    compositions = {
        "decode-only (bs 32)": [TokenWork.decode(1024) for _ in range(32)],
        "prefill-only (2048)": [TokenWork.prefill_chunk(2048)],
        "hybrid (32d + 480p)": (
            [TokenWork.decode(1024) for _ in range(32)]
            + [TokenWork.prefill_chunk(480, past_len=512, is_last=False)]
        ),
    }
    return {
        name: batch_utilization(exec_model, works)
        for name, works in compositions.items()
    }


def bench_extension_utilization(benchmark, report):
    utils = benchmark.pedantic(_utilization_rows, rounds=1, iterations=1)
    rows = [
        [name, f"{u.mfu:.1%}", f"{u.mbu:.1%}", f"{u.balance:.1%}"]
        for name, u in utils.items()
    ]
    report(
        "Extension — MFU/MBU by batch composition (Mistral-7B, A100). "
        "Fig. 5 caption: hybrid batches maximize both compute and "
        "bandwidth utilization.",
        format_table(["batch", "MFU", "MBU", "min(MFU,MBU)"], rows),
    )
    decode = utils["decode-only (bs 32)"]
    prefill = utils["prefill-only (2048)"]
    hybrid = utils["hybrid (32d + 480p)"]
    # Decode wastes compute; prefill wastes bandwidth; hybrid balances.
    assert decode.mfu < 0.25
    assert prefill.mbu < decode.mbu
    assert hybrid.balance > decode.balance
    assert hybrid.balance > prefill.balance
