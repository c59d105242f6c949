"""Frozen golden digests: sha256 hashes of canonicalised simulator outputs.

Each *cell* runs one fixed scenario (a scheduler, a workload, a fault
schedule, a memory shape …) and returns a canonical, JSON-serialisable
structure holding every externally visible output: full per-request
timelines, full iteration records (including the float time
breakdown), makespan, preemption counts, prefix-cache counters, and for
fleets the event log, assignments, shed list and summary metrics.
``golden_digests.json`` stores the sha256 of each cell's canonical
JSON; ``test_digests.py`` recomputes them and compares.

Canonicalisation makes the hash a function of the simulated system
only:

* request ids and batch ids come from process-global counters, so both
  are relabelled — request ids by creation order (rank of the id among
  the run's requests), batch ids by first appearance in the
  start-ordered iteration records;
* floats are written exactly, with ``float.hex``;
* engine self-description (``engine_stats``, ``cache_stats``) is left
  out — it describes the machinery, not the simulated system.

Regenerate the fixture after an *intended* behaviour change with::

    PYTHONPATH=src python -m tests.differential.digests [CELL ...]

(all cells, or only the named ones) and review the cells whose digests
moved — ``--check`` lists them without writing.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from repro.api import Deployment, ServingConfig, build_engine, clone_requests
from repro.cluster.fleet import FaultSchedule, FleetConfig, simulate_fleet
from repro.engine.arrays import RequestArrays
from repro.engine.vectorized import VectorizedReplicaEngine
from repro.hardware.catalog import A100_80G, ETHERNET_100G, NVLINK
from repro.models.catalog import TINY_1B
from repro.parallel.config import ParallelConfig
from repro.scheduling.policy import BatchDirective, PoolView, SchedulingPolicy
from repro.scheduling.registry import register_policy, unregister
from repro.scheduling.vectorized import (
    VecFairSarathiScheduler,
    VecPagedMemory,
    VecReservationMemory,
    VecSarathiScheduler,
)
from repro.types import Request
from repro.workload.conversation import ConversationSpec, ConversationWorkload
from repro.workload.distributions import FixedLengths

from tests.conftest import make_request, shrink_kv_memory
from tests.differential.conftest import WORKLOADS

FIXTURE = Path(__file__).with_name("golden_digests.json")

TINY = Deployment(model=TINY_1B, gpu=A100_80G)
TINY_PP = Deployment(
    model=TINY_1B,
    gpu=A100_80G,
    parallel=ParallelConfig(pipeline_parallel=2, pp_link=ETHERNET_100G),
)


# ----------------------------------------------------------------------
# Canonicalisation
# ----------------------------------------------------------------------
def canon(value, ids: dict[int, int] | None = None):
    """Exact, JSON-safe form of a value: floats as hex, dataclasses as
    dicts, enums by value.  ``request_id`` fields are relabelled through
    ``ids`` when given."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, enum.Enum):
        return canon(value.value, ids)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            if f.name == "request_id" and ids is not None and item is not None:
                item = ids[item]
            out[f.name] = canon(item, ids)
        return out
    if isinstance(value, dict):
        return [[canon(k, ids), canon(v, ids)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canon(v, ids) for v in value]
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def relabel(requests) -> dict[int, int]:
    """Request id -> creation rank (ids come from a global counter)."""
    return {rid: rank for rank, rid in enumerate(sorted({r.request_id for r in requests}))}


def timelines(requests, ids: dict[int, int]) -> list:
    return [
        [
            ids[r.request_id],
            r.arrival_time,
            r.prompt_len,
            r.output_len,
            r.client_id,
            r.prefix_id,
            r.prefix_len,
            r.first_scheduled_at,
            r.first_token_at,
            r.finished_at,
            list(r.token_times),
            r.num_emitted,
            r.num_restarts,
            r.is_finished,
        ]
        for r in sorted(requests, key=lambda r: r.request_id)
    ]


def records(recs) -> list:
    ordered = sorted(recs, key=lambda r: (r.start, r.stage))
    batch_ids: dict[int, int] = {}
    rows = []
    for rec in ordered:
        row = dataclasses.asdict(rec)
        row["batch_id"] = batch_ids.setdefault(rec.batch_id, len(batch_ids))
        rows.append(row)
    return rows


def result_canon(result) -> dict:
    """A ``SimulationResult`` in canonical form."""
    ids = relabel(result.requests)
    return canon(
        {
            "requests": timelines(result.requests, ids),
            "records": records(result.records),
            "makespan": result.makespan,
            "num_preemptions": result.num_preemptions,
            "unfinished": sorted(ids[r.request_id] for r in result.unfinished),
            "prefix_stats": getattr(result, "prefix_stats", None),
        }
    )


def fleet_canon(fleet_result, metrics) -> dict:
    merged = fleet_result.merged()
    ids = relabel([*fleet_result.requests, *merged.requests])
    return canon(
        {
            "requests": timelines(merged.requests, ids),
            "replicas": [
                [records(r.records), r.num_preemptions, r.makespan]
                for r in fleet_result.replica_results
            ],
            "events": list(fleet_result.events),
            "assignments": sorted(
                (ids[rid], replica) for rid, replica in fleet_result.assignments.items()
            ),
            "shed": [ids[r.request_id] for r in fleet_result.shed],
            "makespan": fleet_result.makespan,
            "num_rejections": fleet_result.num_rejections,
            "num_failovers": fleet_result.num_failovers,
            "metrics": metrics,
        },
        ids,
    )


def digest(structure) -> str:
    payload = json.dumps(structure, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
def _config(kind: str, **extra) -> ServingConfig:
    return ServingConfig(scheduler=kind, token_budget=256, **extra)


def _pressure_trace(num: int = 10) -> list[Request]:
    return [
        make_request(prompt_len=256, output_len=300, arrival_time=0.005 * i)
        for i in range(num)
    ]


def run_single(
    kind: str,
    trace: list[Request],
    deployment: Deployment = TINY,
    shrink: bool = False,
    **extra,
) -> dict:
    engine = build_engine(deployment, _config(kind, **extra))
    if shrink:
        shrink_kv_memory(engine)
    requests = clone_requests(trace)
    try:
        result = engine.run(requests)
    except ValueError as err:
        # A contract violation is an output too: freeze its message,
        # with request ids relabelled like everywhere else.
        ids = relabel(requests)
        return {"error": re.sub(r"\d+", lambda m: str(ids.get(int(m.group()), m.group())), str(err))}
    return result_canon(result)


FLEET_FAULTS = {
    "no_fault": FaultSchedule(),
    "crash": FaultSchedule.single(1, down_at=2.0, up_at=4.0),
    "slowdown": FaultSchedule.single(
        1, down_at=1.0, up_at=4.0, kind="slowdown", severity=3.0
    ),
    "capacity_loss": FaultSchedule.single(
        1, down_at=1.0, up_at=4.0, kind="capacity_loss", severity=0.6
    ),
}


def run_fleet(kind: str, trace: list[Request], fleet_config: FleetConfig) -> dict:
    fleet_result, metrics = simulate_fleet(
        TINY, _config(kind), clone_requests(trace), fleet_config
    )
    return fleet_canon(fleet_result, metrics)


def _small_spec(prefix_mode: str = "conversation", **overrides) -> ConversationSpec:
    defaults = dict(
        num_conversations=8,
        first_turn_lengths=FixedLengths(120),
        followup_turn_lengths=FixedLengths(48),
        response_lengths=FixedLengths(12),
        mean_rounds=4.0,
        mean_think_time=0.3,
        arrival_qps=2.0,
        prefix_mode=prefix_mode,
    )
    defaults.update(overrides)
    return ConversationSpec(**defaults)


_PRESSURE_SPEC = dict(
    num_conversations=10,
    first_turn_lengths=FixedLengths(360),
    followup_turn_lengths=FixedLengths(60),
    response_lengths=FixedLengths(40),
    mean_think_time=0.05,
    arrival_qps=8.0,
    mean_rounds=3.0,
)


def run_conversation(
    kind: str, spec: ConversationSpec, cache: bool, shrink: bool = False
) -> dict:
    workload = ConversationWorkload(spec, seed=0)
    engine = build_engine(TINY, _config(kind, prefix_cache=cache))
    if shrink:
        shrink_kv_memory(engine, prefix_cache=cache)
    result = engine.run(workload.initial_requests(), followup_fn=workload.followup)
    return result_canon(result)


class _DeferOncePolicy(SchedulingPolicy):
    """Shortest-prompt-first plug-in whose admission hook defers every
    request once — exercises the fleet's admission-defer loop."""

    name = "digest-defer-once"

    def __init__(self) -> None:
        self.deferred: set[int] = set()

    def compose_batch(self, pool: PoolView) -> list[BatchDirective]:
        directives = [BatchDirective(r) for r in pool.decodes]
        prefills = sorted(
            (*pool.prefills, *pool.waiting),
            key=lambda r: (r.prompt_len, r.arrival_time, r.request_id),
        )
        directives.extend(BatchDirective(r, chunk=64) for r in prefills)
        return directives

    def admit(self, snapshot, request, now: float) -> bool:
        if request.request_id in self.deferred:
            return True
        self.deferred.add(request.request_id)
        return False


def run_defer_once_fleet() -> dict:
    register_policy("digest_defer_once", lambda ctx: _DeferOncePolicy())
    try:
        return run_fleet(
            "digest_defer_once",
            WORKLOADS["sharegpt"](16, 0),
            FleetConfig(num_replicas=2),
        )
    finally:
        unregister("digest_defer_once")


def _engine(scheduler) -> VectorizedReplicaEngine:
    return VectorizedReplicaEngine(TINY.execution_model(), scheduler)


def run_fair(trace_scale: int = 24) -> dict:
    from repro.experiments.multitenant import make_multitenant_trace

    trace = make_multitenant_trace(trace_scale, max(4, trace_scale // 8), seed=0)
    arrays = RequestArrays()
    memory = VecPagedMemory(arrays, TINY.kv_capacity_tokens(), block_size=16)
    scheduler = VecFairSarathiScheduler(arrays, memory, token_budget=256)
    engine = _engine(scheduler)
    result = engine.run(clone_requests(trace))
    return {
        "result": result_canon(result),
        "fairness": canon(sorted(scheduler.fairness_report().items())),
    }


def run_sarathi_reservation() -> dict:
    trace = WORKLOADS["sharegpt"](24, 0)
    arrays = RequestArrays()
    memory = VecReservationMemory(arrays, 16384, reserve_len=2048)
    engine = _engine(
        VecSarathiScheduler(arrays, memory, token_budget=256, max_batch_size=128)
    )
    return result_canon(engine.run(clone_requests(trace)))


def run_disagg() -> dict:
    from repro.experiments.disagg_comparison import simulate_disaggregated

    result, num_migrations, migration_time = simulate_disaggregated(
        TINY,
        clone_requests(WORKLOADS["sharegpt"](24, 0)),
        prefill_replicas=1,
        decode_replicas=2,
        link=NVLINK,
    )
    return {
        "result": result_canon(result),
        "replica_logs": [records(log) for log in result.replica_logs],
        "migrations": [num_migrations, canon(migration_time)],
    }


def _experiment(runner):
    def cell():
        from repro.experiments.common import SMOKE

        return canon(runner(SMOKE))

    return cell


def _fig07() -> list:
    from repro.experiments.fig07_schedules import run_schedule_traces

    return canon(run_schedule_traces())


def _experiment_cells() -> dict:
    from repro.experiments import ablations, disagg_comparison, multitenant, robustness

    return {
        "experiment/fig07": _fig07,
        "experiment/multitenant": _experiment(multitenant.run_fairness_comparison),
        "experiment/allocator_comparison": _experiment(
            ablations.run_allocator_comparison
        ),
        "experiment/preemption_policy_comparison": _experiment(
            robustness.run_preemption_policy_comparison
        ),
        "experiment/disagg_comparison": _experiment(
            disagg_comparison.run_disagg_comparison
        ),
    }


# ----------------------------------------------------------------------
# The cell catalogue
# ----------------------------------------------------------------------
PR_SCHEDULERS = ["sarathi", "sarathi_dynamic", "vllm", "faster_transformer"]
ALL_SCHEDULERS = PR_SCHEDULERS + ["orca", "chunked_prefills_only", "hybrid_batching_only"]
POLICIES = ["srpt_oracle", "srpt_predicted", "fcfs_aging"]
SEEDS = [0, 1, 2]
PREFIX_SCHEDULERS = ["sarathi", "vllm", "chunked_prefills_only"]


def cells() -> dict[str, tuple[bool, object]]:
    """name -> (slow, zero-argument cell function)."""
    out: dict[str, tuple[bool, object]] = {}

    def add(name, fn, slow=False):
        # The full fleet matrix contains the fast slice's cells; a name
        # already present keeps its fast-slice entry.
        out.setdefault(name, (slow, fn))

    # -- golden matrix: single replica ---------------------------------
    for kind in PR_SCHEDULERS:
        for workload in sorted(WORKLOADS):
            add(
                f"single/{kind}/{workload}/n14/s0",
                lambda k=kind, w=workload: run_single(k, WORKLOADS[w](14, 0)),
            )
    for kind in ALL_SCHEDULERS:
        for workload in sorted(WORKLOADS):
            for seed in SEEDS:
                add(
                    f"single/{kind}/{workload}/n20/s{seed}",
                    lambda k=kind, w=workload, s=seed: run_single(k, WORKLOADS[w](20, s)),
                    slow=True,
                )
    for kind in ["vllm", "sarathi"]:
        for mode in ["recompute", "swap"]:
            add(
                f"pressure/{kind}/{mode}",
                lambda k=kind, m=mode: run_single(
                    k, _pressure_trace(), shrink=True, preemption_mode=m
                ),
            )

    # -- golden matrix: pipeline parallelism ---------------------------
    for kind in PR_SCHEDULERS:
        add(
            f"pp2/{kind}/sharegpt/n14/s0",
            lambda k=kind: run_single(k, WORKLOADS["sharegpt"](14, 0), deployment=TINY_PP),
        )
    for kind in ALL_SCHEDULERS:
        for workload in sorted(WORKLOADS):
            for seed in SEEDS:
                add(
                    f"pp2/{kind}/{workload}/n20/s{seed}",
                    lambda k=kind, w=workload, s=seed: run_single(
                        k, WORKLOADS[w](20, s), deployment=TINY_PP
                    ),
                    slow=True,
                )
    for kind in ["sarathi", "sarathi_dynamic"]:
        add(
            f"pp2/pressure/{kind}",
            lambda k=kind: run_single(
                k, _pressure_trace(), deployment=TINY_PP, shrink=True,
                preemption_mode="recompute",
            ),
        )

    # -- golden matrix: fleet ------------------------------------------
    for kind in PR_SCHEDULERS:
        for mode in sorted(FLEET_FAULTS):
            add(
                f"fleet/{kind}/sharegpt/{mode}/n16/s0",
                lambda k=kind, m=mode: run_fleet(
                    k, WORKLOADS["sharegpt"](16, 0),
                    FleetConfig(num_replicas=3, faults=FLEET_FAULTS[m]),
                ),
            )
    for kind in ["sarathi", "vllm"]:
        add(
            f"fleet/capacity_pressure/{kind}",
            lambda k=kind: run_fleet(
                k, _pressure_trace(12),
                FleetConfig(
                    num_replicas=2,
                    faults=FaultSchedule.single(
                        0, down_at=0.05, up_at=5.0, kind="capacity_loss",
                        severity=0.999,
                    ),
                ),
            ),
        )
    for kind in PR_SCHEDULERS:
        for workload in sorted(WORKLOADS):
            for mode in sorted(FLEET_FAULTS):
                for seed in SEEDS:
                    add(
                        f"fleet/{kind}/{workload}/{mode}/n16/s{seed}",
                        lambda k=kind, w=workload, m=mode, s=seed: run_fleet(
                            k, WORKLOADS[w](16, s),
                            FleetConfig(num_replicas=3, faults=FLEET_FAULTS[m]),
                        ),
                        slow=True,
                    )

    # -- prefix caching and conversations ------------------------------
    for kind in PREFIX_SCHEDULERS:
        for cache in (False, True):
            add(
                f"conversation/{kind}/cache_{'on' if cache else 'off'}",
                lambda k=kind, c=cache: run_conversation(k, _small_spec(), c),
            )
            add(
                f"conversation/{kind}/unique/cache_{'on' if cache else 'off'}",
                lambda k=kind, c=cache: run_conversation(
                    k, _small_spec(prefix_mode="unique"), c
                ),
            )
    for kind in ["sarathi", "vllm"]:
        add(
            f"conversation/pressure/{kind}",
            lambda k=kind: run_conversation(
                k, _small_spec(**_PRESSURE_SPEC), True, shrink=True
            ),
        )

    # -- policy plug-ins -----------------------------------------------
    for policy in POLICIES:
        for workload in sorted(WORKLOADS):
            add(
                f"policy/{policy}/{workload}/n20/s0",
                lambda p=policy, w=workload: run_single(p, WORKLOADS[w](20, 0)),
            )
        add(
            f"policy/{policy}/fleet/crash",
            lambda p=policy: run_fleet(
                p, WORKLOADS["sharegpt"](16, 0),
                FleetConfig(num_replicas=3, faults=FLEET_FAULTS["crash"]),
            ),
        )
        add(
            f"policy/{policy}/fleet/capacity_loss",
            lambda p=policy: run_fleet(
                p, WORKLOADS["decode_heavy"](16, 1),
                FleetConfig(num_replicas=3, faults=FLEET_FAULTS["capacity_loss"]),
            ),
        )
        for mode in ["recompute", "swap"]:
            add(
                f"policy/{policy}/pressure/{mode}",
                lambda p=policy, m=mode: run_single(
                    p, _pressure_trace(), shrink=True, preemption_mode=m
                ),
            )
        add(
            f"policy/{policy}/pp2",
            lambda p=policy: run_single(p, WORKLOADS["sharegpt"](14, 0), deployment=TINY_PP),
        )
        add(
            f"policy/{policy}/conversation/cache_on",
            lambda p=policy: run_conversation(p, _small_spec(), True),
        )
    add("policy/defer_once/fleet", run_defer_once_fleet)

    # -- object-class scenarios the experiments build ------------------
    add("fair_sarathi/multitenant", run_fair)
    add("sarathi/reservation_memory", run_sarathi_reservation)
    add("disagg/1p2d", run_disagg)
    for name, fn in _experiment_cells().items():
        add(name, fn)
    return out


def load_fixture() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


@functools.cache
def catalogue() -> dict[str, tuple[bool, object]]:
    return cells()


@functools.cache
def frozen() -> dict[str, str]:
    return load_fixture()


def check(name: str):
    """Recompute one cell, assert it matches its frozen digest, and
    return its canonical output for further assertions."""
    structure = catalogue()[name][1]()
    assert digest(structure) == frozen()[name], f"cell {name} diverged from its digest"
    return structure


def main(argv: list[str]) -> int:
    check = "--check" in argv
    catalogue = cells()
    names = [a for a in argv if not a.startswith("--")] or list(catalogue)
    current = {name: digest(catalogue[name][1]()) for name in names}
    frozen = load_fixture() if FIXTURE.exists() else {}
    if check:
        moved = sorted(n for n in current if frozen.get(n) != current[n])
        for name in moved:
            print(f"moved: {name}")
        print(f"{len(moved)} of {len(current)} cells moved")
        return 1 if moved else 0
    merged = {n: d for n, d in {**frozen, **current}.items() if n in catalogue}
    FIXTURE.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(current)} of {len(merged)} digests to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
