"""The benchmark's three workloads: seeded inputs and one timed call each.

Every workload is open-loop in simulated time: arrivals follow a
seeded Poisson schedule, so no wall-clock generator exists that could
run late.  Each ``prepare_<workload>(seed)`` builds the inputs (the
set-up the benchmark times as ``setup_s``) and returns the timed call
plus a function that turns the call's return value into ``Outputs``.

The workloads reach the program only through ``simulate``,
``simulate_fleet`` and ``run_capacity_cells``, with scheduler names
given as registry strings.  They pass no engine or perf-cache knob:
the engine comes from ``REPRO_ENGINE``, which the runner sets.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field, replace
from typing import Any, Callable

# replica_decode: the single-replica decode-heavy trace.
REPLICA_REQUESTS = 5_000
REPLICA_QPS = 2_000.0
# fleet_faults: an arrival-dense trace over 100 replicas in 10 domains.
# 4000 requests leave 40 TTFT samples beyond the p99.
FLEET_REQUESTS = 4_000
FLEET_QPS = 10_000.0
FLEET_REPLICAS = 100
FLEET_DOMAINS = 10
# Each domain has exactly FAULT_EVENTS events over the first simulated
# second, which covers the arrivals and most of the decode tail.  A
# fixed count (seeded times) keeps the amount of failover work close
# across seeds, where Poisson counts would swing it by a third.
FAULT_HORIZON = 1.0
FAULT_EVENTS = 2
FAULT_DOWNTIME = 0.1
SLOWDOWN = 3.0
# capacity_sharegpt: the Mistral-7B ShareGPT4 row of Fig. 10.
CAPACITY_CELLS = (
    ("sarathi", True),
    ("vllm", True),
    ("sarathi", False),
    ("vllm", False),
    ("sarathi_dynamic", True),
)
CAPACITY_QPS_HINT = 2.0

RECORD_FIELDS = 7  # stage, start, end, prefill/decode tokens, prefill/decode seqs


@dataclass
class Run:
    """One simulation's outputs, copied out of the program's objects.

    Columns hold one entry per offered request, in input order; times
    that never happened are NaN.  Token times are concatenated in
    request order, and iteration records are flattened
    ``RECORD_FIELDS`` numbers at a time, so a kept run costs a few
    bytes per token instead of a Python object per value.
    """

    request_ids: list[int]
    arrival: array
    output_len: list[int]
    num_emitted: list[int]
    num_restarts: list[int]
    finished: list[bool]
    first_scheduled: array
    first_token: array
    finished_at: array
    token_counts: array
    token_times: array
    shed_ids: list[int]
    records: array
    # The program's own summary: median TTFT, p99 TTFT, p99 TBT.
    summary: tuple[float, float, float]
    num_preemptions: int

    @classmethod
    def capture(cls, requests, shed_ids, records, metrics) -> "Run":
        token_counts, token_times = array("q"), array("d")
        for r in requests:
            token_counts.append(len(r.token_times))
            token_times.extend(r.token_times)
        flat = array("d")
        for rec in records:
            flat.extend((
                rec.stage, rec.start, rec.end,
                rec.num_prefill_tokens, rec.num_decode_tokens,
                rec.num_prefill_seqs, rec.num_decode_seqs,
            ))
        return cls(
            request_ids=[r.request_id for r in requests],
            arrival=array("d", (r.arrival_time for r in requests)),
            output_len=[r.output_len for r in requests],
            num_emitted=[r.num_emitted for r in requests],
            num_restarts=[r.num_restarts for r in requests],
            finished=[r.is_finished for r in requests],
            first_scheduled=_times(requests, "first_scheduled_at"),
            first_token=_times(requests, "first_token_at"),
            finished_at=_times(requests, "finished_at"),
            token_counts=token_counts,
            token_times=token_times,
            shed_ids=list(shed_ids),
            records=flat,
            summary=(metrics.median_ttft, metrics.p99_ttft, metrics.p99_tbt),
            num_preemptions=metrics.num_preemptions,
        )


def _times(requests, attribute: str) -> array:
    """One optional timestamp per request, NaN where it never happened."""
    nan = float("nan")
    return array("d", (
        nan if (value := getattr(r, attribute)) is None else value for r in requests
    ))


@dataclass
class Outputs:
    """Everything one timed call produced."""

    runs: list[Run]
    # (scheduler, slo) -> (slo p99 TBT, capacity qps, probes).
    cells: dict[tuple[str, str], tuple[float, float, int]] = field(
        default_factory=dict
    )


@dataclass
class Prepared:
    call: Callable[[], Any]
    outputs: Callable[[Any], Outputs]


def decode_trace(
    num_requests: int, seed: int, qps: float, output_range: tuple[int, int]
) -> list:
    """Poisson arrivals, prompts of 32-96 tokens, outputs in ``output_range``."""
    from repro.types import Request

    rng = random.Random(seed)
    now = 0.0
    trace = []
    for _ in range(num_requests):
        now += rng.expovariate(qps)
        trace.append(
            Request(
                prompt_len=rng.randint(32, 96),
                output_len=rng.randint(*output_range),
                arrival_time=now,
            )
        )
    return trace


def _tiny_deployment():
    from repro.api import Deployment
    from repro.hardware.catalog import A100_80G
    from repro.models.catalog import TINY_1B

    return Deployment(model=TINY_1B, gpu=A100_80G)


def _serving_config():
    from repro.api import ServingConfig

    return ServingConfig(scheduler="sarathi", token_budget=512, max_batch_size=256)


def _fleet_run(fleet_result, metrics) -> Run:
    return Run.capture(
        fleet_result.requests,
        [r.request_id for r in fleet_result.shed],
        [rec for res in fleet_result.replica_results for rec in res.records],
        metrics,
    )


def prepare_replica_decode(seed: int) -> Prepared:
    import repro.api as api

    deployment = _tiny_deployment()
    config = _serving_config()
    trace = decode_trace(REPLICA_REQUESTS, seed, REPLICA_QPS, (32, 96))

    def outputs(returned) -> Outputs:
        result, metrics = returned
        return Outputs(runs=[Run.capture(result.requests, [], result.records, metrics)])

    return Prepared(lambda: api.simulate(deployment, config, trace), outputs)


def domain_faults(fleet, domains, seed: int):
    """Correlated faults: crashes on the first half of the domains,
    slowdowns on the second half, so no replica gets two overlapping
    faults.  Event ``k`` of a domain starts in the first 80% of the
    ``k``-th slot of the horizon and ends before the next slot."""
    slot = FAULT_HORIZON / FAULT_EVENTS
    half = len(domains) // 2
    faults = []
    for index, domain in enumerate(domains):
        rng = random.Random(f"{seed}:{domain.name}")
        kind, severity = ("crash", None) if index < half else ("slowdown", SLOWDOWN)
        for k in range(FAULT_EVENTS):
            down = (k + 0.8 * rng.random()) * slot
            faults.extend(
                fleet.ReplicaFault(r, down, down + FAULT_DOWNTIME, kind, severity)
                for r in domain.replicas
            )
    return fleet.FaultSchedule(tuple(faults))


def prepare_fleet_faults(seed: int) -> Prepared:
    import repro.cluster.fleet as fleet
    from repro.cluster.health import HealthConfig
    from repro.cluster.router import SloAwareRouter
    from repro.metrics.slo import derived_slo

    deployment = _tiny_deployment()
    config = _serving_config()
    slo = derived_slo(deployment.execution_model(), strict=True)
    trace = decode_trace(FLEET_REQUESTS, seed, FLEET_QPS, (64, 256))
    domains = fleet.partition_domains(FLEET_REPLICAS, FLEET_DOMAINS)
    fleet_config = fleet.FleetConfig(
        num_replicas=FLEET_REPLICAS,
        faults=domain_faults(fleet, domains, seed),
        domains=domains,
        health=HealthConfig(),
    )
    router = SloAwareRouter(FLEET_REPLICAS, slo.p99_tbt)

    def outputs(returned) -> Outputs:
        return Outputs(runs=[_fleet_run(*returned)])

    return Prepared(
        lambda: fleet.simulate_fleet(
            deployment, config, trace, fleet_config, router=router
        ),
        outputs,
    )


def prepare_capacity_sharegpt(seed: int) -> Prepared:
    import repro.experiments.capacity_runner as runner
    from repro.experiments.common import SMOKE, mistral_deployment
    from repro.workload.datasets import SHAREGPT4

    deployment = mistral_deployment()
    scale = replace(SMOKE, seed=seed)
    specs = [
        runner.CapacityCellSpec(
            deployment=deployment,
            scheduler=scheduler,
            dataset=SHAREGPT4,
            scale=scale,
            strict=strict,
            qps_hint=CAPACITY_QPS_HINT,
        )
        for scheduler, strict in CAPACITY_CELLS
    ]
    # Probes run inside the search and return only summaries, so the
    # runner's binding of ``simulate`` is wrapped to copy each probe's
    # outputs for the checks.  The copy runs inside the timed call and
    # costs about 1% of it; keeping compact copies instead of the
    # results keeps peak memory close to what the search itself needs.
    probes: list[Run] = []
    simulate = runner.simulate

    def keep_probe(*args, **kwargs):
        result, metrics = simulate(*args, **kwargs)
        probes.append(Run.capture(result.requests, [], result.records, metrics))
        return result, metrics

    runner.simulate = keep_probe

    def outputs(returned) -> Outputs:
        cells = {
            (o.cell.scheduler, o.cell.slo_name): (
                o.cell.slo_p99_tbt,
                o.cell.capacity_qps,
                o.cell.num_probes,
            )
            for o in returned
        }
        return Outputs(runs=probes, cells=cells)

    return Prepared(lambda: runner.run_capacity_cells(specs, jobs=1), outputs)


WORKLOADS = {
    "replica_decode": prepare_replica_decode,
    "fleet_faults": prepare_fleet_faults,
    "capacity_sharegpt": prepare_capacity_sharegpt,
}
