"""Sarathi-Serve vs disaggregated prefill/decode serving.

The paper leaves this quantitative comparison to future work (§6) and
predicts the qualitative outcome: disaggregation runs prefills without
decodes in the way (Splitwise, DistServe) and decodes with zero
interference (clean TBT), but must migrate every request's KV cache
between pools and leaves prefill-replica HBM idle.  We compare at equal
GPU budget: two Sarathi replicas vs a one-prefill + one-decode
disaggregated pair, over NVLink-class and Ethernet-class migration
links.

Disaggregated serving is two runs of the fleet driver
(:func:`simulate_disaggregated`).  The prefill pool serves every
request up to its first token.  Each request with more to say then
arrives at the decode pool already prefilled, once its KV cache has
crossed the link, and waits there until its context fits.  Nothing in
the prefill pool ever waits on the decode pool, so the prefill run
depends on the trace alone and the decode run can start from its
output: the split is exact, not an approximation.

Both pools run vLLM's scheduler.  A decode replica admits a request
once its current context fits and does not reserve room for the rest
of its response, so a decode pool whose KV cache runs out preempts the
latest arrival the way vLLM does: it recomputes that request's context
in the decode pool, a prefill there.  Each point reports its
preemptions; a decode pool that reports none ran no prefill.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.api import Deployment, ServingConfig, clone_requests, execution_model_for
from repro.cluster.fleet import FleetConfig, FleetSimulator, simulate_fleet
from repro.engine.replica import SimulationResult
from repro.experiments.common import DEFAULT, Scale, mistral_deployment
from repro.hardware.catalog import ETHERNET_100G, NVLINK
from repro.hardware.interconnect import LinkSpec
from repro.metrics.summary import summarize
from repro.metrics.timeline import IterationLog
from repro.perf.iteration import ExecutionModel
from repro.types import Request, RequestPhase
from repro.workload.datasets import SHAREGPT4, generate_requests


# Both pools: whole prompts FCFS in the prefill pool, decode-only
# batches in the decode pool.
_POOL_CONFIG = ServingConfig(scheduler="vllm")


def simulate_disaggregated(
    deployment: Deployment,
    trace: list[Request],
    prefill_replicas: int,
    decode_replicas: int,
    link: LinkSpec,
    exec_model: ExecutionModel | None = None,
) -> tuple[SimulationResult, int, float]:
    """Serve ``trace`` on a prefill pool and a decode pool joined by ``link``.

    Both pools are fleets of ``deployment`` replicas running vLLM's
    scheduler.
    The prefill run serves a copy of each request that ends at its
    first token, which frees its KV cache.  Each request with
    ``output_len > 1`` then arrives at the decode pool prefilled, at its
    first token's time plus the link's transfer time for its KV cache.

    The serving state of both runs is written back onto the requests of
    ``trace``, which keep their own ``arrival_time``.  Returns
    ``(result, num_migrations, total_migration_time)``.
    ``result.replica_logs`` lists the prefill replicas, then the decode
    replicas.
    """
    if prefill_replicas < 1 or decode_replicas < 1:
        raise ValueError("need at least one replica in each pool")
    if exec_model is None:
        exec_model = execution_model_for(deployment)
    prefill = FleetSimulator(
        deployment,
        _POOL_CONFIG,
        FleetConfig(num_replicas=prefill_replicas),
        exec_model=exec_model,
    ).run([replace(request, output_len=1) for request in trace])
    migrated: list[Request] = []
    migration_time = 0.0
    for request, done in zip(trace, prefill.requests):
        if request.output_len > 1:
            hop = link.transfer_time(deployment.model.kv_bytes(done.context_len))
            migration_time += hop
            migrated.append(
                replace(
                    done,
                    output_len=request.output_len,
                    arrival_time=done.first_token_at + hop,
                    phase=RequestPhase.DECODE,
                    finished_at=None,
                )
            )
    runs = [prefill]
    if migrated:
        runs.append(
            FleetSimulator(
                deployment,
                _POOL_CONFIG,
                FleetConfig(num_replicas=decode_replicas),
                exec_model=exec_model,
            ).run(migrated)
        )
    decoded = iter(runs[-1].requests)
    for request, done in zip(trace, prefill.requests):
        final = next(decoded) if request.output_len > 1 else done
        for name in Request.__slots__:
            if name != "arrival_time":
                setattr(request, name, getattr(final, name))

    replicas = [replica for run in runs for replica in run.replica_results]
    replica_logs = tuple(replica.records for replica in replicas)
    if not migrated:
        replica_logs += tuple(IterationLog() for _ in range(decode_replicas))
    result = SimulationResult(
        requests=list(trace),
        records=IterationLog.chain(replica_logs),
        makespan=max(run.makespan for run in runs),
        num_stages=max(replica.num_stages for replica in replicas),
        num_preemptions=sum(replica.num_preemptions for replica in replicas),
        unfinished=[request for request in trace if not request.is_finished],
        cache_stats=runs[-1].cache_stats,
        replica_logs=replica_logs,
    )
    return result, len(migrated), migration_time


@dataclass(frozen=True)
class DisaggPoint:
    """One system's operating point at equal GPU count."""

    system: str
    median_ttft: float
    p99_tbt: float
    makespan: float
    num_migrations: int
    total_migration_time: float
    num_preemptions: int


def run_disagg_comparison(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 3.0,
    token_budget: int = 512,
    migration_links: tuple[LinkSpec, ...] = (NVLINK, ETHERNET_100G),
) -> list[DisaggPoint]:
    """Two Sarathi replicas vs a 1P+1D disaggregated pair.

    Both pools of the pair run vLLM's scheduler: whole prompts FCFS in
    the prefill pool, decode-only batches in the decode pool.
    """
    deployment = deployment or mistral_deployment()
    trace = generate_requests(
        SHAREGPT4, num_requests=scale.num_requests, qps=qps, seed=scale.seed
    )
    points = []
    exec_model = execution_model_for(deployment)

    config = ServingConfig(scheduler="sarathi", token_budget=token_budget)
    _, sarathi_metrics = simulate_fleet(
        deployment, config, trace, FleetConfig(num_replicas=2), exec_model=exec_model
    )
    points.append(
        DisaggPoint(
            system="sarathi-2-replicas",
            median_ttft=sarathi_metrics.median_ttft,
            p99_tbt=sarathi_metrics.p99_tbt,
            makespan=sarathi_metrics.makespan,
            num_migrations=0,
            total_migration_time=0.0,
            num_preemptions=sarathi_metrics.num_preemptions,
        )
    )

    for link in migration_links:
        result, num_migrations, migration_time = simulate_disaggregated(
            deployment,
            clone_requests(trace),
            prefill_replicas=1,
            decode_replicas=1,
            link=link,
            exec_model=exec_model,
        )
        metrics = summarize(result)
        points.append(
            DisaggPoint(
                system=f"disagg-1P1D-{link.name}",
                median_ttft=metrics.median_ttft,
                p99_tbt=metrics.p99_tbt,
                makespan=metrics.makespan,
                num_migrations=num_migrations,
                total_migration_time=migration_time,
                num_preemptions=metrics.num_preemptions,
            )
        )
    return points
