"""Sarathi-Serve vs disaggregated prefill/decode serving.

The paper leaves this quantitative comparison to future work (§6) and
predicts the qualitative outcome: disaggregation runs prefills at full
efficiency (better TTFT) and decodes with zero interference (clean
TBT), but must migrate every request's KV cache between pools and
leaves prefill-replica HBM idle.  We compare at equal GPU budget:
two Sarathi replicas vs one-prefill + one-decode disaggregated pair,
over NVLink-class and Ethernet-class migration links.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment, ServingConfig, clone_requests, execution_model_for
from repro.cluster.fleet import FleetConfig, simulate_fleet
from repro.disagg.engine import DisaggregatedEngine
from repro.experiments.common import DEFAULT, Scale, mistral_deployment
from repro.hardware.catalog import ETHERNET_100G, NVLINK
from repro.hardware.interconnect import LinkSpec
from repro.metrics.summary import summarize
from repro.workload.datasets import SHAREGPT4, generate_requests


@dataclass(frozen=True)
class DisaggPoint:
    """One system's operating point at equal GPU count."""

    system: str
    median_ttft: float
    p99_tbt: float
    makespan: float
    num_migrations: int
    total_migration_time: float


def run_disagg_comparison(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 3.0,
    token_budget: int = 512,
    migration_links: tuple[LinkSpec, ...] = (NVLINK, ETHERNET_100G),
) -> list[DisaggPoint]:
    """Two Sarathi replicas vs a 1P+1D disaggregated pair."""
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
        )
    )

    for link in migration_links:
        engine = DisaggregatedEngine(
            exec_model,
            num_prefill_replicas=1,
            num_decode_replicas=1,
            migration_link=link,
            decode_kv_capacity=deployment.kv_capacity_tokens(),
        )
        result = engine.run(clone_requests(trace))
        metrics = summarize(result)
        points.append(
            DisaggPoint(
                system=f"disagg-1P1D-{link.name}",
                median_ttft=metrics.median_ttft,
                p99_tbt=metrics.p99_tbt,
                makespan=metrics.makespan,
                num_migrations=engine.num_migrations,
                total_migration_time=engine.total_migration_time,
            )
        )
    return points
