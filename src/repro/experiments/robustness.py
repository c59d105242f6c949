"""Robustness experiments: burstiness and preemption policy.

The paper evaluates under Poisson arrivals; production traffic is
burstier.  ``run_burstiness_sweep`` varies the inter-arrival
coefficient of variation (Gamma arrivals; cv=1 recovers Poisson) and
checks whether Sarathi's stall-free tail survives bursts.

``run_preemption_policy_comparison`` contrasts vLLM's two eviction
policies — recompute vs swap — under KV-cache pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment, ServingConfig, build_engine, clone_requests
from repro.experiments.common import DEFAULT, Scale, mistral_deployment, yi_deployment
from repro.metrics.summary import summarize
from repro.scheduling.vectorized import VecPagedMemory
from repro.workload.arrival import GammaArrivals
from repro.workload.datasets import SHAREGPT4, generate_requests


@dataclass(frozen=True)
class BurstinessPoint:
    """One (scheduler, cv) probe."""

    scheduler: str
    cv: float
    p99_tbt: float
    max_tbt: float
    median_ttft: float


def run_burstiness_sweep(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 1.5,
    cvs: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    token_budget: int = 512,
) -> list[BurstinessPoint]:
    """P99/max TBT across arrival burstiness for vLLM and Sarathi."""
    deployment = deployment or mistral_deployment()
    points = []
    for cv in cvs:
        trace = generate_requests(
            SHAREGPT4,
            num_requests=scale.num_requests,
            arrivals=GammaArrivals(qps=qps, cv=cv),
            seed=scale.seed,
        )
        for kind in ("vllm", "sarathi"):
            config = ServingConfig(scheduler=kind, token_budget=token_budget)
            engine = build_engine(deployment, config)
            metrics = summarize(engine.run(clone_requests(trace)))
            points.append(
                BurstinessPoint(
                    scheduler=kind,
                    cv=cv,
                    p99_tbt=metrics.p99_tbt,
                    max_tbt=metrics.max_tbt,
                    median_ttft=metrics.median_ttft,
                )
            )
    return points


@dataclass(frozen=True)
class PreemptionPolicyPoint:
    """One eviction policy's behaviour under memory pressure."""

    policy: str
    p99_tbt: float
    median_ttft: float
    makespan: float
    num_preemptions: int
    num_swap_outs: int
    redone_prefill_tokens: int


def run_preemption_policy_comparison(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 1.0,
    kv_capacity_tokens: int = 24576,
) -> list[PreemptionPolicyPoint]:
    """vLLM with recompute vs swap eviction under a squeezed KV cache.

    The KV capacity is set far below the deployment's natural size so
    both policies must evict; recompute re-prefills evicted requests
    (wasted compute, TTFT-shaped tail hits) while swap pays PCIe
    transfers but keeps the progress.
    """
    deployment = deployment or yi_deployment()
    trace = generate_requests(
        SHAREGPT4, num_requests=scale.num_requests, qps=qps, seed=scale.seed
    )
    points = []
    for policy in ("recompute", "swap"):
        config = ServingConfig(scheduler="vllm", preemption_mode=policy)
        engine = build_engine(deployment, config)
        engine.scheduler.memory = VecPagedMemory(
            engine.arrays, kv_capacity_tokens, block_size=16
        )
        result = engine.run(clone_requests(trace))
        metrics = summarize(result)
        base_prefill = sum(r.prompt_len for r in result.requests)
        recorded = sum(r.num_prefill_tokens for r in result.records)
        points.append(
            PreemptionPolicyPoint(
                policy=policy,
                p99_tbt=metrics.p99_tbt,
                median_ttft=metrics.median_ttft,
                makespan=metrics.makespan,
                num_preemptions=engine.scheduler.num_preemptions,
                num_swap_outs=engine.scheduler.num_swap_outs,
                redone_prefill_tokens=recorded - base_prefill,
            )
        )
    return points
