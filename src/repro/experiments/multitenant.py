"""Multi-tenant fairness: FCFS Sarathi vs virtual-token-counter Sarathi.

One heavy tenant floods the queue with long prompts while a light
tenant sends occasional short requests.  Plain (FCFS) admission makes
the light tenant wait behind the flood; fair admission bounds its TTFT
near its own service time — while both variants keep the stall-free
TBT guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import Deployment, clone_requests, execution_model_for
from repro.engine.arrays import RequestArrays
from repro.engine.vectorized import VectorizedReplicaEngine
from repro.experiments.common import DEFAULT, Scale, mistral_deployment
from repro.memory.capacity import DEFAULT_BLOCK_SIZE
from repro.scheduling.vectorized import (
    DEFAULT_MAX_BATCH_SIZE,
    VecFairSarathiScheduler,
    VecPagedMemory,
    VecSarathiScheduler,
)
from repro.types import Request

HEAVY_CLIENT = 1
LIGHT_CLIENT = 2


@dataclass(frozen=True)
class TenantMetrics:
    """Per-tenant latency under one admission policy."""

    policy: str
    client: str
    median_ttft: float
    p99_ttft: float
    max_tbt: float


def make_multitenant_trace(
    num_heavy: int,
    num_light: int,
    seed: int = 0,
    heavy_qps: float = 8.0,
    light_qps: float = 0.5,
) -> list[Request]:
    """A flood of heavy long-prompt requests plus sparse light ones."""
    rng = np.random.default_rng(seed)
    requests = []
    t = 0.0
    for _ in range(num_heavy):
        t += float(rng.exponential(1.0 / heavy_qps))
        requests.append(
            Request(
                prompt_len=int(rng.integers(2000, 4000)),
                output_len=int(rng.integers(50, 150)),
                arrival_time=t,
                client_id=HEAVY_CLIENT,
            )
        )
    t = 0.5
    for _ in range(num_light):
        t += float(rng.exponential(1.0 / light_qps))
        requests.append(
            Request(
                prompt_len=int(rng.integers(100, 400)),
                output_len=int(rng.integers(20, 60)),
                arrival_time=t,
                client_id=LIGHT_CLIENT,
            )
        )
    return sorted(requests, key=lambda r: r.arrival_time)


def run_fairness_comparison(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    token_budget: int = 512,
) -> list[TenantMetrics]:
    """Per-tenant latency under FCFS vs fair admission."""
    deployment = deployment or mistral_deployment()
    num_heavy = scale.num_requests
    num_light = max(4, scale.num_requests // 8)
    trace = make_multitenant_trace(num_heavy, num_light, seed=scale.seed)

    capacity = deployment.kv_capacity_tokens()
    policies = {"fcfs": VecSarathiScheduler, "fair": VecFairSarathiScheduler}
    exec_model = execution_model_for(deployment)
    rows = []
    for policy, scheduler_cls in policies.items():
        arrays = RequestArrays()
        memory = VecPagedMemory(arrays, capacity, block_size=DEFAULT_BLOCK_SIZE)
        scheduler = scheduler_cls(
            arrays, memory, token_budget=token_budget,
            max_batch_size=DEFAULT_MAX_BATCH_SIZE,
        )
        engine = VectorizedReplicaEngine(exec_model, scheduler)
        result = engine.run(clone_requests(trace))
        for client_id, label in ((HEAVY_CLIENT, "heavy"), (LIGHT_CLIENT, "light")):
            mine = [r for r in result.requests if r.client_id == client_id]
            ttfts = [r.ttft for r in mine]
            tbts = [gap for r in mine for gap in r.tbt_samples]
            rows.append(
                TenantMetrics(
                    policy=policy,
                    client=label,
                    median_ttft=float(np.median(ttfts)),
                    p99_ttft=float(np.percentile(ttfts, 99)),
                    max_tbt=max(tbts) if tbts else 0.0,
                )
            )
    return rows
