"""Ablations of the design choices DESIGN.md calls out.

Beyond the paper's own Table 4, these isolate:

* the **token budget** value — the central knob (§4.3);
* **tile-quantization awareness** — budget/chunk alignment to the GPU
  matmul tile;
* the **memory allocator** — paged vs worst-case reservation under the
  same (Sarathi) scheduling policy;
* **static vs dynamic budgets** — the paper's future-work extension.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import (
    Deployment,
    ServingConfig,
    build_engine,
    clone_requests,
    execution_model_for,
)
from repro.engine.arrays import RequestArrays
from repro.engine.vectorized import VectorizedReplicaEngine
from repro.experiments.common import DEFAULT, Scale, mistral_deployment, yi_deployment
from repro.memory.capacity import DEFAULT_BLOCK_SIZE
from repro.metrics.summary import summarize
from repro.perf.calibration import Calibration
from repro.perf.iteration import ExecutionModel
from repro.scheduling.vectorized import (
    DEFAULT_MAX_BATCH_SIZE,
    VecPagedMemory,
    VecReservationMemory,
    VecSarathiScheduler,
)
from repro.types import TokenWork
from repro.workload.datasets import SHAREGPT4, generate_requests


# ----------------------------------------------------------------------
# Token budget sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BudgetSweepPoint:
    """Latency/throughput at one token-budget setting."""

    token_budget: int
    p99_tbt: float
    median_ttft: float
    makespan: float


def run_budget_sweep(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    budgets: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096),
    qps: float = 2.0,
) -> list[BudgetSweepPoint]:
    """TBT/TTFT across token budgets at a fixed load."""
    deployment = deployment or mistral_deployment()
    trace = generate_requests(
        SHAREGPT4, num_requests=scale.num_requests, qps=qps, seed=scale.seed
    )
    points = []
    for budget in budgets:
        config = ServingConfig(scheduler="sarathi", token_budget=budget)
        engine = build_engine(deployment, config)
        result = engine.run(clone_requests(trace))
        metrics = summarize(result)
        points.append(
            BudgetSweepPoint(
                token_budget=budget,
                p99_tbt=metrics.p99_tbt,
                median_ttft=metrics.median_ttft,
                makespan=metrics.makespan,
            )
        )
    return points


# ----------------------------------------------------------------------
# Tile quantization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TileQuantizationPoint:
    """Prefill math time just below/above a tile boundary."""

    chunk: int
    with_tiles: float
    without_tiles: float


def run_tile_quantization(
    deployment: Deployment | None = None,
    boundary: int = 256,
) -> list[TileQuantizationPoint]:
    """The §4.3 effect: chunk ``boundary+1`` vs ``boundary``."""
    deployment = deployment or yi_deployment()
    with_tiles = ExecutionModel(
        deployment.model,
        deployment.gpu,
        deployment.parallel,
        Calibration(model_tile_quantization=True),
    )
    without = ExecutionModel(
        deployment.model,
        deployment.gpu,
        deployment.parallel,
        Calibration(model_tile_quantization=False),
    )
    points = []
    for chunk in (boundary, boundary + 1, 2 * boundary, 2 * boundary + 1):
        work = [TokenWork.prefill_chunk(chunk)]
        points.append(
            TileQuantizationPoint(
                chunk=chunk,
                with_tiles=with_tiles.iteration_time(work).total,
                without_tiles=without.iteration_time(work).total,
            )
        )
    return points


# ----------------------------------------------------------------------
# Memory allocator under a fixed policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllocatorPoint:
    """Sarathi under paged vs reservation memory."""

    allocator: str
    median_ttft: float
    p99_scheduling_delay: float
    makespan: float


def run_allocator_comparison(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 2.5,
    token_budget: int = 512,
    reserve_len: int = 8192,
) -> list[AllocatorPoint]:
    """Hold the scheduler fixed (Sarathi) and swap the allocator.

    Reservation-style admission caps the number of concurrently
    admitted requests far below paged admission, shrinking decode batch
    sizes and inflating queueing under load — the §5.1 explanation of
    Orca's disadvantage, isolated from its scheduling policy.  Measured
    on Yi-34B under a sharegpt burst, where dozens of requests decode
    concurrently and worst-case reservations actually bind.
    """
    deployment = deployment or yi_deployment()
    trace = generate_requests(
        SHAREGPT4, num_requests=scale.num_requests, qps=qps, seed=scale.seed
    )
    paged_capacity = deployment.kv_capacity_tokens(reservation_style=False)
    reserved_capacity = deployment.kv_capacity_tokens(reservation_style=True)
    allocators = {
        "paged": lambda arrays: VecPagedMemory(
            arrays, paged_capacity, block_size=DEFAULT_BLOCK_SIZE
        ),
        "reservation": lambda arrays: VecReservationMemory(
            arrays, reserved_capacity, reserve_len=reserve_len
        ),
    }
    exec_model = execution_model_for(deployment)
    points = []
    for name, make_memory in allocators.items():
        arrays = RequestArrays()
        scheduler = VecSarathiScheduler(
            arrays, make_memory(arrays), token_budget=token_budget,
            max_batch_size=DEFAULT_MAX_BATCH_SIZE,
        )
        engine = VectorizedReplicaEngine(exec_model, scheduler)
        result = engine.run(clone_requests(trace))
        metrics = summarize(result)
        points.append(
            AllocatorPoint(
                allocator=name,
                median_ttft=metrics.median_ttft,
                p99_scheduling_delay=metrics.p99_scheduling_delay,
                makespan=metrics.makespan,
            )
        )
    return points


# ----------------------------------------------------------------------
# Static vs dynamic token budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DynamicBudgetPoint:
    """One scheduler variant's operating point at a fixed load."""

    variant: str
    p99_tbt: float
    median_ttft: float
    mean_budget: float


def run_dynamic_budget_comparison(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    qps: float = 2.0,
) -> list[DynamicBudgetPoint]:
    """Static 512-token budget vs the SLO-driven dynamic budget."""
    deployment = deployment or mistral_deployment()
    trace = generate_requests(
        SHAREGPT4, num_requests=scale.num_requests, qps=qps, seed=scale.seed
    )
    variants = {
        "static-512": ServingConfig(
            scheduler="sarathi", token_budget=512
        ),
        "dynamic": ServingConfig(scheduler="sarathi_dynamic"),
    }
    points = []
    for name, config in variants.items():
        engine = build_engine(deployment, config)
        result = engine.run(clone_requests(trace))
        metrics = summarize(result)
        history = getattr(engine.scheduler, "budget_history", [])
        mean_budget = sum(history) / len(history) if history else config.token_budget
        points.append(
            DynamicBudgetPoint(
                variant=name,
                p99_tbt=metrics.p99_tbt,
                median_ttft=metrics.median_ttft,
                mean_budget=mean_budget,
            )
        )
    return points
