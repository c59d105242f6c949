"""High-level API: describe a deployment, pick a scheduler, simulate.

This is the entry point examples, benchmarks and the capacity harness
use.  A ``Deployment`` pins the model/hardware/parallelism triple; a
``ServingConfig`` picks the scheduling policy and its knobs; and
``simulate`` runs a request trace through a freshly built engine.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field, replace

from repro.cluster.fleet import FleetConfig, simulate_fleet
from repro.engine.arrays import RequestArrays
from repro.engine.replica import SimulationResult
from repro.engine.vectorized import VectorizedReplicaEngine
from repro.hardware.gpu import GPUSpec
from repro.memory.capacity import (
    DEFAULT_BLOCK_SIZE,
    PAGED_ACTIVATION_RESERVE_BYTES,
    RESERVATION_ACTIVATION_RESERVE_BYTES,
    kv_token_capacity,
)
from repro.memory.prefix import SharedPrefixStore
from repro.metrics.summary import RunMetrics, summarize
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig
from repro.perf.cache import CachedExecutionModel
from repro.perf.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perf.iteration import ExecutionModel
from repro.scheduling.registry import SchedulerBuildContext, resolve
from repro.scheduling.vectorized import (
    DEFAULT_MAX_BATCH_SIZE,
    VecPagedMemory,
    VecReservationMemory,
    VecScheduler,
)
from repro.types import PreemptionMode, Request, SchedulerKind


@dataclass(frozen=True)
class Deployment:
    """A model running on a specific hardware/parallelism configuration."""

    model: ModelConfig
    gpu: GPUSpec
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    calibration: Calibration = DEFAULT_CALIBRATION

    def execution_model(self) -> ExecutionModel:
        return ExecutionModel(self.model, self.gpu, self.parallel, self.calibration)

    def kv_capacity_tokens(self, reservation_style: bool = False) -> int:
        reserve = (
            RESERVATION_ACTIVATION_RESERVE_BYTES
            if reservation_style
            else PAGED_ACTIVATION_RESERVE_BYTES
        )
        return kv_token_capacity(
            self.model, self.gpu, self.parallel, activation_reserve_bytes=reserve
        )

    @property
    def label(self) -> str:
        return f"{self.model.name}/{self.gpu.name}/{self.parallel.label}"


@dataclass(frozen=True)
class ServingConfig:
    """Scheduler choice and its knobs."""

    # Any name from the scheduler registry (repro.scheduling.registry);
    # the SchedulerKind enum keeps working as a shim whose values are
    # registry names.  The default can be flipped process-wide with the
    # REPRO_SCHEDULER environment variable; the CLI exposes it as
    # --scheduler.
    scheduler: SchedulerKind | str = field(
        default_factory=lambda: os.environ.get(
            "REPRO_SCHEDULER", SchedulerKind.SARATHI
        )
    )
    token_budget: int = 512
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    block_size: int = DEFAULT_BLOCK_SIZE
    # Reservation length for Orca/FT-style memory (defaults to the
    # dataset-appropriate max sequence length).
    reserve_len: int = 8192
    max_inflight_batches: int | None = None
    # For SARATHI_DYNAMIC: the TBT SLO the per-iteration budget targets
    # (None derives the strict SLO from the deployment, §5.1).
    tbt_slo: float | None = None
    # What eviction does under memory pressure (paged schedulers):
    # "recompute" re-prefills from scratch, "swap" parks KV in host
    # memory and pays PCIe transfers instead.  Strings are normalized
    # to the enum at construction time.
    preemption_mode: PreemptionMode | str = PreemptionMode.RECOMPUTE
    # KV prefix caching (paged schedulers only): requests tagged with a
    # prefix_id reuse ref-counted shared blocks published by earlier
    # requests in the same lineage, prefilling only their novel suffix
    # while still paying full-context attention and occupancy.  Off by
    # default — untagged traces behave identically either way, but the
    # default keeps golden traces byte-stable.  Ignored by the
    # reservation schedulers (Orca/FT), whose worst-case contiguous
    # slots cannot share blocks.  Flip process-wide with
    # REPRO_PREFIX_CACHE=1; the CLI exposes it as --prefix-cache.
    prefix_cache: bool = field(
        default_factory=lambda: os.environ.get("REPRO_PREFIX_CACHE", "0").lower()
        in ("1", "true", "on", "yes")
    )

    def __post_init__(self) -> None:
        # Validate at construction time so a bad knob fails where it was
        # written, not several layers down inside scheduler/memory
        # constructors with a stack trace that hides the culprit field.
        if self.token_budget <= 0:
            raise ValueError(
                f"token_budget must be positive, got {self.token_budget}"
            )
        if self.max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.reserve_len <= 0:
            raise ValueError(f"reserve_len must be positive, got {self.reserve_len}")
        if self.max_inflight_batches is not None and self.max_inflight_batches < 1:
            raise ValueError(
                "max_inflight_batches must be >= 1 or None, "
                f"got {self.max_inflight_batches}"
            )
        if self.tbt_slo is not None and self.tbt_slo <= 0:
            raise ValueError(
                f"tbt_slo must be positive or None, got {self.tbt_slo}"
            )
        # Normalize to the enum (raises a naming error on typos); plain
        # strings keep working thanks to PreemptionMode's str mixin.
        object.__setattr__(
            self, "preemption_mode", PreemptionMode.parse(self.preemption_mode)
        )
        # Normalize enum-valued scheduler strings to the enum so legacy
        # `config.scheduler is SchedulerKind.X` comparisons keep
        # working.  Names beyond the enum (plug-in schedulers) stay as
        # strings and are validated — with did-you-mean suggestions —
        # against the registry at build time, after any late
        # registrations.
        if isinstance(self.scheduler, str):
            try:
                object.__setattr__(
                    self, "scheduler", SchedulerKind(self.scheduler)
                )
            except ValueError:
                pass

    def with_budget(self, token_budget: int) -> "ServingConfig":
        return replace(self, token_budget=token_budget)


def execution_model_for(deployment: Deployment) -> CachedExecutionModel:
    """The deployment's memoized execution model (:mod:`repro.perf.cache`).

    Every sweep task builds one and passes it to the
    ``simulate``/``build_engine`` calls it makes, so a capacity search
    shares warm entries across its probes; the model is dropped with
    the task.  Pricing is bit-identical to ``deployment.execution_model()``,
    the unmemoized reference, which callers pass as ``exec_model`` to
    time the raw analytical model.
    """
    return CachedExecutionModel(
        deployment.model, deployment.gpu, deployment.parallel, deployment.calibration
    )


def build_vectorized_scheduler(
    deployment: Deployment,
    config: ServingConfig,
    exec_model: ExecutionModel | None = None,
) -> VecScheduler:
    """Construct a fresh scheduler (and its memory manager) over rows.

    Dispatch goes through the scheduler registry
    (:mod:`repro.scheduling.registry`): any registered name — or the
    :class:`~repro.types.SchedulerKind` shim — builds here; unknown
    names fail with nearest-name suggestions.  ``exec_model`` serves
    SLO-driven schedulers (``sarathi_dynamic``) that price candidate
    iterations, sharing the engine's warm cache.
    """
    spec = resolve(config.scheduler)
    arrays = RequestArrays()
    if spec.memory_family == "reservation":
        capacity = deployment.kv_capacity_tokens(reservation_style=True)
        memory = VecReservationMemory(
            arrays, capacity, reserve_len=config.reserve_len
        )
    else:
        capacity = deployment.kv_capacity_tokens(reservation_style=False)
        store = (
            SharedPrefixStore(block_size=config.block_size)
            if config.prefix_cache
            else None
        )
        memory = VecPagedMemory(
            arrays, capacity, block_size=config.block_size, prefix_store=store
        )
    context = SchedulerBuildContext(
        deployment=deployment,
        config=config,
        arrays=arrays,
        memory=memory,
        kv_bytes_per_token=deployment.model.kv_bytes_per_token,
        _exec_model=exec_model,
        _exec_model_factory=lambda: execution_model_for(deployment),
    )
    return spec.build(context)


def build_engine(
    deployment: Deployment,
    config: ServingConfig,
    exec_model: ExecutionModel | None = None,
) -> VectorizedReplicaEngine:
    """A fresh engine ready to ``run`` a request trace.

    Passing ``exec_model`` overrides the default memoized model — the
    caller owns it (typically to share one warm cache across engines).
    """
    if exec_model is None:
        exec_model = execution_model_for(deployment)
    return VectorizedReplicaEngine(
        exec_model,
        build_vectorized_scheduler(deployment, config, exec_model=exec_model),
        max_inflight_batches=config.max_inflight_batches,
    )


def clone_requests(requests: list[Request]) -> list[Request]:
    """Copy a trace so runs never share mutable request state.

    ``token_times`` is a ``Request``'s only mutable field; each clone
    gets its own ``array('d')`` copy.  The other fields are immutable
    scalars, enums or ``None``, copied slot by slot (``copy.copy``
    of a slotted class is slower).
    """
    new, names = object.__new__, Request.__slots__
    clones = []
    for request in requests:
        clone = new(Request)
        for name in names:
            setattr(clone, name, getattr(request, name))
        clone.token_times = array("d", request.token_times)
        clones.append(clone)
    return clones


def simulate(
    deployment: Deployment,
    config: ServingConfig,
    requests: list[Request],
    max_time: float | None = None,
    exec_model: ExecutionModel | None = None,
) -> tuple[SimulationResult, RunMetrics]:
    """Run a trace through a fresh engine and summarize it.

    This is the 1-replica special case of the fleet simulator
    (:func:`repro.cluster.fleet.simulate_fleet`): one replica, no
    faults, unbounded admission — which reduces, event for event, to
    ``run`` on a fresh engine.  The input requests are
    cloned first, so the same trace can be replayed across schedulers
    and loads.  ``exec_model`` (see ``execution_model_for``) shares
    one — typically cached — model across calls.
    """
    fleet_result, metrics = simulate_fleet(
        deployment,
        config,
        requests,
        FleetConfig(num_replicas=1),
        max_time=max_time,
        exec_model=exec_model,
    )
    return fleet_result.merged(), metrics
