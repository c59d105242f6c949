"""Scheduler registry: string names → scheduler factories.

The construction surface for every scheduler in the library.  A
:class:`SchedulerSpec` bundles a canonical name with a factory and the
memory family the policy needs.  ``repro.api.build_vectorized_scheduler``
dispatches through :func:`resolve`; a scheduler's registry name is the
only name it has.

Third-party policies register themselves without touching engine
internals::

    from repro.scheduling.registry import register_policy

    class Shortest(SchedulingPolicy):
        name = "shortest"
        def compose_batch(self, pool): ...

    register_policy("shortest", lambda ctx: Shortest(),
                    description="toy shortest-first policy")

after which ``ServingConfig(scheduler="shortest")`` — and the
``--scheduler`` CLI flag and the leaderboard experiment — all accept
the new name.  See
DESIGN.md §12 for the full protocol contract.

Determinism requirement: factories must be pure functions of the build
context (no wall-clock, no unseeded randomness) so the same config
builds a bit-identical scheduler everywhere, including sweep workers.
Note that sweep worker processes import ``repro`` fresh: registrations
performed imperatively in the parent (e.g. inside a test) are visible
to in-process runs and ``--jobs 1`` sweeps, but not to spawned workers
— package your policy as an importable module for parallel sweeps.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # imported lazily at runtime: repro.api imports us
    from repro.api import Deployment, ServingConfig
    from repro.engine.arrays import RequestArrays
    from repro.perf.iteration import ExecutionModel
    from repro.scheduling.policy import SchedulingPolicy
    from repro.scheduling.vectorized import VecScheduler

# Memory families a spec can request: "paged" gets a VecPagedMemory
# (block-granular, preemptible, prefix-cache capable); "reservation"
# gets a VecReservationMemory (worst-case contiguous slots,
# Orca/FasterTransformer style).
MEMORY_FAMILIES = ("paged", "reservation")


@dataclass
class SchedulerBuildContext:
    """Everything a scheduler factory may draw on.

    ``arrays`` is the struct-of-arrays request store shared by the
    scheduler and its row-indexed memory manager (pre-built to the
    spec's declared family).  ``execution_model()`` is lazy — only
    SLO-driven schedulers that price candidate iterations (e.g.
    ``sarathi_dynamic``) should call it, so plain policies never pay
    for model construction.
    """

    deployment: "Deployment"
    config: "ServingConfig"
    arrays: "RequestArrays"
    memory: Any
    kv_bytes_per_token: int
    _exec_model: "ExecutionModel | None" = None
    _exec_model_factory: Callable[[], "ExecutionModel"] | None = None

    def execution_model(self) -> "ExecutionModel":
        """The deployment's (possibly cached) execution model, memoized."""
        if self._exec_model is None:
            if self._exec_model_factory is None:
                raise RuntimeError(
                    "no execution model available in this build context"
                )
            self._exec_model = self._exec_model_factory()
        return self._exec_model


@dataclass(frozen=True)
class SchedulerSpec:
    """One registered scheduler: a name, a factory, a memory family."""

    name: str
    build: Callable[[SchedulerBuildContext], "VecScheduler"]
    description: str = ""
    memory_family: str = "paged"

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").replace("-", "").isalnum():
            raise ValueError(f"invalid scheduler name {self.name!r}")
        if self.memory_family not in MEMORY_FAMILIES:
            raise ValueError(
                f"unknown memory family {self.memory_family!r}; "
                f"choose one of {', '.join(MEMORY_FAMILIES)}"
            )


_REGISTRY: dict[str, SchedulerSpec] = {}


def register(spec: SchedulerSpec, replace: bool = False) -> SchedulerSpec:
    """Add a spec to the registry (``replace=True`` to overwrite)."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(
            f"scheduler {spec.name!r} is already registered; "
            "pass replace=True to overwrite"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec (tests use this to clean up toy registrations)."""
    if _REGISTRY.pop(name, None) is None:
        raise KeyError(name)


def resolve(name: str) -> SchedulerSpec:
    """Look up a spec by name, with did-you-mean help."""
    spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    known = registered_names()
    hints = difflib.get_close_matches(name, known, n=3)
    suggestion = f" — did you mean {', '.join(repr(h) for h in hints)}?" if hints else ""
    raise ValueError(
        f"unknown scheduler {name!r}{suggestion} "
        f"(registered: {', '.join(known)})"
    )


def registered_names() -> list[str]:
    """Canonical scheduler names, in registration order (built-ins first)."""
    return list(_REGISTRY)


def list_specs() -> list[SchedulerSpec]:
    """All registered specs, in registration order."""
    return list(_REGISTRY.values())


def register_policy(
    name: str,
    policy_factory: Callable[[SchedulerBuildContext], "SchedulingPolicy"],
    description: str = "",
    memory_family: str = "paged",
    replace: bool = False,
) -> SchedulerSpec:
    """Register a :class:`~repro.scheduling.policy.SchedulingPolicy`.

    The common case for plug-in authors: supply a factory for the
    *policy* object alone and this wraps it in the
    :class:`~repro.scheduling.policy.PolicyScheduler` adapter, wired to
    the config's token budget, batch-size cap and preemption mode.
    """

    def build(ctx: SchedulerBuildContext) -> "VecScheduler":
        from repro.scheduling.policy import PolicyScheduler

        return PolicyScheduler(
            policy_factory(ctx),
            ctx.arrays,
            ctx.memory,
            token_budget=ctx.config.token_budget,
            max_batch_size=ctx.config.max_batch_size,
            preemption_mode=ctx.config.preemption_mode,
            kv_bytes_per_token=ctx.kv_bytes_per_token,
        )

    return register(
        SchedulerSpec(
            name=name,
            build=build,
            description=description,
            memory_family=memory_family,
        ),
        replace=replace,
    )


# ----------------------------------------------------------------------
# Built-in schedulers (the paper's four baselines + ablations).
# Factories import their classes lazily so importing the registry never
# drags in numpy or the perf model.
# ----------------------------------------------------------------------
def _build_faster_transformer(ctx: SchedulerBuildContext):
    from repro.scheduling.vectorized import VecFasterTransformerScheduler

    return VecFasterTransformerScheduler(
        ctx.arrays, ctx.memory, ctx.config.max_batch_size
    )


def _build_orca(ctx: SchedulerBuildContext):
    from repro.scheduling.vectorized import VecOrcaScheduler

    return VecOrcaScheduler(ctx.arrays, ctx.memory, ctx.config.max_batch_size)


def _build_vllm(ctx: SchedulerBuildContext):
    from repro.scheduling.vectorized import VecVLLMScheduler

    return VecVLLMScheduler(
        ctx.arrays,
        ctx.memory,
        ctx.config.max_batch_size,
        preemption_mode=ctx.config.preemption_mode,
        kv_bytes_per_token=ctx.kv_bytes_per_token,
    )


def _build_sarathi(ctx: SchedulerBuildContext):
    from repro.scheduling.vectorized import VecSarathiScheduler

    return VecSarathiScheduler(
        ctx.arrays,
        ctx.memory,
        token_budget=ctx.config.token_budget,
        max_batch_size=ctx.config.max_batch_size,
        preemption_mode=ctx.config.preemption_mode,
        kv_bytes_per_token=ctx.kv_bytes_per_token,
    )


def _build_sarathi_dynamic(ctx: SchedulerBuildContext):
    from repro.perf.profiler import derive_slo
    from repro.scheduling.vectorized import VecDynamicSarathiScheduler

    exec_model = ctx.execution_model()
    slo = ctx.config.tbt_slo
    if slo is None:
        slo = derive_slo(exec_model, strict=True)
    return VecDynamicSarathiScheduler(
        ctx.arrays,
        ctx.memory,
        exec_model=exec_model,
        tbt_slo=slo,
        max_batch_size=ctx.config.max_batch_size,
    )


def _build_chunked_only(ctx: SchedulerBuildContext):
    from repro.scheduling.vectorized import VecChunkedPrefillsOnlyScheduler

    return VecChunkedPrefillsOnlyScheduler(
        ctx.arrays,
        ctx.memory,
        token_budget=ctx.config.token_budget,
        max_batch_size=ctx.config.max_batch_size,
    )


def _build_hybrid_only(ctx: SchedulerBuildContext):
    from repro.scheduling.vectorized import VecSarathiScheduler

    core = VecSarathiScheduler(
        ctx.arrays,
        ctx.memory,
        token_budget=ctx.config.token_budget,
        max_batch_size=ctx.config.max_batch_size,
        chunk_prefills=False,
        preemption_mode=ctx.config.preemption_mode,
        kv_bytes_per_token=ctx.kv_bytes_per_token,
    )
    core.name = "hybrid-batching-only"
    return core


def _register_builtins() -> None:
    register(SchedulerSpec(
        name="faster_transformer",
        build=_build_faster_transformer,
        memory_family="reservation",
        description="Request-level batching (Algorithm 1): a batch runs "
        "to full completion before the next forms.",
    ))
    register(SchedulerSpec(
        name="orca",
        build=_build_orca,
        memory_family="reservation",
        description="Iteration-level batching with eager full prefills "
        "and reservation-style memory (Orca, §2.5).",
    ))
    register(SchedulerSpec(
        name="vllm",
        build=_build_vllm,
        description="Prefill-prioritizing segregated batches over paged "
        "KV memory (Algorithm 2).",
    ))
    register(SchedulerSpec(
        name="sarathi",
        build=_build_sarathi,
        description="Stall-free batching with chunked prefills under a "
        "fixed token budget (Algorithm 3, the paper's contribution).",
    ))
    register(SchedulerSpec(
        name="sarathi_dynamic",
        build=_build_sarathi_dynamic,
        description="Sarathi with an SLO-driven per-iteration token "
        "budget priced on the execution model (§5.1).",
    ))
    register(SchedulerSpec(
        name="chunked_prefills_only",
        build=_build_chunked_only,
        description="Ablation: chunked prefills without hybrid batching "
        "— decode-only and prefill-only iterations stay segregated "
        "(Table 4).",
    ))
    register(SchedulerSpec(
        name="hybrid_batching_only",
        build=_build_hybrid_only,
        description="Ablation: hybrid (mixed) batches without chunking "
        "— whole prompts ride along with decodes (Table 4).",
    ))

    # The theory-grounded policies of repro.scheduling.theory.  Their
    # factories import it on first build, so listing or resolving names
    # never loads the plug-in machinery.
    register_policy(
        "srpt_oracle",
        _theory_policy("SRPTOraclePolicy"),
        description="SRPT with oracle-known output lengths — the "
        "mean-latency upper bound (Optimal-Scheduling paper).",
    )
    register_policy(
        "srpt_predicted",
        _theory_policy("SRPTPredictedPolicy"),
        # ±30% is theory.DEFAULT_PREDICTION_ERROR.
        description="SRPT under a bucketed output-length predictor with "
        "±30% deterministic error.",
    )
    register_policy(
        "fcfs_aging",
        _theory_policy("AgingPriorityPolicy"),
        description="Tenant-priority FCFS with linear starvation aging "
        "over client_id priority classes.",
    )


def _theory_policy(
    class_name: str,
) -> Callable[[SchedulerBuildContext], "SchedulingPolicy"]:
    """A factory for one ``repro.scheduling.theory`` policy, with default knobs."""

    def build(ctx: SchedulerBuildContext) -> "SchedulingPolicy":
        from repro.scheduling import theory

        return getattr(theory, class_name)()

    return build


_register_builtins()
