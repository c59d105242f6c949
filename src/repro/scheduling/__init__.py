"""Scheduling: the paper's policies, ablations, and plug-ins.

Every built-in scheduler — Sarathi-Serve (Algorithm 3), its dynamic
and fair variants, vLLM, Orca, FasterTransformer and the Table 4
ablations — lives in :mod:`repro.scheduling.vectorized`.  Third-party
policies enter through the plug-in protocol
(:mod:`repro.scheduling.policy`) and the registry
(:mod:`repro.scheduling.registry`); the theory-grounded baselines
(SRPT oracle/predicted, priority+aging) live in
:mod:`repro.scheduling.theory`.
"""

from repro.scheduling.policy import (
    BatchDirective,
    MemoryView,
    PolicyScheduler,
    PoolView,
    SchedulingPolicy,
)
from repro.scheduling.registry import (
    SchedulerBuildContext,
    SchedulerSpec,
    list_specs,
    register,
    register_policy,
    registered_names,
    resolve,
    scheduler_name,
    unregister,
)
from repro.scheduling.theory import (
    AgingPriorityPolicy,
    SRPTOraclePolicy,
    SRPTPredictedPolicy,
)
from repro.scheduling.vectorized import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_BATCHED_TOKENS,
    VecScheduler,
)

__all__ = [
    "VecScheduler",
    "DEFAULT_MAX_BATCH_SIZE",
    "DEFAULT_MAX_BATCHED_TOKENS",
    # plug-in protocol
    "SchedulingPolicy",
    "PolicyScheduler",
    "PoolView",
    "MemoryView",
    "BatchDirective",
    # registry
    "SchedulerSpec",
    "SchedulerBuildContext",
    "register",
    "register_policy",
    "registered_names",
    "resolve",
    "scheduler_name",
    "list_specs",
    "unregister",
    # theory-grounded policies
    "SRPTOraclePolicy",
    "SRPTPredictedPolicy",
    "AgingPriorityPolicy",
]
