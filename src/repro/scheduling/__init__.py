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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".vectorized": (
        "VecScheduler",
        "DEFAULT_MAX_BATCH_SIZE",
        "DEFAULT_MAX_BATCHED_TOKENS",
    ),
    # plug-in protocol
    ".policy": (
        "SchedulingPolicy",
        "PolicyScheduler",
        "PoolView",
        "MemoryView",
        "BatchDirective",
    ),
    ".registry": (
        "SchedulerSpec",
        "SchedulerBuildContext",
        "register",
        "register_policy",
        "registered_names",
        "resolve",
        "list_specs",
        "unregister",
    ),
    # theory-grounded policies
    ".theory": ("SRPTOraclePolicy", "SRPTPredictedPolicy", "AgingPriorityPolicy"),
})
