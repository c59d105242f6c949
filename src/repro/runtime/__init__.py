"""Sweep execution runtime: supervised fan-out and resume.

See :mod:`repro.runtime.engine` for the worker model and determinism
contract, :mod:`repro.runtime.supervisor` for crash/hang recovery and
quarantine, :mod:`repro.runtime.ledger` for the checkpointed-resume
journal, and :mod:`repro.runtime.chaos` for deterministic fault
injection.  Experiments use :func:`map_tasks` for the fan-out; each
task builds and drops its own execution model.
"""

from repro.runtime.chaos import CHAOS_ENV, ChaosConfig, chaos_from_env, corrupt_file
from repro.runtime.engine import (
    JOBS_ENV,
    MAX_RETRIES_ENV,
    RESUME_ENV,
    RUN_DIR_ENV,
    TASK_TIMEOUT_ENV,
    SweepReport,
    jobs_from_env,
    map_tasks,
    max_retries_from_env,
    resume_from_env,
    run_dir_from_env,
    sweep_env,
    task_timeout_from_env,
)
from repro.runtime.ledger import (
    RunLedger,
    decode_outcome,
    encode_outcome,
    sweep_fingerprint,
)
from repro.runtime.supervisor import (
    SupervisorPolicy,
    SweepFailedError,
    TaskFailure,
    TaskOutcome,
    run_supervised,
)

__all__ = [
    "JOBS_ENV",
    "RUN_DIR_ENV",
    "RESUME_ENV",
    "TASK_TIMEOUT_ENV",
    "MAX_RETRIES_ENV",
    "CHAOS_ENV",
    "ChaosConfig",
    "RunLedger",
    "SupervisorPolicy",
    "SweepFailedError",
    "SweepReport",
    "TaskFailure",
    "TaskOutcome",
    "chaos_from_env",
    "corrupt_file",
    "decode_outcome",
    "encode_outcome",
    "jobs_from_env",
    "map_tasks",
    "max_retries_from_env",
    "resume_from_env",
    "run_dir_from_env",
    "run_supervised",
    "sweep_env",
    "sweep_fingerprint",
    "task_timeout_from_env",
]
