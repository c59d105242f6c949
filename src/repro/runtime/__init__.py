"""Sweep execution runtime: an ordered fan-out with checkpointed resume.

See :mod:`repro.runtime.engine` for :func:`map_tasks`, its two paths
(in-process at ``jobs=1``, one process pool above) and its determinism
contract, and :mod:`repro.runtime.ledger` for the fsynced journal that
``--run-dir``/``--resume`` use to skip already-completed cells.  Each
task builds and drops its own execution model.
"""

from repro.runtime.engine import (
    JOBS_ENV,
    RESUME_ENV,
    RUN_DIR_ENV,
    TaskOutcome,
    jobs_from_env,
    map_tasks,
    resume_from_env,
    run_dir_from_env,
    sweep_env,
)
from repro.runtime.ledger import (
    RunLedger,
    decode_outcome,
    encode_outcome,
    sweep_fingerprint,
)

__all__ = [
    "JOBS_ENV",
    "RUN_DIR_ENV",
    "RESUME_ENV",
    "RunLedger",
    "TaskOutcome",
    "decode_outcome",
    "encode_outcome",
    "jobs_from_env",
    "map_tasks",
    "resume_from_env",
    "run_dir_from_env",
    "sweep_env",
    "sweep_fingerprint",
]
