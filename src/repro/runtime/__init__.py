"""Sweep execution runtime: an ordered fan-out with checkpointed resume.

See :mod:`repro.runtime.engine` for :func:`map_tasks`, its two paths
(in-process at ``jobs=1``, one process pool above) and its determinism
contract, and :mod:`repro.runtime.ledger` for the fsynced journal that
``--run-dir``/``--resume`` use to skip already-completed cells.  Each
task builds and drops its own execution model.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": (
        "JOBS_ENV",
        "RUN_DIR_ENV",
        "RESUME_ENV",
        "TaskOutcome",
        "jobs_from_env",
        "map_tasks",
        "resume_from_env",
        "run_dir_from_env",
        "sweep_env",
    ),
    ".ledger": ("RunLedger", "decode_outcome", "encode_outcome", "sweep_fingerprint"),
})
