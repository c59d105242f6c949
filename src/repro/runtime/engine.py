"""Fault-tolerant parallel sweep execution engine.

Capacity figures and fleet grids are embarrassingly parallel: dozens of
independent (deployment, scheduler, dataset, SLO) cells, each a pile of
deterministic simulations.  This module fans those cells out across
**supervised** worker processes while keeping the results
*bit-identical* to a serial run:

* tasks carry canonical indices and results are collected by index, so
  the output never depends on completion order, retries, or which
  worker ran what;
* every task carries its own seeds inside its spec, so a task computes
  the same result in any process on any attempt;
* tasks share no state: each builds its own execution model
  (:func:`repro.api.execution_model_for`) and drops it on return, so no
  pricing state outlives a task, crosses a process or lands on disk.

Unlike a bare ``pool.map``, worker death, hangs and poison tasks are
survivable events (:mod:`repro.runtime.supervisor`): dead/wedged pools
are respawned with capped backoff and the affected tasks retried;
tasks that keep failing are quarantined into structured
:class:`TaskFailure` records instead of aborting the sweep.  With a
``run_dir``, every completed outcome is journaled to an fsynced ledger
(:mod:`repro.runtime.ledger`) keyed by the sweep's fingerprint, so
``resume=True`` skips already-completed cells bit-identically after a
crash or Ctrl-C.  The recovery paths themselves are exercised by the
deterministic chaos harness (:mod:`repro.runtime.chaos`).

``jobs=1`` (the default) runs tasks in-process through the *same*
journaling code path, which is both the fallback on single-core
machines and the reference the parallel path is golden-tested against.
Chaos injection and task timeouts need worker processes, so they apply
only at ``jobs >= 2``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as traceback_module
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.runtime.chaos import CHAOS_ENV, ChaosConfig, chaos_from_env
from repro.runtime.ledger import RunLedger, sweep_fingerprint
from repro.runtime.supervisor import (
    SupervisorPolicy,
    SweepFailedError,
    TaskFailure,
    TaskOutcome,
    run_supervised,
)

# Environment knobs mirrored by the CLI's sweep flags.
JOBS_ENV = "REPRO_JOBS"
RUN_DIR_ENV = "REPRO_RUN_DIR"
RESUME_ENV = "REPRO_RESUME"
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

DEFAULT_MAX_RETRIES = 2


def jobs_from_env(default: int = 1) -> int:
    """Worker-process count from ``REPRO_JOBS`` (>= 1)."""
    value = os.environ.get(JOBS_ENV, "").strip()
    if not value:
        return default
    try:
        jobs = int(value)
    except ValueError:
        raise ValueError(f"{JOBS_ENV} must be an integer, got {value!r}") from None
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be >= 1, got {jobs}")
    return jobs


def run_dir_from_env() -> Path | None:
    """Run-ledger directory from ``REPRO_RUN_DIR``."""
    value = os.environ.get(RUN_DIR_ENV, "").strip()
    return Path(value) if value else None


def resume_from_env() -> bool:
    """Whether ``REPRO_RESUME`` asks for ledger resume."""
    value = os.environ.get(RESUME_ENV, "").strip().lower()
    return value in ("1", "true", "yes", "on")


def task_timeout_from_env() -> float | None:
    """Per-task timeout (seconds) from ``REPRO_TASK_TIMEOUT``."""
    value = os.environ.get(TASK_TIMEOUT_ENV, "").strip()
    if not value:
        return None
    try:
        timeout = float(value)
    except ValueError:
        raise ValueError(
            f"{TASK_TIMEOUT_ENV} must be a number, got {value!r}"
        ) from None
    if timeout <= 0:
        raise ValueError(f"{TASK_TIMEOUT_ENV} must be positive, got {timeout}")
    return timeout


def max_retries_from_env(default: int = DEFAULT_MAX_RETRIES) -> int:
    """Per-task retry budget from ``REPRO_MAX_RETRIES`` (>= 0)."""
    value = os.environ.get(MAX_RETRIES_ENV, "").strip()
    if not value:
        return default
    try:
        retries = int(value)
    except ValueError:
        raise ValueError(
            f"{MAX_RETRIES_ENV} must be an integer, got {value!r}"
        ) from None
    if retries < 0:
        raise ValueError(f"{MAX_RETRIES_ENV} must be >= 0, got {retries}")
    return retries


@contextmanager
def sweep_env(
    jobs: int | None = None,
    run_dir: str | Path | None = None,
    resume: bool | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
    chaos: str | ChaosConfig | None = None,
):
    """Temporarily pin the sweep knobs in the environment.

    The figure registry's runners read the ``REPRO_*`` sweep variables
    when not passed explicit arguments, so the CLI can thread --jobs,
    --run-dir, --resume, --task-timeout, --max-retries and --chaos
    through ``reproduce_figure`` without changing every runner's
    signature.
    """
    values = {
        JOBS_ENV: str(jobs) if jobs is not None else None,
        RUN_DIR_ENV: str(run_dir) if run_dir is not None else None,
        RESUME_ENV: ("1" if resume else "0") if resume is not None else None,
        TASK_TIMEOUT_ENV: str(task_timeout) if task_timeout is not None else None,
        MAX_RETRIES_ENV: str(max_retries) if max_retries is not None else None,
        CHAOS_ENV: (
            None if chaos is None
            else chaos if isinstance(chaos, str)
            else f"kill={chaos.kill_rate},hang={chaos.hang_rate},"
                 f"hang_seconds={chaos.hang_seconds},seed={chaos.seed},"
                 f"attempts={chaos.max_attempt}"
        ),
    }
    saved = {key: os.environ.get(key) for key in values}
    try:
        for key, value in values.items():
            if value is not None:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# ----------------------------------------------------------------------
# The fan-out engine
# ----------------------------------------------------------------------
@dataclass
class SweepReport:
    """Everything one ``map_tasks`` call did, in canonical task order.

    ``outcomes`` holds every *completed* task (fresh or ledger-resumed)
    sorted by index; ``failures`` holds tasks quarantined after
    exhausting their retries.  ``interrupted`` marks a partial report
    cut short by Ctrl-C/SIGTERM — the journaled cells are safe in the
    ledger and a ``resume`` run completes only what is missing.
    """

    outcomes: list[TaskOutcome] = field(default_factory=list)
    failures: list[TaskFailure] = field(default_factory=list)
    jobs: int = 1
    run_dir: Path | None = None
    fingerprint: str | None = None
    wall_seconds: float = 0.0
    interrupted: bool = False
    num_resumed: int = 0
    num_retries: int = 0
    num_respawns: int = 0

    @property
    def values(self) -> list[Any]:
        return [outcome.value for outcome in self.outcomes]

    @property
    def ok(self) -> bool:
        """Every task completed: nothing failed, nothing cut short."""
        return not self.failures and not self.interrupted

    @property
    def num_workers(self) -> int:
        return len({outcome.worker_pid for outcome in self.outcomes})

    def worker_rows(self) -> list[dict[str, Any]]:
        """Per-task timing rows for telemetry export."""
        return [
            {
                "task_index": outcome.index,
                "worker_pid": outcome.worker_pid,
                "task_seconds": outcome.seconds,
                "attempt": outcome.attempt,
                "resumed": outcome.resumed,
                "jobs": self.jobs,
            }
            for outcome in self.outcomes
        ]

    def failure_rows(self) -> list[dict[str, Any]]:
        """Per-quarantined-task rows for telemetry export."""
        return [
            {
                "task_index": failure.index,
                "kind": failure.kind,
                "error": failure.error,
                "attempts": failure.attempts,
                "worker_pid": failure.worker_pid,
                "jobs": self.jobs,
            }
            for failure in self.failures
        ]


def _run_one(fn: Callable[[Any], Any], payload: tuple[int, Any]) -> TaskOutcome:
    index, item = payload
    start = time.perf_counter()
    value = fn(item)
    return TaskOutcome(
        index=index,
        value=value,
        worker_pid=os.getpid(),
        seconds=time.perf_counter() - start,
    )


@contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt so both unwind identically.

    Only the main thread may install signal handlers; elsewhere this is
    a no-op and SIGTERM keeps its default disposition.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _handler(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run_serial(
    fn: Callable[[Any], Any],
    tasks: list[tuple[int, Any]],
    on_complete: Callable[[TaskOutcome], None],
) -> tuple[dict[int, TaskOutcome], list[TaskFailure], bool]:
    """The in-process reference path: same journaling, no pool.

    A failing task is quarantined after one attempt (retrying a pure
    function in the same process cannot change the answer); Ctrl-C
    returns the completed prefix.
    """
    outcomes: dict[int, TaskOutcome] = {}
    failures: list[TaskFailure] = []
    interrupted = False
    for index, item in tasks:
        try:
            outcome = _run_one(fn, (index, item))
        except KeyboardInterrupt:
            interrupted = True
            break
        except Exception as exc:
            failures.append(
                TaskFailure(
                    index=index,
                    error=repr(exc),
                    traceback=traceback_module.format_exc(),
                    attempts=1,
                    worker_pid=os.getpid(),
                    kind="exception",
                )
            )
            continue
        outcomes[index] = outcome
        on_complete(outcome)
    return outcomes, failures, interrupted


def map_tasks(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: int | None = None,
    run_dir: str | Path | None = None,
    resume: bool | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
    chaos: ChaosConfig | str | None = None,
    strict: bool = True,
    backoff_base: float = 0.1,
) -> SweepReport:
    """Run ``fn`` over ``items`` under supervision; survives worker faults.

    Results always come back in item order — the parallel path is
    output-equivalent to the serial one whenever ``fn`` is a pure
    function of its item (every sweep task is: specs carry their own
    seeds, and each task builds its own execution model).
    Worker death and hangs (``task_timeout``) are retried up to
    ``max_retries`` times; persistent failures are quarantined into
    ``report.failures``.  ``strict=True`` (the default) raises
    :class:`SweepFailedError` when anything was quarantined;
    ``strict=False`` returns the degraded report instead.

    With ``run_dir``, completed outcomes are journaled to an fsynced
    ledger named by the sweep fingerprint; ``resume=True`` replays
    recorded cells bit-identically and computes only what is missing.
    A Ctrl-C/SIGTERM persists the ledger and returns a partial report
    with ``interrupted=True`` (never an exception), so callers can
    stop cleanly and users can resume.

    ``fn`` and each item must be picklable (module-level function,
    dataclass specs) when ``jobs > 1``.  All knobs default to their
    ``REPRO_*`` environment variables.
    """
    if jobs is None:
        jobs = jobs_from_env()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if run_dir is None:
        run_dir = run_dir_from_env()
    run_dir = Path(run_dir) if run_dir is not None else None
    if resume is None:
        resume = resume_from_env()
    if task_timeout is None:
        task_timeout = task_timeout_from_env()
    if max_retries is None:
        max_retries = max_retries_from_env()
    if chaos is None:
        chaos = chaos_from_env()
    elif isinstance(chaos, str):
        chaos = ChaosConfig.parse(chaos)

    tasks = list(enumerate(items))
    fingerprint: str | None = None
    ledger: RunLedger | None = None
    recorded: dict[int, TaskOutcome] = {}
    if run_dir is not None:
        fingerprint = sweep_fingerprint(fn, [item for _, item in tasks])
        ledger = RunLedger(run_dir, fingerprint)
        recorded = ledger.start(num_tasks=len(tasks), resume=resume)

    def journal(outcome: TaskOutcome) -> None:
        if ledger is not None:
            ledger.record(outcome)

    remaining = [(index, item) for index, item in tasks if index not in recorded]
    start = time.perf_counter()
    try:
        with _sigterm_as_interrupt():
            if jobs == 1 or len(remaining) <= 1:
                outcomes, failures, interrupted = _run_serial(fn, remaining, journal)
                num_retries = num_respawns = 0
            else:
                policy = SupervisorPolicy(
                    task_timeout=task_timeout,
                    max_retries=max_retries,
                    backoff_base=backoff_base,
                    chaos=chaos,
                )
                run = run_supervised(
                    fn,
                    remaining,
                    jobs=jobs,
                    policy=policy,
                    on_complete=journal,
                )
                outcomes, failures = run.outcomes, run.failures
                interrupted = run.interrupted
                num_retries, num_respawns = run.num_retries, run.num_respawns
    finally:
        if ledger is not None:
            ledger.close()

    outcomes.update(recorded)
    report = SweepReport(
        outcomes=[outcomes[index] for index in sorted(outcomes)],
        failures=sorted(failures, key=lambda f: f.index),
        jobs=jobs,
        run_dir=run_dir,
        fingerprint=fingerprint,
        wall_seconds=time.perf_counter() - start,
        interrupted=interrupted,
        num_resumed=len(recorded),
        num_retries=num_retries,
        num_respawns=num_respawns,
    )
    if strict and report.failures and not report.interrupted:
        raise SweepFailedError(report)
    return report
