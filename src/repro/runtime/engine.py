"""Sweep fan-out: an ordered process-pool map with a resume ledger.

Capacity figures and fleet grids are grids of independent cells, each
a pile of deterministic simulations.  :func:`map_tasks` runs a task
function over them and returns one :class:`TaskOutcome` per item, in
item order:

* ``jobs == 1`` runs the tasks in-process, one after another; this is
  the reference path;
* ``jobs > 1`` submits every task to one ``ProcessPoolExecutor`` and
  collects the results by index, so the output never depends on
  completion order.

Every task carries its own seeds inside its spec and builds its own
execution model (:func:`repro.api.execution_model_for`), so a task
computes the same value in any process, and the two paths agree
bit for bit.

With a ``run_dir``, each completed outcome is journaled to an fsynced
ledger (:mod:`repro.runtime.ledger`) as it finishes, and
``resume=True`` replays the recorded tasks and computes only the
missing ones.

Any exception (a task error, a dead worker, Ctrl-C or SIGTERM) cancels
the pending tasks, kills the workers and propagates.  There are no
retries and no partial results: the ledger keeps what finished, and a
resumed run completes the rest.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.runtime.ledger import RunLedger, sweep_fingerprint

# Environment knobs mirrored by the CLI's sweep flags.
JOBS_ENV = "REPRO_JOBS"
RUN_DIR_ENV = "REPRO_RUN_DIR"
RESUME_ENV = "REPRO_RESUME"


@dataclass(frozen=True)
class TaskOutcome:
    """One task's result plus its execution footprint."""

    index: int
    value: Any
    worker_pid: int
    seconds: float
    resumed: bool = False  # replayed from a run ledger, not recomputed


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


@contextmanager
def sweep_env(
    jobs: int | None = None,
    run_dir: str | Path | None = None,
    resume: bool | None = None,
):
    """Temporarily pin the sweep knobs in the environment.

    The figure registry's runners read the ``REPRO_*`` sweep variables
    when not passed explicit arguments, so the CLI can thread --jobs,
    --run-dir and --resume through ``reproduce_figure`` without
    changing every runner's signature.
    """
    values = {
        JOBS_ENV: str(jobs) if jobs is not None else None,
        RUN_DIR_ENV: str(run_dir) if run_dir is not None else None,
        RESUME_ENV: ("1" if resume else "0") if resume is not None else None,
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


def _run_one(fn: Callable[[Any], Any], index: int, item: Any) -> TaskOutcome:
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


def _default_sigterm() -> None:
    """Worker initializer: a forked worker must not inherit the sweep's
    SIGTERM-as-interrupt handler, so that the pool can terminate it."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _run_pool(
    fn: Callable[[Any], Any],
    tasks: list[tuple[int, Any]],
    jobs: int,
    finish: Callable[[TaskOutcome], None],
) -> None:
    """Run ``tasks`` on one worker pool, calling ``finish`` as each completes.

    On any exception the workers are killed before it propagates.  The
    pool's manager thread then sees them die and reaps them; waiting
    for it leaves no worker behind and no second thread reaping them.
    """
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)), initializer=_default_sigterm
    )
    try:
        futures = [pool.submit(_run_one, fn, index, item) for index, item in tasks]
        for future in as_completed(futures):
            finish(future.result())
    except BaseException:
        for worker in list((getattr(pool, "_processes", None) or {}).values()):
            worker.kill()
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown()


def map_tasks(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: int | None = None,
    run_dir: str | Path | None = None,
    resume: bool | None = None,
) -> list[TaskOutcome]:
    """Run ``fn`` over ``items``; one outcome per item, in item order.

    The parallel path is output-equivalent to the serial one whenever
    ``fn`` is a pure function of its item (every sweep task is).  With
    ``run_dir``, completed outcomes are journaled to an fsynced ledger
    named by the sweep fingerprint; ``resume=True`` replays recorded
    outcomes (``resumed=True``) and computes only what is missing.  An
    exception, Ctrl-C or SIGTERM propagates after the workers are
    stopped; the ledger keeps every outcome that finished before it.

    ``fn`` and each item must be picklable (module-level function,
    dataclass specs) when ``jobs > 1``.  ``jobs``, ``run_dir`` and
    ``resume`` default to their ``REPRO_*`` environment variables.
    """
    if jobs is None:
        jobs = jobs_from_env()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if run_dir is None:
        run_dir = run_dir_from_env()
    if resume is None:
        resume = resume_from_env()

    items = list(items)
    outcomes: dict[int, TaskOutcome] = {}
    ledger: RunLedger | None = None
    if run_dir is not None:
        ledger = RunLedger(run_dir, sweep_fingerprint(fn, items))
        outcomes = ledger.start(num_tasks=len(items), resume=resume)

    def finish(outcome: TaskOutcome) -> None:
        outcomes[outcome.index] = outcome
        if ledger is not None:
            ledger.record(outcome)

    remaining = [(index, item) for index, item in enumerate(items) if index not in outcomes]
    try:
        with _sigterm_as_interrupt():
            if jobs == 1 or len(remaining) <= 1:
                for index, item in remaining:
                    finish(_run_one(fn, index, item))
            else:
                _run_pool(fn, remaining, jobs, finish)
    finally:
        if ledger is not None:
            ledger.close()
    return [outcomes[index] for index in range(len(items))]
