"""Supervised process-pool execution: crash-safe fan-out with retries.

``ProcessPoolExecutor.map`` is all-or-nothing: one worker OOM-killed or
wedged raises ``BrokenProcessPool`` and throws away every cell of a
multi-hour sweep.  This module replaces it with a submission/completion
loop that treats worker failure as an event, not an abort:

* **Bounded in-flight window** — at most ``jobs`` tasks are submitted
  at once, so a per-task timeout measured from submission approximates
  time-on-worker and a hung worker is detected within one timeout.
* **Death and hang recovery** — a broken pool (worker SIGKILL/OOM) or a
  timed-out task kills and respawns the pool with capped exponential
  backoff; affected tasks are retried.  Python cannot attribute a
  worker death to one task, so every in-flight task of a broken pool
  gets its attempt count bumped — innocents burn one of their
  ``max_retries`` retries, the actual culprit keeps getting bumped
  until it completes or quarantines, so the loop always terminates.
* **Poison-task quarantine** — a task that keeps failing past
  ``max_retries`` becomes a structured :class:`TaskFailure` (exception
  repr, traceback, attempts, worker pid when known) instead of
  aborting the sweep; the caller chooses strict vs. degraded
  completion.
* **Clean interruption** — ``KeyboardInterrupt``/SIGTERM cancels the
  queue, kills the pool (no orphaned workers) and returns everything
  that already finished, marked interrupted.

Worker-raised exceptions are caught *inside* the worker and returned
as values, so they carry the real worker pid and traceback; only
death/timeout failures lose the pid.  Results are keyed by task index,
so canonical output order never depends on completion order.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.runtime.chaos import ChaosConfig, inject


@dataclass(frozen=True)
class TaskOutcome:
    """One task's result plus its execution footprint."""

    index: int
    value: Any
    worker_pid: int
    seconds: float
    attempt: int = 0       # 0 = first try; >0 = survived that many retries
    resumed: bool = False  # replayed from a run ledger, not recomputed


@dataclass(frozen=True)
class TaskFailure:
    """A task quarantined after exhausting its retries."""

    index: int
    error: str          # repr of the final exception / failure kind
    traceback: str      # worker traceback when the task raised; else a note
    attempts: int       # total attempts made (1 = failed on first try)
    worker_pid: int | None = None  # known only for in-worker exceptions
    kind: str = "exception"        # "exception" | "worker-death" | "timeout"


class SweepFailedError(RuntimeError):
    """Raised by strict sweeps when any task was quarantined."""

    def __init__(self, report: Any) -> None:
        self.report = report
        failures = report.failures
        summary = "; ".join(
            f"task {f.index} after {f.attempts} attempts: {f.error}"
            for f in failures[:3]
        )
        if len(failures) > 3:
            summary += f"; … {len(failures) - 3} more"
        super().__init__(
            f"{len(failures)} task(s) failed permanently ({summary}); "
            "pass strict=False for degraded completion"
        )


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/backoff knobs for one supervised run."""

    task_timeout: float | None = None  # seconds a task may run; None = forever
    max_retries: int = 2               # retries per task beyond the first attempt
    backoff_base: float = 0.1          # pool-respawn backoff: base * 2**(n-1) …
    backoff_cap: float = 5.0           # … capped here (seconds)
    poll_interval: float = 0.05        # completion/timeout polling tick
    chaos: ChaosConfig | None = None   # deterministic fault injection

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class SupervisedRun:
    """What one supervised execution did, for the report and telemetry."""

    outcomes: dict[int, TaskOutcome] = field(default_factory=dict)
    failures: list[TaskFailure] = field(default_factory=list)
    num_retries: int = 0
    num_respawns: int = 0
    interrupted: bool = False


@dataclass(frozen=True)
class _TaskError:
    """An exception caught inside a worker, shipped home as a value."""

    index: int
    attempt: int
    error: str
    traceback: str
    worker_pid: int


@dataclass(frozen=True)
class _Attempt:
    index: int
    item: Any
    attempt: int = 0


def _supervised_run_one(
    fn: Callable[[Any], Any],
    index: int,
    attempt: int,
    item: Any,
    chaos: ChaosConfig | None,
) -> TaskOutcome | _TaskError:
    """Worker-side task body (module-level: the pool pickles it)."""
    inject(chaos, index, attempt)
    start = time.perf_counter()
    try:
        value = fn(item)
    except Exception as exc:
        return _TaskError(
            index=index,
            attempt=attempt,
            error=repr(exc),
            traceback=traceback_module.format_exc(),
            worker_pid=os.getpid(),
        )
    return TaskOutcome(
        index=index,
        value=value,
        worker_pid=os.getpid(),
        seconds=time.perf_counter() - start,
        attempt=attempt,
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: SIGKILL its workers, drop its queue.

    ``shutdown`` alone waits forever on a wedged worker; killing the
    processes first (private attribute, guarded defensively) is the
    only way to reap a hung task.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_supervised(
    fn: Callable[[Any], Any],
    tasks: list[tuple[int, Any]],
    jobs: int,
    policy: SupervisorPolicy,
    on_complete: Callable[[TaskOutcome], None] | None = None,
) -> SupervisedRun:
    """Run tasks across a supervised worker pool; never raises for task faults.

    ``tasks`` are ``(index, item)`` pairs; ``on_complete`` fires once
    per completed outcome, in completion order (the ledger journals
    there).  Returns outcomes keyed by index, quarantined failures, and
    retry/respawn/interrupt accounting.  Only ``KeyboardInterrupt`` is
    intercepted (and reported, not re-raised); programming errors in
    the supervisor itself still propagate.
    """
    run = SupervisedRun()
    max_workers = max(1, min(jobs, len(tasks)))
    pending: deque[_Attempt] = deque(
        _Attempt(index=index, item=item) for index, item in tasks
    )
    in_flight: dict[Future, tuple[_Attempt, float]] = {}
    pool: ProcessPoolExecutor | None = None

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=max_workers)

    def settle(result: TaskOutcome | _TaskError) -> None:
        """File a worker's return value: success, or a retryable error."""
        if isinstance(result, _TaskError):
            requeue(
                _Attempt(index=result.index, item=item_by_index[result.index],
                         attempt=result.attempt),
                bump=True,
                error=result.error,
                tb=result.traceback,
                pid=result.worker_pid,
                kind="exception",
            )
        else:
            run.outcomes[result.index] = result
            if on_complete is not None:
                on_complete(result)

    def requeue(
        attempt: _Attempt,
        bump: bool,
        error: str = "",
        tb: str = "",
        kind: str = "exception",
        pid: int | None = None,
    ) -> None:
        """Retry an attempt, or quarantine it once retries are exhausted.

        ``bump=False`` resubmits without charging a retry — used for
        tasks that merely shared a pool with a hung one.
        """
        if not bump:
            pending.append(attempt)
            return
        attempts_made = attempt.attempt + 1
        if attempts_made > policy.max_retries:
            run.failures.append(
                TaskFailure(
                    index=attempt.index,
                    error=error,
                    traceback=tb,
                    attempts=attempts_made,
                    worker_pid=pid,
                    kind=kind,
                )
            )
        else:
            run.num_retries += 1
            pending.append(
                _Attempt(index=attempt.index, item=attempt.item,
                         attempt=attempts_made)
            )

    def abandon_pool(bump_survivors: bool = True) -> None:
        """Harvest what finished, requeue the rest, and kill the pool.

        ``bump_survivors=False`` (the hang path) resubmits unfinished
        collateral tasks without charging them a retry — only the task
        that actually timed out burns one.
        """
        nonlocal pool
        for future, (attempt, _) in list(in_flight.items()):
            harvested = False
            if future.done() and not future.cancelled():
                try:
                    settle(future.result())
                    harvested = True
                except BaseException:
                    pass  # died with the pool; fall through to requeue
            if not harvested:
                requeue(
                    attempt,
                    bump=bump_survivors,
                    error="worker process died (BrokenProcessPool)",
                    tb="worker exited abnormally; no traceback available",
                    kind="worker-death",
                )
        in_flight.clear()
        if pool is not None:
            _kill_pool(pool)
            pool = None

    item_by_index = {index: item for index, item in tasks}

    try:
        while pending or in_flight:
            if pool is None:
                if run.num_respawns:
                    delay = min(
                        policy.backoff_base * 2 ** (run.num_respawns - 1),
                        policy.backoff_cap,
                    )
                    time.sleep(delay)
                pool = make_pool()
            # Keep the in-flight window at the worker count so "time
            # since submission" tracks "time on a worker".
            while pending and len(in_flight) < max_workers:
                attempt = pending.popleft()
                try:
                    future = pool.submit(
                        _supervised_run_one,
                        fn, attempt.index, attempt.attempt, attempt.item,
                        policy.chaos,
                    )
                except (BrokenProcessPool, RuntimeError):
                    pending.appendleft(attempt)
                    run.num_respawns += 1
                    abandon_pool()
                    break
                in_flight[future] = (attempt, time.monotonic())
            if not in_flight:
                continue

            done, _ = wait(
                list(in_flight), timeout=policy.poll_interval,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            for future in done:
                attempt, _ = in_flight.pop(future)
                try:
                    settle(future.result())
                except BrokenProcessPool:
                    broken = True
                    requeue(
                        attempt,
                        bump=True,
                        error="worker process died (BrokenProcessPool)",
                        tb="worker exited abnormally; no traceback available",
                        kind="worker-death",
                    )
                except Exception as exc:
                    # Pool-infrastructure error (e.g. unpicklable fn).
                    requeue(
                        attempt,
                        bump=True,
                        error=repr(exc),
                        tb="".join(
                            traceback_module.format_exception(
                                type(exc), exc, exc.__traceback__
                            )
                        ),
                        kind="exception",
                    )
            if broken:
                run.num_respawns += 1
                abandon_pool()
                continue

            if policy.task_timeout is not None and in_flight:
                now = time.monotonic()
                hung = [
                    future
                    for future, (_, submitted_at) in in_flight.items()
                    if now - submitted_at > policy.task_timeout
                ]
                if hung:
                    # A wedged worker can only be reaped by killing the
                    # pool; hung tasks burn a retry, the collateral
                    # in-flight tasks are resubmitted for free.
                    for future in hung:
                        attempt, _ = in_flight.pop(future)
                        requeue(
                            attempt,
                            bump=True,
                            error=(
                                f"task exceeded timeout "
                                f"({policy.task_timeout:.3g}s)"
                            ),
                            tb="task was still running at its deadline; "
                               "worker killed",
                            kind="timeout",
                        )
                    run.num_respawns += 1
                    abandon_pool(bump_survivors=False)
    except KeyboardInterrupt:
        run.interrupted = True
        for future in in_flight:
            future.cancel()
        pending.clear()
        if pool is not None:
            _kill_pool(pool)
            pool = None
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return run
