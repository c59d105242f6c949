"""The scheduler plug-in protocol: policies without engine internals.

A :class:`SchedulingPolicy` sees two narrow, documented hooks and
nothing else — no memory manager, no batch objects, no engine state:

* **Batch composition** (mandatory): given a :class:`PoolView` — the
  runnable pools, token budget and a memory snapshot — return the next
  iteration as an ordered list of :class:`BatchDirective`\\ s.  The
  :class:`PolicyScheduler` adapter enforces the engine's invariants
  (budget, batch-size cap, KV admission, preemption), so a policy may
  freely over-emit: directives that no longer fit are truncated or
  skipped.  The batch keeps directive order — decodes and prefill
  chunks may interleave — and the engine prices attention, reports
  TBT samples and hands finished requests to follow-up hooks in that
  order.

* **Admission** (optional): ``admit(snapshot, request, now)`` is
  consulted by the fleet router with a live
  :class:`~repro.cluster.router.ReplicaSnapshot` (queue depth,
  outstanding tokens, KV occupancy, windowed p99 TBT) before a request
  is delivered.  Returning ``False`` defers the request into the
  fleet's backoff-retry loop (it is eventually shed if never admitted).
  Policies without the hook admit everything, exactly as before.

Determinism contract: both hooks must be pure functions of their
arguments plus the policy's own seeded state.  No wall-clock reads, no
unseeded randomness, no iteration-order dependence on ``id()`` — the
simulator's bit-identical replay (sweep resume, differential tests)
relies on it.

See DESIGN.md §12 for the full contract and README for a worked
example of registering a custom policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.engine.arrays import RequestArrays
from repro.scheduling.vectorized import (
    DEFAULT_MAX_BATCH_SIZE,
    VecBatch,
    VecPagedMemory,
    VecReservationMemory,
    VecScheduler,
)
from repro.types import Request

if TYPE_CHECKING:
    from repro.cluster.router import ReplicaSnapshot


@dataclass(frozen=True)
class MemoryView:
    """Read-only snapshot of the replica's KV memory for policies.

    ``can_admit`` answers "would this waiting request fit right now?"
    without reserving anything — admission itself stays inside the
    adapter.
    """

    occupancy: float
    can_admit: Callable[[Request], bool]


@dataclass(frozen=True)
class PoolView:
    """What the batch-composition hook sees each scheduling round.

    ``decodes`` are running requests whose prefill is complete (one
    token each this iteration if scheduled); ``prefills`` are running
    requests mid-prefill; ``waiting`` are arrived-but-unadmitted
    requests in FCFS order.  Requests already inside an in-flight
    pipeline micro-batch are excluded.  All three are read-only views
    whose serving state is synced for this round: mutating request
    state from a policy is a contract violation.
    """

    now: float
    decodes: tuple[Request, ...]
    prefills: tuple[Request, ...]
    waiting: tuple[Request, ...]
    token_budget: int
    max_batch_size: int
    memory: MemoryView

    @property
    def runnable(self) -> tuple[Request, ...]:
        """Every request the policy may direct, decodes first."""
        return self.decodes + self.prefills + self.waiting


@dataclass(frozen=True)
class BatchDirective:
    """One policy decision: run ``request`` this iteration.

    ``chunk=None`` decodes one token (the request must be mid-decode);
    an integer caps the prefill chunk — the adapter clamps it to the
    leftover token budget and the request's remaining prefill, so
    ``chunk`` is an upper bound, not a promise.
    """

    request: Request
    chunk: int | None = None

    def __post_init__(self) -> None:
        if self.chunk is not None and self.chunk <= 0:
            raise ValueError(f"chunk must be positive or None, got {self.chunk}")


class SchedulingPolicy:
    """Base class for plug-in scheduling policies.

    Subclasses must override :meth:`compose_batch`; they may override
    :meth:`admit` (leave it ``None`` to accept all traffic).  ``name``
    labels repr output and contract-violation errors.
    """

    name: str = "policy"

    # Optional admission hook: subclasses override with a method of
    # signature (snapshot: ReplicaSnapshot, request, now) -> bool.
    admit: Callable[["ReplicaSnapshot", Request, float], bool] | None = None

    def compose_batch(self, pool: PoolView) -> list[BatchDirective]:
        raise NotImplementedError


class PolicyScheduler(VecScheduler):
    """Adapter running a :class:`SchedulingPolicy` inside the engine.

    Translates directives into scheduled rows while enforcing every
    engine invariant the policy is shielded from: the token budget
    (decodes cost one token, Sarathi accounting), the batch-size cap,
    KV reservation with preemption for decodes, and block admission
    for waiting requests (admitted out of FCFS order when the policy
    says so).  Contract violations — duplicate directives, directives
    for unknown requests, decoding an incomplete prefill — raise
    immediately with the policy's name; memory-driven impossibilities
    are silently skipped, because pool state legitimately shifts as
    earlier directives preempt.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        arrays: RequestArrays,
        memory: VecPagedMemory | VecReservationMemory,
        token_budget: int,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        super().__init__(
            arrays,
            memory,
            max_batch_size,
            preemption_mode=preemption_mode,
            kv_bytes_per_token=kv_bytes_per_token,
        )
        if token_budget <= 0:
            raise ValueError("token_budget must be positive")
        self.policy = policy
        self.token_budget = token_budget
        hook = getattr(policy, "admit", None)
        self.admission_hook = hook if callable(hook) else None
        self._row_of: dict[int, int] = {}

    def add_row(self, row: int, now: float) -> None:
        super().add_row(row, now)
        self._row_of[self.A.requests[row].request_id] = row

    # ------------------------------------------------------------------
    def _pool_view(self, now: float) -> PoolView:
        A = self.A
        decodes: list[Request] = []
        prefills: list[Request] = []
        for row in self._schedulable_rows():
            request = A.sync_row(row)
            if request.is_prefill_complete:
                decodes.append(request)
            else:
                prefills.append(request)
        row_of = self._row_of
        return PoolView(
            now=now,
            decodes=tuple(decodes),
            prefills=tuple(prefills),
            waiting=tuple(A.sync_row(row) for row in self.waiting),
            token_budget=self.token_budget,
            max_batch_size=self.max_batch_size,
            memory=MemoryView(
                occupancy=self.memory.occupancy,
                can_admit=lambda request: self.memory.can_admit(
                    row_of[request.request_id]
                ),
            ),
        )

    def _build_batch(self, now: float) -> VecBatch | None:
        A = self.A
        pool = self._pool_view(now)
        directives = self.policy.compose_batch(pool)

        decode_rows: list[int] = []
        decode_ctx: list[int] = []
        p_rows: list[int] = []
        p_chunk: list[int] = []
        p_past: list[int] = []
        p_is_last: list[bool] = []
        # Per item in directive order: (is_prefill, index in its block).
        sequence: list[tuple[bool, int]] = []
        tokens_used = 0
        seen: set[int] = set()
        offered = {r.request_id for r in pool.runnable}
        for directive in directives:
            if len(sequence) >= self.max_batch_size or tokens_used >= self.token_budget:
                break
            request_id = directive.request.request_id
            if request_id not in offered:
                raise ValueError(
                    f"policy {self.policy.name!r} directed request "
                    f"{request_id}, which is not in its pool view"
                )
            if request_id in seen:
                raise ValueError(
                    f"policy {self.policy.name!r} directed request "
                    f"{request_id} twice in one batch"
                )
            seen.add(request_id)
            row = self._row_of[request_id]
            prefill_complete = A.prefill_done[row] >= A.prefill_target[row]

            if directive.chunk is None:
                if not prefill_complete:
                    raise ValueError(
                        f"policy {self.policy.name!r} decoded request "
                        f"{request_id} before its prefill completed "
                        "(pass chunk= for prefill work)"
                    )
                if row not in self._running_set:
                    continue  # evicted by an earlier directive's preemption
                if not self._prepare_decode(row):
                    continue  # no KV room this iteration
                sequence.append((False, len(decode_rows)))
                decode_rows.append(row)
                decode_ctx.append(int(A.prefill_done[row] + A.decode_steps[row]))
                tokens_used += 1
                continue

            if prefill_complete:
                raise ValueError(
                    f"policy {self.policy.name!r} scheduled a prefill chunk "
                    f"for request {request_id}, which is already "
                    "decoding (omit chunk= for decode work)"
                )
            if row not in self._running_set:
                if row not in self.waiting:
                    continue  # evicted and re-queued state shifted; skip
                if not self._try_admit(row):
                    continue  # KV full; policy may retry next round
                self.waiting.remove(row)
                self._run_add(row)
            # Admission may have claimed a cached prefix, shrinking the
            # remaining prefill — clamp after admission, like Sarathi.
            remaining = int(A.prefill_target[row] - A.prefill_done[row])
            chunk = min(directive.chunk, self.token_budget - tokens_used, remaining)
            if chunk <= 0:
                continue
            self._claimed.add(row)
            sequence.append((True, len(p_rows)))
            p_rows.append(row)
            p_chunk.append(chunk)
            p_past.append(int(A.prefill_done[row]))
            p_is_last.append(chunk >= remaining)
            tokens_used += chunk

        if not sequence:
            return None
        num_decodes = len(decode_rows)
        order = [num_decodes + i if is_prefill else i for is_prefill, i in sequence]
        return VecBatch(
            np.array(decode_rows, dtype=np.int64),
            np.array(decode_ctx, dtype=np.int64),
            p_rows,
            p_chunk,
            p_past,
            p_is_last,
            order=None if order == sorted(order) else order,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"PolicyScheduler(policy={self.policy.name!r}, "
            f"token_budget={self.token_budget}, "
            f"max_batch_size={self.max_batch_size})"
        )
