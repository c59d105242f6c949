"""Disaggregated prefill/decode serving (Splitwise / DistServe, §6).

The paper's related-work section describes the alternative school:
dedicate some replicas to prefills and others to decodes, migrating
each request's KV cache between them when its prefill completes.
Interference disappears entirely — prefills run at full efficiency and
decodes are never stalled — at the cost of (a) migrating KV over the
interconnect and (b) prefill replicas whose HBM stores no decode KV.
The paper leaves a quantitative comparison to future work; this module
provides it.

The engine is event-driven like the replica engine:

* prefill replicas pull whole prompts FCFS, one iteration per prompt
  (maximum prefill efficiency — the disaggregation argument);
* a finished prefill emits the first token, then the KV cache migrates
  to the decode replica with the most free memory (waiting in a staging
  queue if none has room);
* decode replicas run decode-only iterations over their resident
  requests, iteration-level.

Each instance keeps its own iteration log (``replica_logs``: prefill
instances first, then decode instances), so utilization metrics
average over instances the way a fleet's do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.simulator import EventQueue
from repro.hardware.interconnect import LinkSpec
from repro.memory.capacity import DEFAULT_BLOCK_SIZE
from repro.metrics.timeline import IterationLog
from repro.perf.iteration import ExecutionModel
from repro.types import Request, RequestPhase, TokenWork

_ARRIVAL = "arrival"
_PREFILL_DONE = "prefill_done"
_MIGRATION_DONE = "migration_done"
_DECODE_DONE = "decode_done"


@dataclass
class DisaggregatedResult:
    """Run outcome, mirroring ``SimulationResult``'s metric surface."""

    requests: list[Request]
    records: IterationLog
    makespan: float
    num_stages: int = 1
    num_preemptions: int = 0
    unfinished: list[Request] | None = None
    replica_logs: tuple[IterationLog, ...] = ()

    def __post_init__(self) -> None:
        if self.unfinished is None:
            self.unfinished = [r for r in self.requests if not r.is_finished]

    @property
    def finished_requests(self) -> list[Request]:
        return [r for r in self.requests if r.is_finished]


class _DecodeKV:
    """Paged KV accounting for one decode-pool member: whole blocks, a
    1% admission watermark, and growth one block at a time."""

    def __init__(
        self, capacity_tokens: int, block_size: int, watermark: float = 0.01
    ) -> None:
        self.block_size = block_size
        num_blocks = capacity_tokens // block_size
        self._watermark_blocks = int(num_blocks * watermark)
        self.free_blocks = num_blocks
        self._held: dict[int, int] = {}  # request_id -> blocks

    @property
    def free_token_slots(self) -> int:
        return self.free_blocks * self.block_size

    def _initial_blocks(self, request: Request) -> int:
        tokens = max(request.prefill_target, request.context_len)
        return (tokens + self.block_size - 1) // self.block_size

    def _needs_new_block(self, request: Request) -> bool:
        held_tokens = self._held[request.request_id] * self.block_size
        return request.context_len + 1 > held_tokens

    def can_admit(self, request: Request) -> bool:
        needed = self._initial_blocks(request)
        return self.free_blocks - needed >= self._watermark_blocks

    def admit(self, request: Request) -> None:
        needed = self._initial_blocks(request)
        self.free_blocks -= needed
        self._held[request.request_id] = needed

    def can_append_token(self, request: Request) -> bool:
        return not self._needs_new_block(request) or self.free_blocks >= 1

    def append_token(self, request: Request) -> None:
        if self._needs_new_block(request):
            self.free_blocks -= 1
            self._held[request.request_id] += 1

    def free(self, request: Request) -> None:
        self.free_blocks += self._held.pop(request.request_id, 0)


class _DecodeReplica:
    """One decode-pool member: resident requests plus paged memory."""

    def __init__(
        self, index: int, capacity_tokens: int, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        self.index = index
        self.memory = _DecodeKV(capacity_tokens, block_size)
        self.resident: list[Request] = []
        self.busy = False
        self.log = IterationLog()

    def can_admit(self, request: Request) -> bool:
        # Conservative admission: reserve room for the whole response so
        # decode growth never OOMs (the decode pool has no cheap
        # preemption path — its KV came over the wire).
        footprint = request.context_len + request.remaining_output + self.memory.block_size
        return (
            self.memory.can_admit(request)
            and self.memory.free_token_slots >= footprint
        )

    def admit(self, request: Request) -> None:
        self.memory.admit(request)
        self.resident.append(request)

    def release_finished(self) -> None:
        for request in list(self.resident):
            if request.is_finished:
                self.memory.free(request)
                self.resident.remove(request)


class DisaggregatedEngine:
    """Prefill-pool + decode-pool serving with KV migration."""

    def __init__(
        self,
        exec_model: ExecutionModel,
        num_prefill_replicas: int,
        num_decode_replicas: int,
        migration_link: LinkSpec,
        decode_kv_capacity: int,
        max_decode_batch: int = 128,
    ) -> None:
        if num_prefill_replicas < 1 or num_decode_replicas < 1:
            raise ValueError("need at least one replica in each pool")
        if max_decode_batch < 1:
            raise ValueError("max_decode_batch must be >= 1")
        self.exec_model = exec_model
        self.migration_link = migration_link
        self.max_decode_batch = max_decode_batch
        self._events = EventQueue()
        self._prefill_busy = [False] * num_prefill_replicas
        self._prefill_logs = [IterationLog() for _ in range(num_prefill_replicas)]
        self._prefill_queue: list[Request] = []
        self._decode_replicas = [
            _DecodeReplica(i, decode_kv_capacity) for i in range(num_decode_replicas)
        ]
        self._staging: list[Request] = []   # prefilled, waiting for decode memory
        self.num_migrations = 0
        self.total_migration_time = 0.0

    # ------------------------------------------------------------------
    def run(
        self, requests: list[Request], max_time: float | None = None
    ) -> DisaggregatedResult:
        if not requests:
            raise ValueError("run() needs at least one request")
        for request in requests:
            self._events.push(request.arrival_time, _ARRIVAL, request)
        now = 0.0
        while self._events:
            now, kind, payload = self._events.pop()
            if max_time is not None and now > max_time:
                break
            if kind == _ARRIVAL:
                self._prefill_queue.append(payload)
                payload.phase = RequestPhase.PREFILL
                self._feed_prefill_replicas(now)
            elif kind == _PREFILL_DONE:
                self._on_prefill_done(*payload, now=now)
            elif kind == _MIGRATION_DONE:
                self._on_migration_done(payload, now)
            elif kind == _DECODE_DONE:
                self._on_decode_done(*payload, now=now)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")
        unfinished = [r for r in requests if not r.is_finished]
        if unfinished and max_time is None:
            raise RuntimeError(
                f"disaggregated run stuck with {len(unfinished)} unfinished requests"
            )
        replica_logs = tuple(self._prefill_logs) + tuple(
            replica.log for replica in self._decode_replicas
        )
        return DisaggregatedResult(
            requests=list(requests),
            records=IterationLog.chain(replica_logs),
            makespan=now,
            unfinished=unfinished,
            replica_logs=replica_logs,
        )

    # ------------------------------------------------------------------
    # Prefill pool
    # ------------------------------------------------------------------
    def _feed_prefill_replicas(self, now: float) -> None:
        for replica, busy in enumerate(self._prefill_busy):
            if busy or not self._prefill_queue:
                continue
            request = self._prefill_queue.pop(0)
            if request.first_scheduled_at is None:
                request.first_scheduled_at = now
            work = TokenWork.prefill_chunk(request.remaining_prefill)
            breakdown = self.exec_model.iteration_time([work])
            duration = breakdown.total
            self._prefill_busy[replica] = True
            self._prefill_logs[replica].append(
                0, now, now + duration, request.request_id,
                work.num_tokens, 0, 1, 0,
                breakdown.linear, breakdown.attention, breakdown.others,
                breakdown.communication, breakdown.overhead,
            )
            self._events.push(now + duration, _PREFILL_DONE, (replica, request))

    def _on_prefill_done(self, replica: int, request: Request, now: float) -> None:
        self._prefill_busy[replica] = False
        request.record_prefill(request.remaining_prefill, now)
        if not request.is_finished:
            migration = self._migration_time(request)
            self.num_migrations += 1
            self.total_migration_time += migration
            self._events.push(now + migration, _MIGRATION_DONE, request)
        self._feed_prefill_replicas(now)

    def _migration_time(self, request: Request) -> float:
        kv_bytes = self.exec_model.model.kv_bytes(request.context_len)
        return self.migration_link.transfer_time(kv_bytes)

    # ------------------------------------------------------------------
    # Decode pool
    # ------------------------------------------------------------------
    def _on_migration_done(self, request: Request, now: float) -> None:
        self._staging.append(request)
        self._drain_staging(now)

    def _drain_staging(self, now: float) -> None:
        still_waiting = []
        for request in self._staging:
            target = self._pick_decode_replica(request)
            if target is None:
                still_waiting.append(request)
                continue
            target.admit(request)
            if not target.busy:
                self._start_decode_iteration(target, now)
        self._staging = still_waiting

    def _pick_decode_replica(self, request: Request) -> _DecodeReplica | None:
        candidates = [r for r in self._decode_replicas if r.can_admit(request)]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.memory.free_token_slots)

    def _start_decode_iteration(self, replica: _DecodeReplica, now: float) -> None:
        batch = [
            r
            for r in replica.resident
            if not r.is_finished and replica.memory.can_append_token(r)
        ][: self.max_decode_batch]
        if not batch:
            return
        for request in batch:
            replica.memory.append_token(request)
        works = [TokenWork.decode(r.context_len) for r in batch]
        breakdown = self.exec_model.iteration_time(works)
        replica.busy = True
        replica.log.append(
            0, now, now + breakdown.total, -(replica.index + 1),
            0, len(batch), 0, len(batch),
            breakdown.linear, breakdown.attention, breakdown.others,
            breakdown.communication, breakdown.overhead,
        )
        self._events.push(now + breakdown.total, _DECODE_DONE, (replica.index, batch))

    def _on_decode_done(self, replica_idx: int, batch: list[Request], now: float) -> None:
        replica = self._decode_replicas[replica_idx]
        replica.busy = False
        for request in batch:
            request.record_decode(now)
        replica.release_finished()
        self._drain_staging(now)
        self._start_decode_iteration(replica, now)
