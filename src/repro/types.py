"""Fundamental value types shared across the whole library.

Everything in the simulator runs on two base units:

* **seconds** (floats) for all wall-clock quantities, and
* **tokens** (ints) for all sequence-length quantities.

Keeping the units uniform at the type layer means the perf model, the
schedulers and the metrics pipeline never need unit conversions.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from dataclasses import dataclass, field


class RequestPhase(enum.Enum):
    """Lifecycle phase of a request inside the serving engine."""

    QUEUED = "queued"
    PREFILL = "prefill"
    DECODE = "decode"
    FINISHED = "finished"
    PREEMPTED = "preempted"


class SchedulerKind(enum.Enum):
    """The scheduler families studied by the paper (§2.5, §4)."""

    FASTER_TRANSFORMER = "faster_transformer"
    ORCA = "orca"
    VLLM = "vllm"
    SARATHI = "sarathi"
    SARATHI_DYNAMIC = "sarathi_dynamic"
    CHUNKED_ONLY = "chunked_prefills_only"
    HYBRID_ONLY = "hybrid_batching_only"


class PreemptionMode(str, enum.Enum):
    """What eviction does to a preempted request's KV cache.

    ``RECOMPUTE`` frees the cache and re-prefills from scratch (vLLM's
    default); ``SWAP`` parks it in host memory and pays PCIe transfers
    instead.  The ``str`` mixin keeps the enum comparable and
    serializable as its plain string value, so existing call sites that
    pass ``"recompute"``/``"swap"`` keep working unchanged.
    """

    RECOMPUTE = "recompute"
    SWAP = "swap"

    @classmethod
    def parse(cls, value: "PreemptionMode | str") -> "PreemptionMode":
        """Coerce a string (or enum) into a mode, with a naming error."""
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(repr(mode.value) for mode in cls)
            raise ValueError(
                f"unknown preemption_mode {value!r}; choose one of {choices}"
            ) from None


_request_ids = itertools.count()


def next_request_id() -> int:
    """Return a process-unique monotonically increasing request id."""
    return next(_request_ids)


@dataclass(slots=True)
class Request:
    """A single inference request and its mutable serving state.

    A request owns ``prompt_len`` input tokens that must be prefilled
    (possibly over several chunked iterations) and then emits
    ``output_len`` output tokens: the first one when its prefill
    completes and the rest from decode iterations, one token each.

    Preemption with recompute (vLLM's policy) frees the KV cache and
    folds already-emitted output tokens back into the prefill work:
    ``prefill_target`` grows to ``prompt_len + num_emitted`` and the
    request re-queues.  Emitted-token bookkeeping (``num_emitted``,
    ``token_times``) is monotone — users saw those tokens.

    ``token_times`` holds one emission timestamp per output token as a
    packed float64 ``array('d')`` (8 bytes a token); any other sequence
    passed in is converted on construction.  The class is slotted: a
    request carries no ``__dict__``.
    """

    prompt_len: int
    output_len: int
    arrival_time: float = 0.0
    request_id: int = field(default_factory=next_request_id)
    # Multi-tenant accounting: which client/tenant issued the request
    # (used by fairness-aware schedulers; 0 = single-tenant default).
    client_id: int = 0

    # --- prefix-cache identity (immutable) -------------------------
    # Which shared-prefix lineage the request belongs to (conversation
    # id, tenant id, …); None opts out of prefix caching entirely.
    prefix_id: int | None = None
    # How many leading prompt tokens are attested byte-identical to the
    # lineage's published prefix; sharing never exceeds this.
    prefix_len: int = 0
    # Cap on how much of the *final* context this request publishes
    # back to the store when it finishes: None publishes everything
    # (conversation-style history), N publishes only the first N tokens
    # (e.g. a tenant's shared system prompt).
    prefix_publish_len: int | None = None

    # --- mutable serving state -------------------------------------
    phase: RequestPhase = RequestPhase.QUEUED
    prefill_target: int = 0          # tokens that must be (re)prefilled
    prefill_done: int = 0            # prefill tokens processed this epoch
    decode_steps: int = 0            # decode iterations run this epoch
    num_emitted: int = 0             # output tokens emitted (monotone)
    first_scheduled_at: float | None = None
    first_token_at: float | None = None
    finished_at: float | None = None
    token_times: array = field(default_factory=lambda: array("d"))
    num_restarts: int = 0

    def __post_init__(self) -> None:
        if self.prompt_len <= 0:
            raise ValueError(f"prompt_len must be positive, got {self.prompt_len}")
        if self.output_len <= 0:
            raise ValueError(f"output_len must be positive, got {self.output_len}")
        if self.prefix_id is not None and self.prefix_id < 0:
            raise ValueError(f"prefix_id must be non-negative, got {self.prefix_id}")
        if not 0 <= self.prefix_len <= self.prompt_len:
            raise ValueError(
                f"prefix_len must be in [0, prompt_len], got {self.prefix_len} "
                f"with prompt_len {self.prompt_len}"
            )
        if self.prefix_publish_len is not None and self.prefix_publish_len < 0:
            raise ValueError(
                f"prefix_publish_len must be non-negative or None, "
                f"got {self.prefix_publish_len}"
            )
        if self.prefill_target == 0:
            self.prefill_target = self.prompt_len
        times = self.token_times
        if not (isinstance(times, array) and times.typecode == "d"):
            self.token_times = array("d", times)

    # --- derived quantities ------------------------------------------------
    @property
    def total_len(self) -> int:
        """Prompt plus output tokens — the final KV-cache footprint."""
        return self.prompt_len + self.output_len

    @property
    def context_len(self) -> int:
        """Tokens currently resident in the KV cache."""
        return self.prefill_done + self.decode_steps

    @property
    def remaining_prefill(self) -> int:
        return self.prefill_target - self.prefill_done

    @property
    def remaining_output(self) -> int:
        return self.output_len - self.num_emitted

    @property
    def is_prefill_complete(self) -> bool:
        return self.prefill_done >= self.prefill_target

    @property
    def is_finished(self) -> bool:
        return self.phase is RequestPhase.FINISHED

    # --- lifecycle transitions (called by schedulers) -----------------------
    def record_prefill(self, num_tokens: int, now: float) -> None:
        """Commit a completed prefill chunk of ``num_tokens``."""
        if num_tokens > self.remaining_prefill:
            raise ValueError(
                f"request {self.request_id}: prefill of {num_tokens} exceeds "
                f"remaining {self.remaining_prefill}"
            )
        self.prefill_done += num_tokens
        if self.is_prefill_complete:
            self.phase = RequestPhase.DECODE
            if self.num_emitted == 0:
                self._emit_token(now)
            self._maybe_finish(now)

    def record_decode(self, now: float) -> None:
        """Commit one completed decode step, emitting one token."""
        if not self.is_prefill_complete:
            raise ValueError(f"request {self.request_id} decoded before prefill done")
        self.decode_steps += 1
        self._emit_token(now)
        self._maybe_finish(now)

    def _emit_token(self, now: float) -> None:
        self.num_emitted += 1
        self.token_times.append(now)
        if self.first_token_at is None:
            self.first_token_at = now

    def _maybe_finish(self, now: float) -> None:
        if self.num_emitted >= self.output_len:
            self.phase = RequestPhase.FINISHED
            self.finished_at = now

    def restart_after_preemption(self) -> None:
        """Re-queue after a recompute preemption freed the KV cache.

        Already-emitted tokens must have their KV rebuilt, so they join
        the prefill work; nothing is re-emitted.
        """
        self.prefill_target = self.prompt_len + self.num_emitted
        self.prefill_done = 0
        self.decode_steps = 0
        self.phase = RequestPhase.QUEUED
        self.num_restarts += 1

    # --- latency metrics ----------------------------------------------------
    @property
    def ttft(self) -> float | None:
        """Time-to-first-token measured from arrival (§2.4)."""
        if self.first_token_at is None:
            return None
        return self.first_token_at - self.arrival_time

    @property
    def scheduling_delay(self) -> float | None:
        """Queueing delay before the request first entered a batch."""
        if self.first_scheduled_at is None:
            return None
        return self.first_scheduled_at - self.arrival_time

    @property
    def tbt_samples(self) -> list[float]:
        """Intervals between consecutive output tokens (§2.4).

        The first output token is covered by TTFT, so TBT samples start
        with the gap between tokens one and two.
        """
        times = self.token_times
        return [b - a for a, b in zip(times, times[1:])]

    @property
    def e2e_latency(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrival_time


@dataclass(frozen=True)
class TokenWork:
    """One request's contribution of work to a batch iteration.

    ``num_tokens`` tokens are processed whose attention spans
    ``past_len`` previously cached tokens plus (causally) themselves.
    A decode step is ``num_tokens == 1`` with ``past_len`` equal to the
    full context; a prefill chunk has ``num_tokens == chunk`` with
    ``past_len`` equal to the tokens of earlier chunks.
    """

    num_tokens: int
    past_len: int
    is_prefill: bool
    emits_token: bool = True

    def __post_init__(self) -> None:
        if self.num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        if self.past_len < 0:
            raise ValueError("past_len must be non-negative")

    @property
    def attention_span(self) -> int:
        """Total KV positions attended to by the last token of the work."""
        return self.past_len + self.num_tokens

    @classmethod
    def decode(cls, context_len: int) -> "TokenWork":
        """One decode step attending to ``context_len`` cached tokens."""
        return cls(num_tokens=1, past_len=context_len, is_prefill=False)

    @classmethod
    def prefill_chunk(
        cls, chunk: int, past_len: int = 0, is_last: bool = True
    ) -> "TokenWork":
        """A prefill chunk; only the final chunk emits the first token."""
        return cls(
            num_tokens=chunk,
            past_len=past_len,
            is_prefill=True,
            emits_token=is_last,
        )


@dataclass(frozen=True)
class IterationTime:
    """Decomposition of one model iteration's execution time (seconds).

    Mirrors the paper's Figure 4 breakdown: linear operators, attention,
    and "others" (norms, embeddings, elementwise), plus communication
    (TP allreduce + PP sends) and fixed kernel/CPU overheads.
    """

    linear: float
    attention: float
    others: float
    communication: float
    overhead: float

    @property
    def total(self) -> float:
        return self.linear + self.attention + self.others + self.communication + self.overhead

    def __add__(self, other: "IterationTime") -> "IterationTime":
        return IterationTime(
            linear=self.linear + other.linear,
            attention=self.attention + other.attention,
            others=self.others + other.others,
            communication=self.communication + other.communication,
            overhead=self.overhead + other.overhead,
        )

    def scaled(self, factor: float) -> "IterationTime":
        return IterationTime(
            linear=self.linear * factor,
            attention=self.attention * factor,
            others=self.others * factor,
            communication=self.communication * factor,
            overhead=self.overhead * factor,
        )


ZERO_TIME = IterationTime(0.0, 0.0, 0.0, 0.0, 0.0)
