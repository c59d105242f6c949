"""Multi-round conversation workloads (closed-loop).

The openchat_sharegpt4 dataset is conversational: "a conversation may
contain multiple rounds of interactions … each such interaction round
is performed as a separate request" (§5).  This module models that
structure explicitly: each conversation issues its next round only
after the previous round's response finishes plus a user think time,
and every round's prompt carries the accumulated context (all prior
prompts and responses) plus a fresh user turn.

Rounds are tagged for the KV prefix cache (``Request.prefix_id`` /
``prefix_len``) according to ``ConversationSpec.prefix_mode``, so with
``ServingConfig.prefix_cache=True`` a follow-up round prefills only
its novel suffix.  Conversation identities come from a workload-local
counter — deterministic for a given seed, independent of the global
request-id counter, and therefore identical across engine runs.

Drive it through the replica engine's ``run(..., followup_fn=...)``
hook — see :func:`simulate_conversations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import Deployment, ServingConfig, build_engine
from repro.engine.replica import SimulationResult
from repro.metrics.summary import RunMetrics, summarize
from repro.types import Request
from repro.workload.distributions import LengthDistribution, LogNormalLengths

PREFIX_MODES = ("conversation", "unique", "none")


@dataclass(frozen=True)
class ConversationSpec:
    """Shape of a multi-round chat workload."""

    num_conversations: int
    first_turn_lengths: LengthDistribution = field(
        default_factory=lambda: LogNormalLengths(median=600, p90=2200, min_len=16)
    )
    followup_turn_lengths: LengthDistribution = field(
        default_factory=lambda: LogNormalLengths(median=120, p90=500, min_len=8)
    )
    response_lengths: LengthDistribution = field(
        default_factory=lambda: LogNormalLengths(median=300, p90=700, min_len=4)
    )
    mean_rounds: float = 3.0          # geometric number of rounds, >= 1
    mean_think_time: float = 5.0      # exponential pause between rounds (s)
    arrival_qps: float = 0.5          # Poisson arrivals of conversations
    max_context: int = 8192           # conversations stop at the cap
    # How rounds announce shared history to the prefix cache:
    # "conversation" tags every round with its conversation's id and
    # the accumulated context as the attested prefix; "unique" gives
    # every request a fresh id (a 100%-miss workload, used by the
    # differential suite and the cache-off smoke); "none" leaves
    # requests untagged.
    prefix_mode: str = "conversation"

    def __post_init__(self) -> None:
        if self.num_conversations <= 0:
            raise ValueError("num_conversations must be positive")
        if self.mean_rounds < 1.0:
            raise ValueError("mean_rounds must be >= 1")
        if self.mean_think_time < 0:
            raise ValueError("mean_think_time must be non-negative")
        if self.arrival_qps <= 0:
            raise ValueError("arrival_qps must be positive")
        if self.max_context < 3:
            raise ValueError("max_context must be >= 3 (turn + one output token)")
        if self.prefix_mode not in PREFIX_MODES:
            raise ValueError(
                f"unknown prefix_mode {self.prefix_mode!r}; "
                f"choose one of {PREFIX_MODES}"
            )


@dataclass
class _ConversationState:
    conversation_id: int
    rounds_left: int
    context_len: int


class ConversationWorkload:
    """Stateful generator wiring conversations into the engine hook."""

    def __init__(self, spec: ConversationSpec, seed: int = 0) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self._states: dict[int, _ConversationState] = {}
        self._next_conversation_id = 0
        self._next_unique_id = 0
        self.num_rounds_issued = 0

    # ------------------------------------------------------------------
    def initial_requests(self) -> list[Request]:
        """First rounds of every conversation, Poisson-spaced."""
        spec = self.spec
        gaps = self._rng.exponential(1.0 / spec.arrival_qps, spec.num_conversations)
        arrivals = np.cumsum(gaps)
        requests = []
        for arrival in arrivals:
            prompt = spec.first_turn_lengths.sample(self._rng)
            output = spec.response_lengths.sample(self._rng)
            prompt, output = self._clip(prompt, output, context=0)
            conversation_id = self._next_conversation_id
            self._next_conversation_id += 1
            request = Request(
                prompt_len=prompt,
                output_len=output,
                arrival_time=float(arrival),
                **self._prefix_fields(conversation_id, context=0),
            )
            # Geometric((1/mean)) rounds, at least one (this one).
            p = 1.0 / spec.mean_rounds
            total_rounds = int(self._rng.geometric(p))
            self._states[request.request_id] = _ConversationState(
                conversation_id=conversation_id,
                rounds_left=total_rounds - 1,
                context_len=prompt + output,
            )
            self.num_rounds_issued += 1
            requests.append(request)
        return requests

    def followup(self, finished: Request, now: float) -> list[Request]:
        """Engine hook: issue the conversation's next round, if any."""
        state = self._states.pop(finished.request_id, None)
        if state is None or state.rounds_left <= 0:
            return []
        spec = self.spec
        # The cap check must leave room for the round *being added*: at
        # least one fresh turn token and one output token.  (The old
        # check compared the bare history against the cap, so a
        # conversation one token under it still issued an over-cap
        # round.)
        if state.context_len > spec.max_context - 2:
            return []
        think = float(self._rng.exponential(spec.mean_think_time))
        turn = spec.followup_turn_lengths.sample(self._rng)
        output = spec.response_lengths.sample(self._rng)
        # Clamp the turn so prompt = context + turn leaves at least one
        # output token under the cap; >= 1 by the check above.
        turn = min(turn, spec.max_context - 1 - state.context_len)
        prompt = state.context_len + turn   # full history re-prefilled
        prompt, output = self._clip(prompt, output, context=state.context_len)
        request = Request(
            prompt_len=prompt,
            output_len=output,
            arrival_time=now + think,
            **self._prefix_fields(state.conversation_id, context=state.context_len),
        )
        self._states[request.request_id] = _ConversationState(
            conversation_id=state.conversation_id,
            rounds_left=state.rounds_left - 1,
            context_len=prompt + output,
        )
        self.num_rounds_issued += 1
        return [request]

    # ------------------------------------------------------------------
    def _prefix_fields(self, conversation_id: int, context: int) -> dict:
        mode = self.spec.prefix_mode
        if mode == "conversation":
            # The attested prefix is exactly the accumulated history:
            # everything before this round's fresh turn is shared with
            # the previous round's published context.
            return {"prefix_id": conversation_id, "prefix_len": context}
        if mode == "unique":
            unique = self._next_unique_id
            self._next_unique_id += 1
            return {"prefix_id": unique, "prefix_len": 0}
        return {}

    def _clip(self, prompt: int, output: int, context: int) -> tuple[int, int]:
        """Clamp one round so accumulated context never exceeds the cap.

        ``context`` is the true history carried into the round (0 for a
        first round); the prompt already contains it and can only be
        clipped down to ``context + 1`` — history is materialized KV
        and cannot shrink.  The output allowance is whatever the cap
        leaves after the prompt.
        """
        max_total = self.spec.max_context
        prompt = min(prompt, max(context + 1, max_total - 1))
        output = min(output, max(1, max_total - prompt))
        return prompt, output


def simulate_conversations(
    deployment: Deployment,
    config: ServingConfig,
    spec: ConversationSpec,
    seed: int = 0,
) -> tuple[SimulationResult, RunMetrics]:
    """Run a closed-loop conversation workload end to end."""
    workload = ConversationWorkload(spec, seed=seed)
    engine = build_engine(deployment, config)
    result = engine.run(workload.initial_requests(), followup_fn=workload.followup)
    return result, summarize(result)
