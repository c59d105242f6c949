"""A third-party scheduler through the documented plug-in protocol.

The policy below lives in this test module — deliberately *outside*
``repro.scheduling`` — and touches only the documented surface:
:class:`repro.scheduling.SchedulingPolicy` (the batch-composition
hook), the optional ``admit`` admission hook, and
:func:`repro.scheduling.register_policy`.  If these tests break, the
public protocol broke.
"""

from __future__ import annotations

import pytest

from repro.api import ServingConfig, build_vectorized_scheduler, simulate
from repro.scheduling import (
    BatchDirective,
    PoolView,
    SchedulingPolicy,
    register_policy,
    registered_names,
    resolve,
    unregister,
)
from tests.conftest import Harness, make_request


class ToyShortestPromptPolicy(SchedulingPolicy):
    """Shortest-prompt-first with a chunk cap and a defer-once gate.

    Small enough to fit in a docstring, yet it exercises every hook:
    batch composition (ordering + chunking), and fleet admission
    (every request is deferred exactly once before being admitted).
    """

    name = "toy-shortest-prompt"

    def __init__(self, chunk_cap: int = 64, deferred: set[int] | None = None) -> None:
        self.chunk_cap = chunk_cap
        # Shared across replicas (each fleet replica builds its own
        # scheduler), so a request deferred by one replica is admitted
        # wherever its retry lands.
        self.deferred_once = set() if deferred is None else deferred

    def compose_batch(self, pool: PoolView) -> list[BatchDirective]:
        directives = [
            BatchDirective(r) for r in pool.decodes if r.is_prefill_complete
        ]
        prefills = sorted(
            [r for r in pool.runnable if not r.is_prefill_complete],
            key=lambda r: (r.prompt_len, r.arrival_time, r.request_id),
        )
        directives.extend(
            BatchDirective(r, chunk=min(self.chunk_cap, pool.token_budget))
            for r in prefills
        )
        return directives

    def admit(self, snapshot, request, now: float) -> bool:
        if request.request_id in self.deferred_once:
            return True
        self.deferred_once.add(request.request_id)
        return False


@pytest.fixture
def toy_registered():
    deferred: set[int] = set()
    register_policy(
        "toy_shortest_prompt",
        lambda ctx: ToyShortestPromptPolicy(deferred=deferred),
        description="test-only shortest-prompt-first plug-in",
    )
    try:
        yield "toy_shortest_prompt"
    finally:
        unregister("toy_shortest_prompt")


class TestToyPolicySimulate:
    def test_registers_and_resolves(self, toy_registered):
        assert toy_registered in registered_names()
        spec = resolve(toy_registered)
        assert spec.memory_family == "paged"

    def test_runs_through_simulate(self, tiny_deployment, toy_registered):
        trace = [
            make_request(prompt_len=64 * (1 + i % 4), output_len=8, arrival_time=0.1 * i)
            for i in range(12)
        ]
        config = ServingConfig(scheduler=toy_registered, token_budget=256)
        result, metrics = simulate(tiny_deployment, config, trace)
        assert not result.unfinished
        assert all(r.is_finished for r in result.requests)
        assert metrics.p99_tbt > 0

    def test_policy_orders_prefills_shortest_first(self, tiny_deployment, toy_registered):
        scheduler = build_vectorized_scheduler(
            tiny_deployment, ServingConfig(scheduler=toy_registered, token_budget=64)
        )
        assert scheduler.policy.name == "toy-shortest-prompt"
        harness = Harness(scheduler)
        long = harness.add(make_request(prompt_len=512, output_len=4), now=0.0)
        short = harness.add(make_request(prompt_len=32, output_len=4), now=0.0)
        batch = harness.schedule(now=0.0)
        # 64-token budget: the short prompt (32 tokens) schedules first
        # and whole; the long one only gets the leftover 32-token chunk.
        assert batch.p_rows == [short, long]
        assert batch.p_chunk == [32, 32]
        assert batch.num_tokens == 64

    def test_unregister_restores_unknown_error(self, tiny_deployment):
        register_policy(
            "toy_transient",
            lambda ctx: ToyShortestPromptPolicy(),
            description="transient",
        )
        unregister("toy_transient")
        with pytest.raises(ValueError, match="unknown scheduler"):
            build_vectorized_scheduler(
                tiny_deployment, ServingConfig(scheduler="toy_transient")
            )


class TestToyPolicyFleet:
    def test_admission_hook_defers_then_admits(self, tiny_deployment, toy_registered):
        from repro.cluster.fleet import FleetConfig, simulate_fleet

        trace = [
            make_request(prompt_len=96, output_len=6, arrival_time=0.2 * i)
            for i in range(10)
        ]
        config = ServingConfig(scheduler=toy_registered, token_budget=256)
        result, _ = simulate_fleet(
            tiny_deployment, config, trace, FleetConfig(num_replicas=2)
        )
        # Every request was deferred exactly once by the policy's
        # admission hook, then admitted on the backoff retry.
        deferrals = [
            e for e in result.events if e.kind == "reject" and e.reason == "policy_deferred"
        ]
        assert len(deferrals) == len(trace)
        assert result.num_rejections == len(trace)
        assert result.num_shed == 0
        assert not result.merged().unfinished
