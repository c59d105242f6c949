"""Shared fixtures: small deployments and request factories.

Simulation tests run against the Tiny-1B catalog model so the whole
suite stays fast while exercising exactly the same code paths as the
paper-scale models.
"""

from __future__ import annotations

import pytest

from repro.api import Deployment
from repro.hardware.catalog import A100_80G, ETHERNET_100G
from repro.models.catalog import TINY_1B
from repro.parallel.config import ParallelConfig
from repro.types import Request

# The built-in schedulers' registry names, in registration order.
BUILTIN_NAMES = (
    "faster_transformer",
    "orca",
    "vllm",
    "sarathi",
    "sarathi_dynamic",
    "chunked_prefills_only",
    "hybrid_batching_only",
)

# The ids that parametrized scheduler tests have always carried, from
# when a scheduler was named by an enum member: keeping them keeps each
# test's name, and the history recorded under it, the same.
_PARAM_IDS = dict(zip(BUILTIN_NAMES, (
    "SchedulerKind.FASTER_TRANSFORMER",
    "SchedulerKind.ORCA",
    "SchedulerKind.VLLM",
    "SchedulerKind.SARATHI",
    "SchedulerKind.SARATHI_DYNAMIC",
    "SchedulerKind.CHUNKED_ONLY",
    "SchedulerKind.HYBRID_ONLY",
)))


def pytest_make_parametrize_id(config, val, argname):
    """Id a built-in scheduler passed as parameter ``kind`` by its
    historical id (``test_x[SchedulerKind.SARATHI]``).  A site that
    passes its own ``ids`` keeps them."""
    if argname == "kind" and isinstance(val, str):
        return _PARAM_IDS.get(val)
    return None


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (full differential matrix, big benches)",
    )


def pytest_collection_modifyitems(config, items) -> None:
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session", params=["vectorized"])
def core(request) -> str:
    """The replica engine under test: ``repro.engine.vectorized``.

    Whole-engine suites take this fixture so each test id names the core
    it ran on (``test_x[vectorized]``).  Session-scoped, so hypothesis
    tests may take it too.
    """
    return request.param


@pytest.fixture
def tiny_deployment() -> Deployment:
    """Tiny-1B on one A100 — the fast single-stage test deployment."""
    return Deployment(model=TINY_1B, gpu=A100_80G)


@pytest.fixture
def tiny_pp_deployment() -> Deployment:
    """Tiny-1B on two A100s with 2-way pipeline parallelism."""
    return Deployment(
        model=TINY_1B,
        gpu=A100_80G,
        parallel=ParallelConfig(pipeline_parallel=2, pp_link=ETHERNET_100G),
    )


def shrink_kv_memory(
    built, capacity_tokens: int = 4096, block_size: int = 16,
    prefix_cache: bool = False,
) -> None:
    """Swap a drastically smaller KV pool into a freshly built engine.

    How the determinism and differential suites force preemption
    pressure.  Call before ``run``.  ``prefix_cache`` attaches a fresh
    shared-prefix store, so cache behavior under memory pressure can be
    exercised too.
    """
    from repro.memory.prefix import SharedPrefixStore
    from repro.scheduling.vectorized import VecPagedMemory

    store = SharedPrefixStore(block_size=block_size) if prefix_cache else None
    built.scheduler.memory = VecPagedMemory(
        built.arrays,
        capacity_tokens=capacity_tokens,
        block_size=block_size,
        watermark=0.0,
        prefix_store=store,
    )


class Harness:
    """Drive a row scheduler by hand: add requests, schedule, commit.

    The unit-test counterpart of the engine loop — no pricing, no event
    queue, caller-chosen timestamps.
    """

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.A = scheduler.A

    def add(self, request: Request, now: float | None = None) -> int:
        row = self.A.ingest(request)
        self.scheduler.note_ingested(row)
        self.scheduler.add_row(row, request.arrival_time if now is None else now)
        return row

    def schedule(self, now: float):
        return self.scheduler.schedule(now)

    def complete(self, batch, now: float) -> list[int]:
        finished, _ = self.scheduler.on_batch_complete(batch, now)
        return finished

    def request(self, row: int) -> Request:
        """The row's Request with its serving state synced back."""
        return self.A.sync_row(row)

    def drain(self, step: float = 0.1, max_iters: int = 10_000) -> list:
        """Schedule/complete rounds until the scheduler has no work."""
        now = 0.0
        batches = []
        for _ in range(max_iters):
            batch = self.schedule(now)
            if batch is None:
                if not self.scheduler.has_work:
                    break
                now += step
                continue
            batches.append(batch)
            now += step
            self.complete(batch, now)
        return batches

    def finished(self, row: int) -> bool:
        return self.request(row).is_finished


def harness(scheduler_cls, capacity_tokens: int = 4096, *, memory: str = "paged",
            block_size: int = 16, watermark: float = 0.0, reserve_len: int = 512,
            **kwargs) -> Harness:
    """A fresh scheduler over a fresh row store and allocator."""
    from repro.engine.arrays import RequestArrays
    from repro.scheduling.vectorized import VecPagedMemory, VecReservationMemory

    arrays = RequestArrays()
    if memory == "paged":
        mem = VecPagedMemory(arrays, capacity_tokens, block_size=block_size,
                             watermark=watermark)
    else:
        mem = VecReservationMemory(arrays, capacity_tokens, reserve_len=reserve_len)
    return Harness(scheduler_cls(arrays, mem, **kwargs))


def make_request(
    prompt_len: int = 64,
    output_len: int = 8,
    arrival_time: float = 0.0,
) -> Request:
    """A request with small defaults for unit tests."""
    return Request(
        prompt_len=prompt_len, output_len=output_len, arrival_time=arrival_time
    )


@pytest.fixture
def request_factory():
    return make_request
