"""Workload shapes shared by the golden digests."""

from __future__ import annotations

import random

from repro.types import Request
from repro.workload.datasets import (
    ARXIV_SUMMARIZATION,
    SHAREGPT4,
    generate_requests,
)


def _decode_heavy(num_requests: int, seed: int) -> list[Request]:
    """Short prompts, long generations: stresses decode batching,
    KV growth at schedule time, and the preemption machinery."""
    rng = random.Random(seed)
    now = 0.0
    trace = []
    for _ in range(num_requests):
        now += rng.expovariate(4.0)
        trace.append(
            Request(
                prompt_len=rng.randint(32, 96),
                output_len=rng.randint(16, 64),
                arrival_time=now,
            )
        )
    return trace


# The three workload shapes of the golden matrix: a chat-style mixed
# trace, a long-prompt summarization trace, and a synthetic
# decode-heavy trace.
WORKLOADS = {
    "sharegpt": lambda n, seed: generate_requests(
        SHAREGPT4, num_requests=n, qps=2.0, seed=seed
    ),
    "arxiv": lambda n, seed: generate_requests(
        ARXIV_SUMMARIZATION, num_requests=n, qps=1.0, seed=seed
    ),
    "decode_heavy": _decode_heavy,
}
