#!/usr/bin/env python
"""Quickstart: serve a synthetic chatbot trace with Sarathi-Serve.

Builds a Mistral-7B-on-A100 deployment, generates 100 requests with
openchat_sharegpt4 length statistics arriving at 1.5 queries/second,
runs them through the stall-free scheduler, and prints the latency
summary next to a vLLM baseline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Deployment, ServingConfig, simulate
from repro.hardware import A100_80G
from repro.models import MISTRAL_7B
from repro.workload import SHAREGPT4, generate_requests


def main() -> None:
    deployment = Deployment(model=MISTRAL_7B, gpu=A100_80G)
    trace = generate_requests(SHAREGPT4, num_requests=100, qps=1.5, seed=0)
    print(f"deployment: {deployment.label}")
    print(f"trace: {len(trace)} requests, "
          f"median prompt {sorted(r.prompt_len for r in trace)[50]} tokens\n")

    header = f"{'scheduler':10s} {'P99 TBT':>9s} {'max TBT':>9s} {'med TTFT':>9s} {'tok/s':>8s}"
    print(header)
    print("-" * len(header))
    for kind in ("sarathi", "vllm"):
        config = ServingConfig(scheduler=kind, token_budget=512)
        _, metrics = simulate(deployment, config, trace)
        print(
            f"{kind:10s} {metrics.p99_tbt:8.3f}s {metrics.max_tbt:8.3f}s "
            f"{metrics.median_ttft:8.3f}s {metrics.throughput_tokens_per_s:8.0f}"
        )

    print(
        "\nSarathi-Serve's stall-free batching keeps the TBT tail near the "
        "decode-iteration latency; vLLM's eager prefills stall ongoing "
        "decodes for up to several hundred milliseconds even at this "
        "moderate load."
    )


if __name__ == "__main__":
    main()
