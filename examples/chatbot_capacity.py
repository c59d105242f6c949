#!/usr/bin/env python
"""Capacity planning for an interactive chatbot.

The scenario from the paper's introduction: a chatbot must keep every
token stream fluid (strict P99 TBT SLO) while serving as many users as
possible per GPU.  This example searches the maximum sustainable
queries-per-second for each scheduler on Yi-34B (2×A100, TP2) over the
openchat_sharegpt4 workload and reports the cost implication.

Run:  python examples/chatbot_capacity.py          (takes ~a minute)
"""

from __future__ import annotations

from repro.experiments.capacity_runner import measure_capacity, serving_config_for
from repro.experiments.common import Scale, yi_deployment
from repro.metrics.slo import derived_slo
from repro.workload.datasets import SHAREGPT4

SCALE = Scale(num_requests=96, capacity_rel_tol=0.2, capacity_max_probes=9)


def main() -> None:
    deployment = yi_deployment()
    slo = derived_slo(deployment.execution_model(), strict=True)
    print(f"deployment: {deployment.label}")
    print(f"SLO: P99 TBT <= {slo.p99_tbt * 1e3:.0f} ms "
          f"(5x the reference decode latency), "
          f"median queueing delay <= {slo.max_median_scheduling_delay:.0f}s\n")

    capacities = {}
    for kind in ("orca", "vllm", "sarathi"):
        config = serving_config_for(deployment, kind, strict=True)
        result = measure_capacity(
            deployment, kind, SHAREGPT4, slo, SCALE, config=config, qps_hint=1.0
        )
        capacities[kind] = result.capacity_qps
        print(f"{kind:10s} capacity: {result.capacity_qps:5.2f} qps "
              f"({result.num_probes} probes)")

    baseline = capacities["vllm"]
    sarathi = capacities["sarathi"]
    if baseline > 0:
        gain = sarathi / baseline
        print(
            f"\nSarathi-Serve sustains {gain:.1f}x the load of vLLM under "
            f"this SLO — the same user base needs ~{100 / gain:.0f}% of the "
            "GPUs (paper reports up to 3.7x for Yi-34B)."
        )


if __name__ == "__main__":
    main()
