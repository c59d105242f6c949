"""Reproduction of *Sarathi-Serve* (Agrawal et al., OSDI 2024).

Chunked-prefills and stall-free batching for LLM inference serving,
implemented end to end on a discrete-event GPU-roofline simulator:

* ``repro.models`` / ``repro.hardware`` / ``repro.parallel`` — the
  model, device and parallelism catalogs (Table 1);
* ``repro.perf`` — the analytical execution-time model (§3.1);
* ``repro.memory`` — KV-cache capacity planning and prefix sharing;
* ``repro.scheduling`` — the four schedulers (Algorithms 1-3), the
  Table 4 ablations, their paged and reservation KV allocators, and
  the plug-in policy protocol;
* ``repro.engine`` — the event-driven replica/pipeline engine;
* ``repro.workload`` — Table 2 workload synthesis;
* ``repro.metrics`` — TTFT/TBT/SLO/capacity machinery (§2.4, §5.1);
* ``repro.api`` — the high-level ``Deployment``/``simulate`` facade.

Quickstart::

    from repro import Deployment, ServingConfig, simulate
    from repro.models import MISTRAL_7B
    from repro.hardware import A100_80G
    from repro.workload import SHAREGPT4, generate_requests

    deployment = Deployment(model=MISTRAL_7B, gpu=A100_80G)
    trace = generate_requests(SHAREGPT4, num_requests=100, qps=1.0, seed=0)
    result, metrics = simulate(deployment, ServingConfig(scheduler="sarathi"), trace)
    print(metrics.p99_tbt, metrics.median_ttft)
"""

from repro._exports import lazy_exports

__version__ = "0.1.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".api": (
        "Deployment",
        "ServingConfig",
        "simulate",
        "build_engine",
        "clone_requests",
    ),
    ".cluster.fleet": (
        "simulate_fleet",
        "FleetConfig",
        "FleetResult",
        "FaultSchedule",
        "ReplicaFault",
        "AdmissionPolicy",
    ),
    ".cluster.router": ("LeastOutstandingTokensRouter", "SloAwareRouter"),
    ".types": (
        "SchedulerKind",
        "PreemptionMode",
        "Request",
        "RequestPhase",
        "TokenWork",
        "IterationTime",
    ),
})
__all__.append("__version__")
