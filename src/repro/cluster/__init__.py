"""Multi-replica serving: routers and fleet simulation."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".router": (
        "Router",
        "RoundRobinRouter",
        "LeastTokensRouter",
        "FleetRouter",
        "ReplicaSnapshot",
        "LeastOutstandingTokensRouter",
        "SloAwareRouter",
        "as_fleet_router",
    ),
    ".fleet": (
        "ReplicaFault",
        "FaultKind",
        "FaultSchedule",
        "FailureDomain",
        "partition_domains",
        "AdmissionPolicy",
        "FleetConfig",
        "FleetEvent",
        "FleetResult",
        "FleetSimulator",
        "simulate_fleet",
    ),
    ".health": ("HealthConfig", "HealthMonitor"),
    ".degradation": ("BrownoutConfig", "BrownoutController", "DegradationLevel"),
})
