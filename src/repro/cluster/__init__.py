"""Multi-replica serving: routers and fleet simulation."""

from repro.cluster.degradation import (
    BrownoutConfig,
    BrownoutController,
    DegradationLevel,
)
from repro.cluster.fleet import (
    AdmissionPolicy,
    FailureDomain,
    FaultKind,
    FaultSchedule,
    FleetConfig,
    FleetEvent,
    FleetResult,
    FleetSimulator,
    ReplicaFault,
    partition_domains,
    simulate_fleet,
)
from repro.cluster.health import HealthConfig, HealthMonitor
from repro.cluster.router import (
    FleetRouter,
    LeastOutstandingTokensRouter,
    LeastTokensRouter,
    ReplicaSnapshot,
    RoundRobinRouter,
    Router,
    SloAwareRouter,
    as_fleet_router,
)

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastTokensRouter",
    "FleetRouter",
    "ReplicaSnapshot",
    "LeastOutstandingTokensRouter",
    "SloAwareRouter",
    "as_fleet_router",
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
    "HealthConfig",
    "HealthMonitor",
    "BrownoutConfig",
    "BrownoutController",
    "DegradationLevel",
]
