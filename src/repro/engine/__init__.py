"""Discrete-event serving engine."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arrays": ("RequestArrays",),
    ".replica": ("EngineStats", "SimulationResult"),
    ".simulator": ("EventQueue",),
    ".vectorized": ("VectorizedReplicaEngine",),
})
