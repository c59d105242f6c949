"""Discrete-event serving engine."""

from repro.engine.arrays import RequestArrays
from repro.engine.replica import EngineStats, SimulationResult
from repro.engine.simulator import EventQueue
from repro.engine.vectorized import VectorizedReplicaEngine

__all__ = [
    "EngineStats",
    "EventQueue",
    "RequestArrays",
    "SimulationResult",
    "VectorizedReplicaEngine",
]
