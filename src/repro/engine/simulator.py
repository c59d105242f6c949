"""Minimal discrete-event core: a clock and an ordered event queue.

Events are ``(time, kind, payload)``; ties break by insertion order so
the simulation is fully deterministic for a given input.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any


class EventQueue:
    """Deterministic min-heap of timestamped events.

    Entries are ``(time, seq, kind, payload)`` tuples; ``seq`` is unique,
    so the heap compares in C and never reaches the payload.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, Any]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def push(self, time: float, kind: str, payload: Any = None) -> None:
        if not math.isfinite(time):
            # NaN compares false against everything, so a NaN-timed
            # entry would silently corrupt the heap invariant instead
            # of failing; reject inf alongside it for the same reason.
            raise ValueError(f"cannot schedule event at non-finite time {time!r}")
        if time < self.now - 1e-9:
            raise ValueError(f"cannot schedule event at {time} before now={self.now}")
        heapq.heappush(self._heap, (time, next(self._counter), kind, payload))

    def peek_time(self) -> float | None:
        """The timestamp of the next event, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._check_finite(self._heap[0][0])

    def pop(self) -> tuple[float, str, Any]:
        time, _, kind, payload = heapq.heappop(self._heap)
        self.now = self._check_finite(time)
        return time, kind, payload

    def _check_finite(self, time: float) -> float:
        # Guarded on pop/peek as well as push: an entry that slipped in
        # around ``push`` (direct heap surgery, a buggy subclass) must
        # fail loudly here — a NaN at the heap root compares false
        # against everything and silently reorders every later pop.
        if not math.isfinite(time):
            raise ValueError(f"event queue contains non-finite time {time!r}")
        return time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
