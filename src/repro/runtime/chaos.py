"""Deterministic chaos injection for the sweep runtime.

The supervisor's recovery paths (worker death, hung tasks, corrupt
journals) only stay correct if they are exercised; this module makes
the faults themselves reproducible so recovery can be golden-tested:
the same seed injects the same kills into the same task attempts every
run, and — because faults only ever fire on a task's *first* attempt —
a chaos-ridden sweep retries its way to output **bit-identical** to the
unfaulted run.

Faults are drawn per ``(seed, index, attempt)`` from sha256, not from
shared RNG state, so the decision for one task never depends on how
many other tasks ran before it or on which worker picked it up.

Enable via ``REPRO_CHAOS`` / ``--chaos`` with a ``key=value`` spec::

    REPRO_CHAOS="kill=0.3,hang=0.1,seed=7" python -m repro reproduce fig10 --jobs 4

Knobs: ``kill`` (probability a task's first attempt SIGKILLs its
worker), ``hang`` (probability it wedges instead — pair with
``--task-timeout``), ``hang_seconds``, ``seed``, ``attempts`` (inject
on attempts < N; default 1).  Chaos only applies to worker processes
(``jobs >= 2``): killing the serial path would kill the caller.

:func:`corrupt_file` is the disk half of the harness — deterministic
byte flips for ledger corruption drills.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

CHAOS_ENV = "REPRO_CHAOS"

# Fault kinds, in draw order: one uniform draw per (task, attempt) is
# carved into [0, kill) -> kill, [kill, kill+hang) -> hang.
KILL = "kill"
HANG = "hang"


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection plan, picklable so workers can carry it."""

    seed: int = 0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    hang_seconds: float = 3600.0
    max_attempt: int = 1  # inject only while attempt < max_attempt

    def __post_init__(self) -> None:
        if not (0.0 <= self.kill_rate <= 1.0):
            raise ValueError(f"kill rate must be in [0, 1], got {self.kill_rate}")
        if not (0.0 <= self.hang_rate <= 1.0):
            raise ValueError(f"hang rate must be in [0, 1], got {self.hang_rate}")
        if self.kill_rate + self.hang_rate > 1.0:
            raise ValueError("kill + hang rates must not exceed 1")
        if self.hang_seconds <= 0:
            raise ValueError(f"hang_seconds must be positive, got {self.hang_seconds}")
        if self.max_attempt < 0:
            raise ValueError(f"max_attempt must be >= 0, got {self.max_attempt}")

    def __bool__(self) -> bool:
        return self.kill_rate > 0 or self.hang_rate > 0

    def draw(self, index: int, attempt: int) -> float:
        """Uniform [0, 1) for one task attempt, stable across processes."""
        digest = hashlib.sha256(
            f"{self.seed}:{index}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def decision(self, index: int, attempt: int) -> str | None:
        """``"kill"``, ``"hang"`` or ``None`` for one task attempt."""
        if attempt >= self.max_attempt:
            return None
        u = self.draw(index, attempt)
        if u < self.kill_rate:
            return KILL
        if u < self.kill_rate + self.hang_rate:
            return HANG
        return None

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig | None":
        """A config from a ``kill=0.2,hang=0.1,seed=3`` spec; None if off."""
        spec = spec.strip()
        if not spec or spec.lower() in ("0", "off", "none"):
            return None
        kwargs: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"chaos spec items must be key=value, got {part!r}"
                )
            key, _, value = part.partition("=")
            key = key.strip().replace("-", "_")
            try:
                if key in ("seed", "attempts", "max_attempt"):
                    kwargs["seed" if key == "seed" else "max_attempt"] = int(value)
                elif key in ("kill", "kill_rate"):
                    kwargs["kill_rate"] = float(value)
                elif key in ("hang", "hang_rate"):
                    kwargs["hang_rate"] = float(value)
                elif key == "hang_seconds":
                    kwargs["hang_seconds"] = float(value)
                else:
                    raise ValueError(f"unknown chaos knob {key!r}")
            except ValueError as exc:
                raise ValueError(f"bad chaos spec item {part!r}: {exc}") from None
        config = cls(**kwargs)
        return config if config else None


def chaos_from_env() -> ChaosConfig | None:
    """The chaos plan from ``REPRO_CHAOS``, or None when unset/off."""
    return ChaosConfig.parse(os.environ.get(CHAOS_ENV, ""))


def inject(chaos: ChaosConfig | None, index: int, attempt: int) -> None:
    """Apply this attempt's fault (if any) inside a worker process.

    ``kill`` is an uncatchable SIGKILL — the worker vanishes mid-task,
    exactly like an OOM kill; ``hang`` sleeps past any sane task
    timeout, like a wedged collective or a deadlocked allocator.
    """
    if chaos is None:
        return
    fault = chaos.decision(index, attempt)
    if fault == KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == HANG:
        time.sleep(chaos.hang_seconds)


def corrupt_file(path: str | Path, seed: int = 0, num_bytes: int = 8) -> int:
    """Deterministically flip bytes of a file in place; bytes flipped.

    The disk-fault half of the chaos harness: tests aim it at ledger
    lines to prove a damaged journal degrades to recompute rather than
    crash.  Offsets and XOR masks derive from sha256 of the
    seed, so a drill is reproducible.  Empty/missing files flip 0.
    """
    path = Path(path)
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return 0
    if not data:
        return 0
    flipped = 0
    for i in range(num_bytes):
        digest = hashlib.sha256(f"corrupt:{seed}:{i}".encode()).digest()
        offset = int.from_bytes(digest[:8], "big") % len(data)
        mask = digest[8] or 0xFF
        data[offset] ^= mask
        flipped += 1
    path.write_bytes(bytes(data))
    return flipped
