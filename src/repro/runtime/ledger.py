"""Append-only run ledger: crash-safe journaling of sweep task outcomes.

A multi-hour sweep that dies at cell 47/48 should not owe the world 47
recomputations.  The ledger gives every ``map_tasks`` call a durable
record of what already finished:

* the sweep is identified by a **fingerprint** — sha256 over the
  canonical ``repr`` of the task function and every item, so a ledger
  can never be replayed against a different grid;
* every completed :class:`~repro.runtime.engine.TaskOutcome` is
  appended as one self-checksummed JSONL line (pickled value, base64),
  flushed and fsynced before the sweep moves on — a ``kill -9`` loses
  at most the cells in flight;
* ``--resume`` loads the ledger back and skips every recorded index;
  replayed values are pickle round-trips, so a resumed sweep is
  bit-identical to an uninterrupted one;
* a corrupt line (torn write, flipped bits, truncation) fails its
  checksum and degrades to *recompute that cell*, never to an error.

File layout: ``<run_dir>/ledger-<fingerprint16>.jsonl`` — a header line
(`magic`, version, full fingerprint, task count) followed by one task
line per completed outcome.  Opening a ledger for resume compacts it:
valid lines are rewritten atomically, corrupt ones dropped.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.runtime.engine import TaskOutcome

LEDGER_MAGIC = "repro-sweep-ledger"
LEDGER_VERSION = 1


def sweep_fingerprint(fn: Any, items: list[Any]) -> str:
    """sha256 identity of one sweep: the task function plus every item.

    Built from canonical ``repr``\\ s (dataclass reprs are deterministic),
    so equal spec lists fingerprint equal across processes and runs,
    and any reordering, addition or edit changes the fingerprint.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{getattr(fn, '__module__', '')}.{getattr(fn, '__qualname__', repr(fn))}".encode())
    hasher.update(f"#{len(items)}".encode())
    for item in items:
        hasher.update(b"\x00")
        hasher.update(repr(item).encode())
    return hasher.hexdigest()


def _checksum(record: dict[str, Any]) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def encode_outcome(outcome: "TaskOutcome") -> str:
    """One outcome as a self-checksummed JSON line (no trailing newline)."""
    record = {
        "kind": "task",
        "index": outcome.index,
        "worker_pid": outcome.worker_pid,
        "seconds": outcome.seconds,
        "payload": base64.b64encode(
            pickle.dumps(outcome.value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii"),
    }
    record["sha256"] = _checksum(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def decode_outcome(line: str) -> "TaskOutcome | None":
    """Parse one ledger line back into an outcome; ``None`` on any damage.

    Every failure mode — broken JSON, missing fields, checksum
    mismatch, unpicklable payload — returns ``None`` so the caller
    recomputes that cell instead of aborting the resume.  Lines that
    still carry the ``attempt`` field of older ledgers decode the same;
    the field is covered by the checksum and otherwise ignored.
    """
    from repro.runtime.engine import TaskOutcome

    try:
        record = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or record.get("kind") != "task":
        return None
    stated = record.pop("sha256", None)
    if stated != _checksum(record):
        return None
    try:
        value = pickle.loads(base64.b64decode(record["payload"]))
        return TaskOutcome(
            index=int(record["index"]),
            value=value,
            worker_pid=int(record["worker_pid"]),
            seconds=float(record["seconds"]),
            resumed=True,
        )
    except Exception:
        return None


class RunLedger:
    """One sweep's append-only outcome journal inside a run directory."""

    def __init__(self, run_dir: str | Path, fingerprint: str) -> None:
        self.run_dir = Path(run_dir)
        self.fingerprint = fingerprint
        self.path = self.run_dir / f"ledger-{fingerprint[:16]}.jsonl"
        self._handle = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> dict[int, "TaskOutcome"]:
        """Recorded outcomes by task index; ``{}`` when cold or foreign.

        A missing file, a bad/missing header, or a header naming a
        different fingerprint all read as an empty ledger.  Damaged
        task lines are skipped individually.  A later record for the
        same index wins.
        """
        try:
            # Flipped bytes may not be valid UTF-8; substitute rather
            # than raise, so only the damaged lines fail their checksum.
            lines = self.path.read_text(errors="replace").splitlines()
        except OSError:
            return {}
        if not lines or not self._header_ok(lines[0]):
            return {}
        outcomes: dict[int, "TaskOutcome"] = {}
        for line in lines[1:]:
            outcome = decode_outcome(line)
            if outcome is not None:
                outcomes[outcome.index] = outcome
        return outcomes

    def _header_ok(self, line: str) -> bool:
        try:
            header = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return False
        return (
            isinstance(header, dict)
            and header.get("kind") == "header"
            and header.get("magic") == LEDGER_MAGIC
            and header.get("version") == LEDGER_VERSION
            and header.get("fingerprint") == self.fingerprint
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def start(self, num_tasks: int, resume: bool) -> dict[int, "TaskOutcome"]:
        """Open the ledger for appending; recorded outcomes if resuming.

        Resume compacts the file first — header plus every valid task
        line, rewritten atomically — so damage never accumulates.  A
        fresh (non-resume) start truncates any previous ledger.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        recorded = self.load() if resume else {}
        header = {
            "kind": "header",
            "magic": LEDGER_MAGIC,
            "version": LEDGER_VERSION,
            "fingerprint": self.fingerprint,
            "num_tasks": num_tasks,
        }
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        with tmp.open("w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for index in sorted(recorded):
                handle.write(encode_outcome(recorded[index]) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._handle = self.path.open("a")
        return recorded

    def record(self, outcome: "TaskOutcome") -> None:
        """Append one completed outcome, flushed and fsynced."""
        if self._handle is None:
            raise RuntimeError("ledger not started")
        self._handle.write(encode_outcome(outcome) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
