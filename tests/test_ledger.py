"""Tests for the run ledger (``repro.runtime.ledger``) and how
``map_tasks`` journals to it.

The journal's contract: every recorded outcome replays bit-identically
on resume, any damaged line degrades to recomputing that one cell, and
a ledger can never be replayed against a different sweep.  A sweep cut
short by a task error or an interrupt propagates it, leaves exactly the
finished tasks in the ledger, and a resumed run computes only the rest.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.runtime import (
    RunLedger,
    TaskOutcome,
    decode_outcome,
    encode_outcome,
    map_tasks,
    sweep_fingerprint,
)
from repro.runtime.ledger import _checksum

FP = "ab" * 32
# Shares the first 16 chars (the ledger filename) with FP but differs
# beyond them — exercises the full-fingerprint header check.
FP_COLLIDING = FP[:16] + "c" * 48

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.tuples(st.integers(), st.floats(allow_nan=False)),
    st.lists(st.integers(), max_size=5),
)

outcomes = st.builds(
    TaskOutcome,
    index=st.integers(0, 10_000),
    value=values,
    worker_pid=st.integers(1, 1 << 22),
    seconds=st.floats(0, 1e6, allow_nan=False),
    resumed=st.just(False),
)


def outcome_of(index: int, value) -> TaskOutcome:
    return TaskOutcome(index=index, value=value, worker_pid=1234, seconds=0.5)


def triple_and_mark(arg: tuple[int, str]) -> int:
    """Marks each computed item on disk so tests can count recomputes."""
    x, marker_dir = arg
    (Path(marker_dir) / f"computed-{x}").touch()
    return x * 3


def triple_unless_poisoned(arg: tuple[int, str]) -> int:
    """``triple_and_mark``, but raises while a ``poison-<x>`` file exists."""
    x, marker_dir = arg
    if (Path(marker_dir) / f"poison-{x}").exists():
        raise ValueError(f"poisoned item {x}")
    return triple_and_mark(arg)


def triple_until_interrupted(arg: tuple[int, str]) -> int:
    """``triple_and_mark``, but a ``stop-<x>`` file turns item ``x`` into
    a Ctrl-C (``KeyboardInterrupt``) or a SIGTERM to the sweep process."""
    x, marker_dir = arg
    stop = Path(marker_dir) / f"stop-{x}"
    if stop.exists():
        if stop.read_text() == "sigterm":
            parent = multiprocessing.parent_process()
            os.kill(parent.pid if parent else os.getpid(), signal.SIGTERM)
            time.sleep(5)  # a worker waits here to be killed by the sweep
        raise KeyboardInterrupt
    return triple_and_mark(arg)


def corrupt_file(path: str | Path, seed: int = 0, num_bytes: int = 8) -> int:
    """Deterministically flip bytes of a file in place; bytes flipped.

    Offsets and XOR masks derive from sha256 of the seed, so a damaged
    ledger is reproducible.  Empty/missing files flip 0.
    """
    path = Path(path)
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return 0
    if not data:
        return 0
    for i in range(num_bytes):
        digest = hashlib.sha256(f"corrupt:{seed}:{i}".encode()).digest()
        offset = int.from_bytes(digest[:8], "big") % len(data)
        data[offset] ^= digest[8] or 0xFF
    path.write_bytes(bytes(data))
    return num_bytes


def ledger_indices(run_dir: Path, fn, items: list) -> set[int]:
    return set(RunLedger(run_dir, sweep_fingerprint(fn, items)).load())


def computed(markers: Path) -> set[int]:
    return {int(p.name.split("-")[1]) for p in markers.glob("computed-*")}


class TestEncodeDecode:
    @given(outcome=outcomes)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_exact(self, outcome):
        decoded = decode_outcome(encode_outcome(outcome))
        assert decoded is not None
        assert decoded.index == outcome.index
        assert decoded.value == outcome.value  # pickle: bit-exact floats
        assert decoded.worker_pid == outcome.worker_pid
        assert decoded.seconds == outcome.seconds
        assert decoded.resumed is True  # replayed records are marked

    def test_lines_with_an_attempt_field_still_decode(self):
        """Ledgers whose lines carry an ``attempt`` field (written when
        sweeps retried tasks) resume: the field is checksummed, then
        ignored."""
        record = {
            "kind": "task",
            "index": 3,
            "attempt": 0,
            "worker_pid": 77,
            "seconds": 1.25,
            "payload": base64.b64encode(pickle.dumps((9, "x"))).decode("ascii"),
        }
        record["sha256"] = _checksum(record)
        decoded = decode_outcome(json.dumps(record, sort_keys=True))
        assert decoded == TaskOutcome(
            index=3, value=(9, "x"), worker_pid=77, seconds=1.25, resumed=True
        )

    @given(outcome=outcomes, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_single_char_corruption_is_rejected(self, outcome, data):
        """The self-checksum catches every one-character mutation."""
        line = encode_outcome(outcome)
        position = data.draw(st.integers(0, len(line) - 1))
        replacement = data.draw(st.sampled_from('x0Z}"'))
        assume(line[position] != replacement)
        corrupt = line[:position] + replacement + line[position + 1:]
        assert decode_outcome(corrupt) is None

    def test_garbage_lines_are_rejected(self):
        assert decode_outcome("") is None
        assert decode_outcome("not json at all") is None
        assert decode_outcome("[1, 2, 3]") is None
        assert decode_outcome('{"kind": "header"}') is None
        assert decode_outcome('{"kind": "task", "index": 0}') is None


class TestSweepFingerprint:
    def test_stable_across_calls(self):
        items = [1, "two", (3, 4)]
        assert sweep_fingerprint(triple_and_mark, items) == sweep_fingerprint(
            triple_and_mark, items
        )

    def test_sensitive_to_order_content_and_function(self):
        base = sweep_fingerprint(triple_and_mark, [1, 2, 3])
        assert sweep_fingerprint(triple_and_mark, [2, 1, 3]) != base
        assert sweep_fingerprint(triple_and_mark, [1, 2]) != base
        assert sweep_fingerprint(triple_and_mark, [1, 2, 4]) != base
        assert sweep_fingerprint(outcome_of, [1, 2, 3]) != base


class TestRunLedger:
    def test_record_then_load_round_trips(self, tmp_path):
        ledger = RunLedger(tmp_path, FP)
        with ledger:
            assert ledger.start(num_tasks=3, resume=False) == {}
            ledger.record(outcome_of(0, "a"))
            ledger.record(outcome_of(2, (1.5, None)))
        loaded = ledger.load()
        assert sorted(loaded) == [0, 2]
        assert loaded[0].value == "a"
        assert loaded[2].value == (1.5, None)
        assert all(outcome.resumed for outcome in loaded.values())

    def test_later_record_wins_for_same_index(self, tmp_path):
        ledger = RunLedger(tmp_path, FP)
        with ledger:
            ledger.start(num_tasks=1, resume=False)
            ledger.record(outcome_of(0, "first"))
            ledger.record(outcome_of(0, "second"))
        assert ledger.load()[0].value == "second"

    def test_foreign_fingerprint_reads_empty(self, tmp_path):
        with RunLedger(tmp_path, FP) as ledger:
            ledger.start(num_tasks=1, resume=False)
            ledger.record(outcome_of(0, "a"))
        foreign = RunLedger(tmp_path, FP_COLLIDING)
        assert foreign.path == RunLedger(tmp_path, FP).path  # same file...
        assert foreign.load() == {}  # ...but the header check rejects it

    def test_corrupt_line_skips_only_that_cell(self, tmp_path):
        ledger = RunLedger(tmp_path, FP)
        with ledger:
            ledger.start(num_tasks=3, resume=False)
            for index in range(3):
                ledger.record(outcome_of(index, index * 10))
        lines = ledger.path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # tear record for index 1
        ledger.path.write_text("\n".join(lines) + "\n")
        assert sorted(ledger.load()) == [0, 2]

    def test_resume_compacts_damage_away(self, tmp_path):
        ledger = RunLedger(tmp_path, FP)
        with ledger:
            ledger.start(num_tasks=2, resume=False)
            ledger.record(outcome_of(0, "keep"))
        with ledger.path.open("a") as handle:
            handle.write("%% torn garbage line %%\n")
        with RunLedger(tmp_path, FP) as reopened:
            recorded = reopened.start(num_tasks=2, resume=True)
            assert sorted(recorded) == [0]
        assert "garbage" not in ledger.path.read_text()

    def test_fresh_start_truncates(self, tmp_path):
        ledger = RunLedger(tmp_path, FP)
        with ledger:
            ledger.start(num_tasks=1, resume=False)
            ledger.record(outcome_of(0, "old"))
        with RunLedger(tmp_path, FP) as reopened:
            assert reopened.start(num_tasks=1, resume=False) == {}
        assert ledger.load() == {}


class TestMapTasksResume:
    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        run_dir = tmp_path / "run"
        markers = tmp_path / "markers"
        markers.mkdir()
        items = [(i, str(markers)) for i in range(6)]

        first = map_tasks(triple_and_mark, items, jobs=1, run_dir=run_dir)
        assert not any(o.resumed for o in first)
        assert len(list(markers.glob("computed-*"))) == 6

        # Simulate a sweep killed after cell 3: drop the last two records.
        ledger_path = next(run_dir.glob("ledger-*.jsonl"))
        lines = ledger_path.read_text().splitlines()
        ledger_path.write_text("\n".join(lines[:5]) + "\n")  # header + 4 cells
        for marker in markers.glob("computed-*"):
            marker.unlink()

        second = map_tasks(triple_and_mark, items, jobs=1, run_dir=run_dir, resume=True)
        assert [o.value for o in second] == [o.value for o in first]  # bit-identical
        assert computed(markers) == {4, 5}  # exactly the missing cells
        assert {o.index for o in second if o.resumed} == {0, 1, 2, 3}

    def test_corrupted_ledger_degrades_to_recompute(self, tmp_path):
        run_dir = tmp_path / "run"
        markers = tmp_path / "markers"
        markers.mkdir()
        items = [(i, str(markers)) for i in range(6)]

        first = map_tasks(triple_and_mark, items, jobs=1, run_dir=run_dir)
        ledger_path = next(run_dir.glob("ledger-*.jsonl"))
        assert corrupt_file(ledger_path, seed=7, num_bytes=16) > 0

        second = map_tasks(triple_and_mark, items, jobs=1, run_dir=run_dir, resume=True)
        # Recomputed cells match exactly.
        assert [o.value for o in second] == [o.value for o in first]

    def test_without_resume_flag_ledger_is_ignored(self, tmp_path):
        items = [(i, str(tmp_path)) for i in range(3)]
        map_tasks(triple_and_mark, items, jobs=1, run_dir=tmp_path / "run")
        outcomes = map_tasks(triple_and_mark, items, jobs=1, run_dir=tmp_path / "run")
        assert not any(o.resumed for o in outcomes)


@pytest.mark.parametrize("jobs", [1, 2])
class TestMapTasksFailure:
    """A sweep cut short propagates, keeps its finished cells, resumes."""

    def test_task_error_propagates_and_resume_fills_the_gap(self, jobs, tmp_path):
        run_dir, markers = tmp_path / "run", tmp_path / "markers"
        markers.mkdir()
        items = [(i, str(markers)) for i in range(6)]
        (markers / "poison-3").touch()
        with pytest.raises(ValueError, match="poisoned item 3"):
            map_tasks(triple_unless_poisoned, items, jobs=jobs, run_dir=run_dir)
        assert not multiprocessing.active_children()  # no worker left behind
        journaled = ledger_indices(run_dir, triple_unless_poisoned, items)
        assert 3 not in journaled
        # Exactly the cells that finished are journaled: every journaled
        # cell ran, and a serial sweep stops at the failing cell.
        assert journaled <= computed(markers)
        if jobs == 1:
            assert journaled == computed(markers) == {0, 1, 2}

        (markers / "poison-3").unlink()
        for marker in markers.glob("computed-*"):
            marker.unlink()
        resumed = map_tasks(
            triple_unless_poisoned, items, jobs=jobs, run_dir=run_dir, resume=True
        )
        assert [o.value for o in resumed] == [x * 3 for x in range(6)]
        assert computed(markers) == set(range(6)) - journaled
        assert {o.index for o in resumed if o.resumed} == journaled

    @pytest.mark.parametrize("how", ["ctrl-c", "sigterm"])
    def test_interrupt_propagates_without_partial_result(self, jobs, how, tmp_path):
        run_dir, markers = tmp_path / "run", tmp_path / "markers"
        markers.mkdir()
        items = [(i, str(markers)) for i in range(6)]
        (markers / "stop-2").write_text("sigterm" if how == "sigterm" else "")
        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            map_tasks(triple_until_interrupted, items, jobs=jobs, run_dir=run_dir)
        assert signal.getsignal(signal.SIGTERM) is previous
        assert not multiprocessing.active_children()
        journaled = ledger_indices(run_dir, triple_until_interrupted, items)
        assert 2 not in journaled
        if jobs == 1:
            assert journaled == {0, 1}

        (markers / "stop-2").unlink()
        resumed = map_tasks(
            triple_until_interrupted, items, jobs=jobs, run_dir=run_dir, resume=True
        )
        assert [o.value for o in resumed] == [x * 3 for x in range(6)]
        assert {o.index for o in resumed if o.resumed} == journaled


class TestCorruptFile:
    def test_corrupt_file_is_deterministic(self, tmp_path):
        payload = bytes(range(256)) * 4
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(payload)
        b.write_bytes(payload)
        assert corrupt_file(a, seed=3) == corrupt_file(b, seed=3) == 8
        assert a.read_bytes() == b.read_bytes() != payload

    def test_corrupt_file_handles_empty_and_missing(self, tmp_path):
        empty = tmp_path / "empty"
        empty.touch()
        assert corrupt_file(empty) == 0
        assert corrupt_file(tmp_path / "nope") == 0
