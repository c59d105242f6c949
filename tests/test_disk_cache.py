"""Tests for the persistent perf cache (``repro.perf.disk_cache``).

The store must round-trip snapshots *exactly* (pickle preserves float
bits), key them by configuration fingerprint, merge by union, and
degrade to a cold start — never an error — on missing, corrupt or
version-skewed files.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Deployment, ServingConfig, execution_model_for, simulate
from repro.hardware.catalog import A100_80G, A40_48G
from repro.models.catalog import TINY_1B
from repro.perf.cache import (
    SNAPSHOT_VERSION,
    CachedExecutionModel,
    CacheSnapshot,
    execution_fingerprint,
)
from repro.perf.disk_cache import FILE_MAGIC, PersistentPerfCache
from repro.types import SchedulerKind
from repro.workload.datasets import SHAREGPT4, generate_requests

FP = "a" * 20

floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
work_keys = st.tuples(
    st.integers(0, 1 << 14), st.integers(0, 1 << 14), st.booleans()
)


def snapshots(fingerprint: str = FP):
    """Snapshots with random work/token tiers (exact-value payloads)."""
    return st.builds(
        CacheSnapshot,
        fingerprint=st.just(fingerprint),
        work=st.dictionaries(work_keys, floats, max_size=24),
        token=st.dictionaries(
            st.integers(0, 1 << 12), st.tuples(floats, floats), max_size=12
        ),
    )


def warmed_model(deployment: Deployment) -> CachedExecutionModel:
    """A cached model populated by an actual simulation (the dynamic
    scheduler prices candidate budgets through it)."""
    config = ServingConfig(scheduler=SchedulerKind.SARATHI_DYNAMIC, token_budget=256)
    model = execution_model_for(deployment, config)
    trace = generate_requests(SHAREGPT4, num_requests=8, qps=1.0, seed=3)
    simulate(deployment, config, trace, exec_model=model)
    assert model.num_entries > 0
    return model


class TestRoundTrip:
    @given(snapshot=snapshots())
    @settings(max_examples=25, deadline=None)
    def test_save_load_is_exact(self, tmp_path_factory, snapshot):
        cache = PersistentPerfCache(tmp_path_factory.mktemp("perf"))
        cache.merge(snapshot)
        loaded = cache.load(snapshot.fingerprint)
        # Bit-exact: == on floats, no tolerance.
        assert loaded == snapshot

    @given(first=snapshots(), second=snapshots())
    @settings(max_examples=25, deadline=None)
    def test_merge_is_union(self, tmp_path_factory, first, second):
        cache = PersistentPerfCache(tmp_path_factory.mktemp("perf"))
        cache.merge(first)
        cache.merge(second)
        loaded = cache.load(FP)
        assert set(loaded.work) == set(first.work) | set(second.work)
        assert set(loaded.token) == set(first.token) | set(second.token)
        for key, value in second.work.items():
            assert loaded.work[key] == value  # later merge wins overlaps

    def test_model_warm_restores_every_entry(self, tmp_path, tiny_deployment):
        model = warmed_model(tiny_deployment)
        cache = PersistentPerfCache(tmp_path)
        assert cache.persist(model) == model.num_entries

        fresh = execution_model_for(tiny_deployment, ServingConfig(token_budget=256))
        assert cache.warm(fresh) == model.num_entries
        assert fresh.export_snapshot() == model.export_snapshot()


class TestFingerprints:
    def test_distinct_configurations_distinct_fingerprints(self):
        a100 = Deployment(model=TINY_1B, gpu=A100_80G).execution_model()
        a40 = Deployment(model=TINY_1B, gpu=A40_48G).execution_model()
        fp_a100 = execution_fingerprint(
            a100.model, a100.gpu, a100.parallel, a100.calibration
        )
        fp_a40 = execution_fingerprint(
            a40.model, a40.gpu, a40.parallel, a40.calibration
        )
        assert fp_a100 != fp_a40
        # Stable across calls (it keys files on disk).
        assert fp_a100 == execution_fingerprint(
            a100.model, a100.gpu, a100.parallel, a100.calibration
        )

    def test_stores_are_segregated_by_fingerprint(self, tmp_path):
        cache = PersistentPerfCache(tmp_path)
        cache.merge(CacheSnapshot(fingerprint="b" * 20, work={(1, 2, True): 3.0}))
        assert cache.load(FP) is None
        assert sorted(cache.fingerprints()) == ["b" * 20]

    def test_model_rejects_foreign_snapshot(self, tiny_deployment):
        model = CachedExecutionModel(tiny_deployment.execution_model())
        with pytest.raises(ValueError, match="fingerprint"):
            model.load_snapshot(CacheSnapshot(fingerprint=FP))


class TestMergeLock:
    def test_lock_released_after_merge(self, tmp_path):
        cache = PersistentPerfCache(tmp_path)
        cache.merge(CacheSnapshot(fingerprint=FP, work={(1, 1, True): 2.0}))
        assert not cache.lock_path_for(FP).exists()

    def test_stale_lock_is_broken(self, tmp_path, monkeypatch):
        import os

        cache = PersistentPerfCache(tmp_path)
        lock = cache.lock_path_for(FP)
        lock.touch()
        # Age the lock past the stale threshold: its holder "crashed".
        old = 10_000.0
        os.utime(lock, (old, old))
        snapshot = CacheSnapshot(fingerprint=FP, work={(1, 1, True): 2.0})
        cache.merge(snapshot)  # must not wait out LOCK_TIMEOUT
        assert cache.load(FP) == snapshot
        assert not lock.exists()

    def test_held_lock_times_out_to_unlocked_merge(self, tmp_path, monkeypatch):
        import repro.perf.disk_cache as disk_cache

        monkeypatch.setattr(disk_cache, "LOCK_TIMEOUT", 0.05)
        cache = PersistentPerfCache(tmp_path)
        lock = cache.lock_path_for(FP)
        lock.touch()  # a live holder that never releases
        snapshot = CacheSnapshot(fingerprint=FP, work={(2, 2, False): 4.0})
        cache.merge(snapshot)  # degrades to unlocked, never deadlocks
        assert cache.load(FP) == snapshot
        assert lock.exists()  # the foreign lock is not ours to remove
        lock.unlink()

    def test_concurrent_merges_lose_no_entries(self, tmp_path):
        """The lost-update drill: disjoint merges from many threads."""
        from concurrent.futures import ThreadPoolExecutor

        cache = PersistentPerfCache(tmp_path)
        snapshots = [
            CacheSnapshot(fingerprint=FP, work={(i, i, True): float(i)})
            for i in range(16)
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(cache.merge, snapshots))
        loaded = cache.load(FP)
        assert set(loaded.work) == {(i, i, True) for i in range(16)}


class TestColdStartOnBadFiles:
    def test_missing_file(self, tmp_path):
        assert PersistentPerfCache(tmp_path).load(FP) is None

    def test_corrupt_file(self, tmp_path):
        cache = PersistentPerfCache(tmp_path)
        cache.path_for(FP).write_bytes(b"not a pickle")
        assert cache.load(FP) is None
        # And a merge over the corrupt file replaces it cleanly.
        snapshot = CacheSnapshot(fingerprint=FP, work={(1, 1, False): 2.0})
        cache.merge(snapshot)
        assert cache.load(FP) == snapshot

    def test_version_skew(self, tmp_path):
        cache = PersistentPerfCache(tmp_path)
        stale = CacheSnapshot(fingerprint=FP, version=SNAPSHOT_VERSION + 1)
        with cache.path_for(FP).open("wb") as fh:
            pickle.dump({"magic": FILE_MAGIC, "snapshot": stale}, fh)
        assert cache.load(FP) is None

    def test_wrong_magic(self, tmp_path):
        cache = PersistentPerfCache(tmp_path)
        payload = {"magic": "something-else", "snapshot": CacheSnapshot(fingerprint=FP)}
        with cache.path_for(FP).open("wb") as fh:
            pickle.dump(payload, fh)
        assert cache.load(FP) is None
