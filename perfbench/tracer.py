"""In-memory span tracer that wraps the simulator's layer entry points.

The tracer patches the public functions listed in ``SPANS`` and
``COUNTERS`` from outside the program: it never edits ``src/``.  A
function that no longer exists is skipped, and the metrics derived
from it are then absent from the report instead of crashing the run.

Each span records its name, start, end, parent span and, when the
wrapped call takes a request, that request's id.  Spans are kept in
flat arrays while the run lasts and written out once at the end.  A
span's self time is its duration minus the time its traced child
spans cover, so the self times of all spans add up to the traced
wall time of the top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (metric prefix, module, attribute, index of the request argument).
# ``Class.method`` attributes are wrapped on the class and on every
# loaded subclass that overrides the method.
SPANS = (
    ("api.clone_requests", "repro.api", "clone_requests", None),
    ("workload.generate_requests", "repro.workload.datasets", "generate_requests", None),
    ("cluster.driver", "repro.cluster.fleet", "simulate_fleet", None),
    ("cluster.route", "repro.cluster.router", "FleetRouter.route", 1),
    ("cluster.snapshot", "repro.cluster.fleet", "_ReplicaSlot.snapshot", None),
    ("cluster.health", "repro.cluster.health", "HealthMonitor.flag_stragglers", None),
    ("engine.step", "repro.engine.vectorized", "VectorizedReplicaEngine.step", None),
    ("engine.deliver", "repro.engine.vectorized", "VectorizedReplicaEngine.deliver", 1),
    ("engine.sync_out", "repro.engine.arrays", "RequestArrays.sync_out", None),
    ("scheduling.schedule", "repro.scheduling.vectorized", "VecScheduler.schedule", None),
    ("scheduling.commit", "repro.scheduling.vectorized", "VecScheduler.on_batch_complete", None),
    ("perf.linear", "repro.perf.linear", "LinearModel.stage_time", None),
    ("perf.attention", "repro.perf.attention", "AttentionModel.work_time", None),
    ("perf.stage_iteration_time", "repro.perf.iteration", "ExecutionModel.stage_iteration_time", None),
    ("metrics.summarize", "repro.metrics.summary", "summarize", None),
)

# (metric prefix, module, attribute, whether a falsy result counts as
# refused).  Counters are cheaper than spans; they carry no time.
COUNTERS = (
    ("cluster.poll", "repro.engine.vectorized", "VectorizedReplicaEngine.next_event_time", False),
    ("memory.try_admit", "repro.scheduling.vectorized", "VecPagedMemory.try_admit", True),
    ("memory.try_admit", "repro.scheduling.vectorized", "VecReservationMemory.try_admit", True),
    ("memory.bulk_decode", "repro.scheduling.vectorized", "VecPagedMemory.try_bulk_decode", True),
    ("memory.bulk_decode", "repro.scheduling.vectorized", "VecReservationMemory.try_bulk_decode", True),
)

# The memoizing execution model whose hit counters feed perf.cache.*.
CACHE_MODEL = ("repro.perf.cache", "CachedExecutionModel")

# Spans whose return values are kept: the fleet results carry the
# failover, shed and engine counters of every fleet run, capacity
# probes included.
KEEP_RETURNS = ("cluster.driver",)

# Spans whose non-None results are counted: a schedule call that
# returns no batch is wasted work.
COUNT_RESULTS = {"scheduling.schedule": "scheduling.schedule.batches"}


class Tracer:
    """Span and counter store, plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request_id = array("q")
        self.counts: Counter[str] = Counter()
        self.returns: dict[str, list] = {}
        self.cache_models: list = []
        self.installed: set[str] = set()
        self._stack: list[int] = []

    # -- installing ----------------------------------------------------
    def install(self) -> None:
        """Wrap every listed entry point that exists in this process."""
        for prefix, module, attribute, request_arg in SPANS:
            wrap = functools.partial(self._span, prefix, request_arg)
            if _patch(module, attribute, wrap):
                self.installed.add(prefix)
        for prefix, module, attribute, refusals in COUNTERS:
            wrap = functools.partial(self._counter, prefix, refusals)
            if _patch(module, attribute, wrap):
                self.installed.add(prefix)
        cls = _resolve(*CACHE_MODEL)
        if cls is not None:
            models = self.cache_models
            original = cls.__init__

            @functools.wraps(original)
            def init(instance, *args, **kwargs):
                original(instance, *args, **kwargs)
                models.append(instance)

            cls.__init__ = init
            self.installed.add("perf.cache")

    def _span(self, prefix: str, request_arg: int | None, fn):
        name_id = self._ids.setdefault(prefix, len(self.names))
        if name_id == len(self.names):
            self.names.append(prefix)
        returns = (
            self.returns.setdefault(prefix, []) if prefix in KEEP_RETURNS else None
        )
        counted = COUNT_RESULTS.get(prefix)
        counts = self.counts
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, request_ids = self.parent, self.request_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A subclass override calling its base through super() is one
            # call into the layer, not two.
            if stack and names[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            request_ids.append(
                getattr(args[request_arg], "request_id", -1)
                if request_arg is not None
                else -1
            )
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if returns is not None:
                returns.append(result)
            if counted is not None and result is not None:
                counts[counted] += 1
            return result

        return wrapper

    def _counter(self, prefix: str, refusals: bool, fn):
        counts = self.counts
        calls = prefix + ".calls"
        refused = prefix + ".refused"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if refusals and not result:
                counts[refused] += 1
            return result

        return wrapper

    # -- reading -------------------------------------------------------
    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        n = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32)[:n]
        duration = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(
            self.start, dtype=np.float64
        )[:n]
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - child_time
        totals = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            totals[name] = {
                "calls": int(mask.sum()),
                "s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return totals

    def cache_totals(self) -> tuple[int, int]:
        """Hits and misses summed over both tiers of every cached model."""
        hits = misses = 0
        for model in self.cache_models:
            stats = model.cache_stats
            hits += stats.hits + stats.work_hits
            misses += stats.misses + stats.work_misses
        return hits, misses

    def write(self, path: Path) -> None:
        """Dump every span as flat columns (``numpy.load`` reads it)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            np.savez(
                out,
                names=np.array(self.names),
                name=np.frombuffer(self.name, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                request_id=np.frombuffer(self.request_id, dtype=np.int64),
            )


def _resolve(module: str, attribute: str):
    """The object at ``module.attribute``, or None when it is gone."""
    try:
        target = importlib.import_module(module)
    except ImportError:
        return None
    for part in attribute.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    return target


def _patch(module: str, attribute: str, wrap) -> bool:
    """Replace one entry point everywhere it is reachable; False if absent."""
    owner_name, _, method = attribute.rpartition(".")
    if owner_name:
        cls = _resolve(module, owner_name)
        if not isinstance(cls, type) or method not in vars(cls):
            return False
        pending = [cls]
        while pending:
            current = pending.pop()
            pending.extend(current.__subclasses__())
            if method in vars(current):
                setattr(current, method, wrap(vars(current)[method]))
        return True
    original = _resolve(module, attribute)
    if original is None:
        return False
    wrapped = wrap(original)
    # ``from module import fn`` copies the binding into the importer, so
    # replace it in every loaded module of the program that holds it.
    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(loaded, attribute, None) is original:
            setattr(loaded, attribute, wrapped)
    return True
