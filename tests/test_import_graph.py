"""The import graph: package re-exports load on first use.

Every package ``__init__`` resolves its ``__all__`` lazily, so a
process loads only what it runs: ``import repro`` plus a ``simulate``
leaves the sweep pool, the run ledger, the policy plug-ins, telemetry
and the extra workload generators unloaded, and imports nothing inside
the call.  Each check runs in a fresh interpreter, because this one
has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in (SRC / "repro").glob("*/__init__.py")
)
# Nothing a plain simulation runs may load these.
UNUSED_BY_SIMULATE = (
    "concurrent.futures",
    "multiprocessing",
    "repro.runtime.ledger",
    "repro.scheduling.policy",
    "repro.scheduling.theory",
    "repro.workload.conversation",
    "repro.workload.production",
    "repro.workload.trace",
)
THEORY_POLICIES = {
    "srpt_oracle": "SRPTOraclePolicy",
    "srpt_predicted": "SRPTPredictedPolicy",
    "fcfs_aging": "AgingPriorityPolicy",
}

SETUP = """
import json, sys
from repro import Deployment, Request, ServingConfig
from repro.hardware.catalog import A100_80G
from repro.models.catalog import TINY_1B

deployment = Deployment(model=TINY_1B, gpu=A100_80G)
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    report = run_fresh(f"""
import importlib, json
package = importlib.import_module({package!r})
missing = [name for name in package.__all__ if not hasattr(package, name)]
star = {{}}
exec("from {package} import *", star)
print(json.dumps({{
    "missing": missing,
    "unlisted": sorted(set(package.__all__) - set(dir(package))),
    "star": sorted(set(package.__all__) - set(star)),
    "count": len(package.__all__),
}}))
""")
    assert report["count"] > 0
    assert report["missing"] == []
    assert report["unlisted"] == []
    assert report["star"] == []


def test_unknown_name_raises_attribute_error():
    report = run_fresh("""
import json, repro.metrics
try:
    repro.metrics.no_such_name
except AttributeError as exc:
    print(json.dumps({"error": str(exc)}))
""")
    assert "no_such_name" in report["error"]


def test_simulate_loads_only_what_it_runs():
    report = run_fresh(SETUP + """
from repro import simulate

trace = [Request(prompt_len=16, output_len=4, arrival_time=0.01 * i) for i in range(8)]
config = ServingConfig(scheduler="sarathi")
before = set(sys.modules)
_, metrics = simulate(deployment, config, trace)
print(json.dumps({
    "completed": metrics.num_requests,
    "new": sorted(set(sys.modules) - before),
    "loaded": sorted(sys.modules),
}))
""")
    assert report["completed"] == 8
    # Set-up cost stays out of the call: it imports no module of ours.
    assert [m for m in report["new"] if m.split(".")[0] == "repro"] == []
    loaded = set(report["loaded"])
    assert [m for m in UNUSED_BY_SIMULATE if m in loaded] == []
    assert [m for m in loaded if m.startswith("repro.telemetry")] == []


def test_theory_policies_are_listed_before_their_module_loads():
    report = run_fresh(SETUP + """
from repro.api import build_vectorized_scheduler
from repro.scheduling.registry import registered_names

names = registered_names()
loaded_before = "repro.scheduling.theory" in sys.modules
built = {
    name: type(build_vectorized_scheduler(
        deployment, ServingConfig(scheduler=name)
    ).policy).__name__
    for name in ("srpt_oracle", "srpt_predicted", "fcfs_aging")
}
print(json.dumps({"names": names, "loaded_before": loaded_before, "built": built}))
""")
    assert set(THEORY_POLICIES) <= set(report["names"])
    assert report["loaded_before"] is False
    assert report["built"] == THEORY_POLICIES
