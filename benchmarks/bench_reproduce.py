"""Time every registered experiment and assert its paper-shape claims.

One case per ``REGISTRY`` id: the case times ``entry.run`` and then
checks ``entry.claims`` against the rows it returned, the same
predicates ``python -m repro reproduce <id>`` prints.  Scale comes from
``REPRO_SCALE`` (smoke | default | full), e.g.::

    REPRO_SCALE=smoke pytest benchmarks/bench_reproduce.py --benchmark-disable
"""

from __future__ import annotations

import pytest

from repro.experiments.common import scale_from_env
from repro.experiments.registry import REGISTRY

# The leaderboard's per-policy capacity search runs for over an hour
# even at smoke scale.
SLOW = {"leaderboard"}


@pytest.mark.parametrize(
    "figure_id",
    [
        pytest.param(key, marks=pytest.mark.skip(reason="hour-long capacity search"))
        if key in SLOW else key
        for key in REGISTRY
    ],
)
def bench_reproduce(benchmark, figure_id):
    entry = REGISTRY[figure_id]
    rows = benchmark.pedantic(entry.run, args=(scale_from_env(),), rounds=1, iterations=1)
    failed = [claim.text for claim in entry.claims if not claim.holds(rows)]
    assert not failed, f"{figure_id}: {failed}"
