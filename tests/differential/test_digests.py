"""The engine against its frozen golden digests: the remaining cells.

``test_golden_matrix.py`` checks the single-replica, pipeline and
fleet matrix cells and ``test_prefix_cache.py`` the conversation
cells; this module checks everything else — policy plug-ins, the fair
scheduler, Sarathi over reservation memory, disaggregation and the
experiment runners.  See ``digests.py`` for canonicalisation and for
how to regenerate the fixture after an intended behaviour change.
"""

from __future__ import annotations

import pytest

from tests.differential.digests import catalogue, check, frozen

pytestmark = pytest.mark.tier1

# Cell families that other modules in this package check.
_CHECKED_ELSEWHERE = ("single/", "pressure/", "pp2/", "fleet/", "conversation/")


def test_fixture_covers_every_cell():
    assert sorted(frozen()) == sorted(catalogue())


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if slow else name
        for name, (slow, _) in catalogue().items()
        if not name.startswith(_CHECKED_ELSEWHERE)
    ],
)
def test_digest_matches_frozen(name):
    check(name)
