"""Golden digests: prefix caching and conversations.

Conversation workloads are closed-loop — each run drives its own
``ConversationWorkload`` instance, so the global request-id counter
assigns different ids from run to run.  The digests relabel request ids
by creation order, which is stable because follow-up injection happens
at finish events.

Matrix dimensions: scheduler (all three paged families, covering every
post-admission chunk-recompute site), cache off / on-all-miss / on,
and memory pressure (eviction + preemption + registration interleaved).
"""

from __future__ import annotations

import pytest

from tests.differential.digests import PREFIX_SCHEDULERS, check

pytestmark = pytest.mark.tier1


@pytest.mark.parametrize("kind", PREFIX_SCHEDULERS)
@pytest.mark.parametrize("cache", [False, True], ids=["cache_off", "cache_on"])
def test_conversation_workload_matches(kind, cache):
    """Conversation matrix cell, cache off and on."""
    state = "on" if cache else "off"
    out = dict(check(f"conversation/{kind}/cache_{state}"))
    if cache:
        assert out["prefix_stats"]["hits"] > 0  # the cell exercises the hit path


@pytest.mark.parametrize("kind", PREFIX_SCHEDULERS)
def test_all_miss_cache_equals_cache_off(kind):
    """With unique prefix ids (every lookup misses), enabling the cache
    must not perturb the run: both share one timeline."""
    off = dict(check(f"conversation/{kind}/unique/cache_off"))
    on = dict(check(f"conversation/{kind}/unique/cache_on"))
    assert on["prefix_stats"]["hits"] == 0
    assert on["prefix_stats"]["misses"] > 0
    assert on["requests"] == off["requests"]
    assert on["records"] == off["records"]


@pytest.mark.parametrize("kind", ["sarathi", "vllm"])
def test_cache_under_memory_pressure(kind):
    """Eviction of retained entries, preemption of claimants and
    re-registration interleaved on a shrunken pool."""
    out = dict(check(f"conversation/pressure/{kind}"))
    # The cell must exercise pressure *and* the cache, not pass vacuously.
    assert out["num_preemptions"] > 0 or out["prefix_stats"]["evictions"] > 0
    assert out["prefix_stats"]["hits"] > 0
