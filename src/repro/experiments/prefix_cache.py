"""Prefix caching × chunk size × capacity on conversation workloads.

The headline question for the KV prefix cache: at a fixed P99-TBT SLO,
how much more conversation load can a replica sustain when follow-up
rounds reuse their history's KV blocks instead of re-prefilling them?
For each Sarathi token budget (chunk size) we search capacity — the
maximum conversation-arrival rate meeting the SLO — with the cache off
and on, then re-run one simulation at the found capacity to report the
cache's own counters (hit rate, COW copies).

Chunk size interacts with caching: reuse removes prefill work, which
is exactly what small chunks ration, so strict-SLO (small-budget)
configurations see the largest relative gain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.api import Deployment, ServingConfig
from repro.experiments.common import DEFAULT, Scale, mistral_deployment
from repro.metrics.capacity import find_capacity
from repro.metrics.slo import SLOSpec
from repro.perf.profiler import reference_decode_time
from repro.workload.conversation import ConversationSpec, simulate_conversations

CHUNK_SIZES = (512, 2048)
SLO_MULTIPLIER = 25.0  # the paper's relaxed P99-TBT setting


@dataclass(frozen=True)
class PrefixCachePoint:
    """Capacity of one (chunk size, cache on/off) configuration."""

    variant: str            # "cache-off" | "cache-on"
    chunk_size: int
    capacity_qps: float     # conversation arrivals per second at the SLO
    hit_rate: float         # prefix lookups served from the store
    hit_tokens: int         # prefill tokens skipped via reuse
    cow_copies: int         # partial-block divergences
    bounded: bool = True    # False: the search found no infeasible rate,
                            # so capacity_qps is only a lower bound


def conversation_spec_for(scale: Scale, prefix_mode: str = "conversation") -> ConversationSpec:
    """The sweep's workload: multi-round chats sized to the scale."""
    return ConversationSpec(
        num_conversations=max(8, scale.num_requests // 3),
        mean_rounds=3.0,
        mean_think_time=2.0,
        arrival_qps=1.0,  # replaced per capacity probe
        prefix_mode=prefix_mode,
    )


def run_prefix_cache_capacity(
    scale: Scale = DEFAULT,
    deployment: Deployment | None = None,
    chunk_sizes: tuple[int, ...] = CHUNK_SIZES,
    qps_hint: float = 1.0,
) -> list[PrefixCachePoint]:
    """Capacity with and without prefix caching, per chunk size."""
    deployment = deployment or mistral_deployment()
    reference = reference_decode_time(deployment.execution_model())
    slo = SLOSpec(name=f"{SLO_MULTIPLIER:g}x", p99_tbt=SLO_MULTIPLIER * reference)
    spec = conversation_spec_for(scale)

    points = []
    for chunk in chunk_sizes:
        hint = qps_hint
        for cache_on in (False, True):
            config = ServingConfig(
                scheduler="sarathi",
                token_budget=chunk,
                prefix_cache=cache_on,
            )

            def run_at(qps: float) -> object:
                probe_spec = replace(spec, arrival_qps=qps)
                _, metrics = simulate_conversations(
                    deployment, config, probe_spec, seed=scale.seed
                )
                return metrics

            search = find_capacity(
                run_at,
                slo,
                rel_tol=scale.capacity_rel_tol,
                max_probes=scale.capacity_max_probes,
                qps_hint=hint,
            )
            # The cache-off capacity is a lower bound for cache-on (the
            # cache only removes work), so it makes a sound warm start.
            hint = max(hint, search.capacity_qps) or hint

            # One confirmation run at capacity for the cache counters.
            stats_spec = replace(spec, arrival_qps=max(search.capacity_qps, 0.05))
            result, _ = simulate_conversations(
                deployment, config, stats_spec, seed=scale.seed
            )
            stats = result.prefix_stats
            points.append(
                PrefixCachePoint(
                    variant="cache-on" if cache_on else "cache-off",
                    chunk_size=chunk,
                    capacity_qps=search.capacity_qps,
                    hit_rate=stats.hit_rate if stats is not None else 0.0,
                    hit_tokens=stats.hit_tokens if stats is not None else 0,
                    cow_copies=stats.cow_copies if stats is not None else 0,
                    bounded=search.bounded,
                )
            )
    return points


def capacity_gain(points: list[PrefixCachePoint]) -> dict[int, float]:
    """Per-chunk capacity ratio cache-on / cache-off (1.0 = no gain)."""
    by_chunk: dict[int, dict[str, float]] = {}
    for point in points:
        by_chunk.setdefault(point.chunk_size, {})[point.variant] = point.capacity_qps
    gains = {}
    for chunk, caps in by_chunk.items():
        off, on = caps.get("cache-off", 0.0), caps.get("cache-on", 0.0)
        gains[chunk] = on / off if off > 0 else 0.0
    return gains
