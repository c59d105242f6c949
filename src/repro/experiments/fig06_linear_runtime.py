"""Figure 6: linear-layer execution time vs tokens at TP 1/2/4/8.

LLaMA2-70B on A100s.  Below the compute-bound knee, execution time is
dominated by streaming the weight shard (nearly flat in tokens); past
the knee it grows linearly.  Higher TP degrees shrink the shard and
push the *observed* knee to higher token counts (paper §3.1 footnote 2
reports ~500-600 tokens at high TP, vs the ~200-token theoretical
value).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.catalog import A100_80G
from repro.models.catalog import LLAMA2_70B
from repro.parallel.config import ParallelConfig
from repro.perf.calibration import DEFAULT_CALIBRATION
from repro.perf.iteration import ExecutionModel

TOKEN_COUNTS = (64, 128, 256, 512, 768, 1024, 1536, 2048, 4096)
TP_DEGREES = (1, 2, 4, 8)


@dataclass(frozen=True)
class LinearRuntimePoint:
    """One (tp, tokens) probe of per-layer linear runtime."""

    tensor_parallel: int
    num_tokens: int
    layer_time: float
    is_memory_bound: bool


def run_linear_runtime(
    token_counts: tuple[int, ...] = TOKEN_COUNTS,
    tp_degrees: tuple[int, ...] = TP_DEGREES,
) -> list[LinearRuntimePoint]:
    """Per-layer linear runtime sweep across TP degrees and token counts."""
    points = []
    for tp in tp_degrees:
        exec_model = ExecutionModel(
            LLAMA2_70B,
            A100_80G,
            ParallelConfig(tensor_parallel=tp),
            DEFAULT_CALIBRATION,
        )
        for n in token_counts:
            cost = exec_model.linear.layer_cost(n)
            points.append(
                LinearRuntimePoint(
                    tensor_parallel=tp,
                    num_tokens=n,
                    layer_time=cost.time,
                    is_memory_bound=cost.is_memory_bound,
                )
            )
    return points


def compute_bound_knee(points: list[LinearRuntimePoint], tp: int) -> int:
    """Smallest probed token count at which the layer is compute-bound at TP ``tp``."""
    probes = [p for p in points if p.tensor_parallel == tp]
    for point in probes:
        if not point.is_memory_bound:
            return point.num_tokens
    return probes[-1].num_tokens
