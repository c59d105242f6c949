"""Figure 5: arithmetic intensity of linear operators vs token count.

LLaMA2-70B linear layers on four A100s (TP4).  Decode batches (tens of
tokens) sit far below the device's ridge intensity — memory-bound —
while prefill chunks of hundreds of tokens sit above it.  Sarathi's
hybrid batches land near the ridge, maximizing both compute and
bandwidth utilization; ``run_batch_utilization`` measures that claim
as MFU/MBU on Mistral-7B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment
from repro.experiments.common import mistral_deployment
from repro.hardware.catalog import A100_80G
from repro.metrics.utilization import BatchUtilization, batch_utilization
from repro.models.catalog import LLAMA2_70B
from repro.parallel.config import ParallelConfig
from repro.types import TokenWork

TOKEN_COUNTS = (1, 8, 32, 64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class IntensityPoint:
    """Arithmetic intensity of the stage's linear work at a token count."""

    num_tokens: int
    arithmetic_intensity: float
    ridge_intensity: float

    @property
    def is_memory_bound(self) -> bool:
        return self.arithmetic_intensity < self.ridge_intensity


def llama70_tp4_deployment() -> Deployment:
    return Deployment(
        model=LLAMA2_70B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=4)
    )


def run_intensity_sweep(
    deployment: Deployment | None = None,
    token_counts: tuple[int, ...] = TOKEN_COUNTS,
) -> list[IntensityPoint]:
    """Arithmetic intensity of linear ops across batch token counts."""
    deployment = deployment or llama70_tp4_deployment()
    exec_model = deployment.execution_model()
    ridge = deployment.gpu.ridge_intensity
    return [
        IntensityPoint(
            num_tokens=n,
            arithmetic_intensity=exec_model.linear.arithmetic_intensity(n),
            ridge_intensity=ridge,
        )
        for n in token_counts
    ]


def run_batch_utilization() -> dict[str, BatchUtilization]:
    """MFU/MBU of a decode-only, a prefill-only and a hybrid batch (Mistral-7B)."""
    exec_model = mistral_deployment().execution_model()
    compositions = {
        "decode-only (bs 32)": [TokenWork.decode(1024) for _ in range(32)],
        "prefill-only (2048)": [TokenWork.prefill_chunk(2048)],
        "hybrid (32d + 480p)": (
            [TokenWork.decode(1024) for _ in range(32)]
            + [TokenWork.prefill_chunk(480, past_len=512, is_last=False)]
        ),
    }
    return {
        name: batch_utilization(exec_model, works)
        for name, works in compositions.items()
    }
