"""KV-cache capacity planning for a deployment.

Answers the question every serving system asks at startup: after
loading weight shards and reserving activation workspace, how many
tokens of KV cache fit on each GPU?
"""

from __future__ import annotations

from repro.hardware.gpu import GPUSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig

# Tokens per KV block of the paged allocator (vLLM's default).
DEFAULT_BLOCK_SIZE = 16

# Fraction of HBM the serving system lets itself use (vLLM's
# ``gpu_memory_utilization`` default).
DEFAULT_GPU_MEMORY_UTILIZATION = 0.90

# Workspace reserved for activations, set aside per GPU.  Orca-style
# engines that run huge multi-prompt batches need far more than paged
# engines (§5.1 discusses Orca's large activation footprint).
PAGED_ACTIVATION_RESERVE_BYTES = 2 << 30
RESERVATION_ACTIVATION_RESERVE_BYTES = 8 << 30


def kv_token_capacity(
    model: ModelConfig,
    gpu: GPUSpec,
    parallel: ParallelConfig,
    gpu_memory_utilization: float = DEFAULT_GPU_MEMORY_UTILIZATION,
    activation_reserve_bytes: int = PAGED_ACTIVATION_RESERVE_BYTES,
) -> int:
    """Number of KV-cache token slots one replica can hold.

    The binding constraint is per-GPU: usable HBM minus the weight
    shard minus activation workspace, divided by the per-GPU KV bytes
    one token costs.  Every GPU of a stage holds the same share, and
    every stage must hold KV for every token it serves, so the per-GPU
    number is also the replica-wide number of token slots.
    """
    if not 0.0 < gpu_memory_utilization <= 1.0:
        raise ValueError("gpu_memory_utilization must be in (0, 1]")
    usable = gpu.memory_capacity * gpu_memory_utilization
    weights = parallel.stage_weight_bytes_per_gpu(model)
    free_bytes = usable - weights - activation_reserve_bytes
    if free_bytes <= 0:
        raise ValueError(
            f"{model.name} does not fit on {gpu.name} with {parallel.label}: "
            f"weights need {weights / (1 << 30):.1f} GiB of "
            f"{usable / (1 << 30):.1f} GiB usable"
        )
    per_token = parallel.kv_bytes_per_token_per_gpu(model)
    return int(free_bytes / per_token)
