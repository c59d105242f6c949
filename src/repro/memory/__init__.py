"""KV-cache memory: capacity planning and the shared prefix store.

The allocators themselves operate on request rows and live with the
schedulers in :mod:`repro.scheduling.vectorized`
(``VecPagedMemory``, ``VecReservationMemory``).
"""

from repro.memory.capacity import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_GPU_MEMORY_UTILIZATION,
    PAGED_ACTIVATION_RESERVE_BYTES,
    RESERVATION_ACTIVATION_RESERVE_BYTES,
    kv_token_capacity,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_GPU_MEMORY_UTILIZATION",
    "PAGED_ACTIVATION_RESERVE_BYTES",
    "RESERVATION_ACTIVATION_RESERVE_BYTES",
    "kv_token_capacity",
]
