"""KV-cache memory: capacity planning and the shared prefix store.

The allocators themselves operate on request rows and live with the
schedulers in :mod:`repro.scheduling.vectorized`
(``VecPagedMemory``, ``VecReservationMemory``).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".capacity": (
        "DEFAULT_BLOCK_SIZE",
        "DEFAULT_GPU_MEMORY_UTILIZATION",
        "PAGED_ACTIVATION_RESERVE_BYTES",
        "RESERVATION_ACTIVATION_RESERVE_BYTES",
        "kv_token_capacity",
    ),
})
