"""Chunked-prefill arithmetic (§4.3).

The Sarathi-Serve scheduler itself — stall-free batching, Algorithm 3 —
is :class:`repro.scheduling.vectorized.VecSarathiScheduler`.
"""

from repro.core.chunking import get_next_chunk_size, num_chunks

__all__ = [
    "get_next_chunk_size",
    "num_chunks",
]
