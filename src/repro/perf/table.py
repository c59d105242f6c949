"""Profiled iteration-cost tables (the Vidur approach, §4.3).

A real deployment cannot evaluate an analytical model per iteration —
it profiles a grid of batch shapes once and interpolates at runtime.
``ProfiledIterationTable`` reproduces that workflow against this
repo's execution model: build once over a (decode batch size × decode
context × prefill-chunk tokens) grid, then answer ``works → seconds``
queries by trilinear interpolation.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.perf.iteration import ExecutionModel
from repro.types import TokenWork

DEFAULT_DECODE_BS_GRID = (0, 1, 4, 16, 48, 128)
DEFAULT_CONTEXT_GRID = (64, 512, 2048, 8192)
DEFAULT_PREFILL_GRID = (0, 128, 512, 1024, 2048, 4096, 8192)


class ProfiledIterationTable:
    """Tabulated hybrid-iteration latency with multilinear lookup."""

    def __init__(
        self,
        decode_bs_grid: Sequence[int],
        context_grid: Sequence[int],
        prefill_grid: Sequence[int],
        table: np.ndarray,
    ) -> None:
        self._check_grid(decode_bs_grid, "decode_bs_grid")
        self._check_grid(context_grid, "context_grid")
        self._check_grid(prefill_grid, "prefill_grid")
        expected = (len(decode_bs_grid), len(context_grid), len(prefill_grid))
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} != grid shape {expected}")
        self.decode_bs_grid = list(decode_bs_grid)
        self.context_grid = list(context_grid)
        self.prefill_grid = list(prefill_grid)
        self.table = table

    @staticmethod
    def _check_grid(grid: Sequence[int], name: str) -> None:
        if len(grid) < 2:
            raise ValueError(f"{name} needs at least two points")
        if list(grid) != sorted(set(grid)):
            raise ValueError(f"{name} must be strictly increasing")

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        exec_model: ExecutionModel,
        decode_bs_grid: Sequence[int] = DEFAULT_DECODE_BS_GRID,
        context_grid: Sequence[int] = DEFAULT_CONTEXT_GRID,
        prefill_grid: Sequence[int] = DEFAULT_PREFILL_GRID,
    ) -> "ProfiledIterationTable":
        """One-time profiling pass over the grid (|grid| model calls)."""
        table = np.zeros(
            (len(decode_bs_grid), len(context_grid), len(prefill_grid))
        )
        for i, bs in enumerate(decode_bs_grid):
            for j, ctx in enumerate(context_grid):
                for k, chunk in enumerate(prefill_grid):
                    works = [TokenWork.decode(ctx) for _ in range(bs)]
                    if chunk > 0:
                        works.append(
                            TokenWork.prefill_chunk(
                                chunk, past_len=chunk, is_last=False
                            )
                        )
                    if works:
                        table[i, j, k] = exec_model.iteration_time(works).total
        return cls(decode_bs_grid, context_grid, prefill_grid, table)

    # ------------------------------------------------------------------
    def predict(self, works: Sequence[TokenWork]) -> float:
        """Interpolated latency of a batch described by its works.

        The batch is summarized by (number of decodes, their mean
        context, total prefill tokens) — the same shape descriptor the
        profiling grid spans.  Values outside the grid clamp to the
        edge (profiling covers the scheduler's operating envelope).
        """
        if not works:
            return 0.0
        decode_contexts = [w.past_len for w in works if not w.is_prefill]
        num_decodes = len(decode_contexts)
        mean_context = (
            sum(decode_contexts) / num_decodes if num_decodes else self.context_grid[0]
        )
        prefill_tokens = sum(w.num_tokens for w in works if w.is_prefill)
        return self._interpolate(num_decodes, mean_context, prefill_tokens)

    # ------------------------------------------------------------------
    def _interpolate(self, bs: float, ctx: float, chunk: float) -> float:
        i0, i1, ti = self._bracket(self.decode_bs_grid, bs)
        j0, j1, tj = self._bracket(self.context_grid, ctx)
        k0, k1, tk = self._bracket(self.prefill_grid, chunk)
        total = 0.0
        for ii, wi in ((i0, 1 - ti), (i1, ti)):
            for jj, wj in ((j0, 1 - tj), (j1, tj)):
                for kk, wk in ((k0, 1 - tk), (k1, tk)):
                    weight = wi * wj * wk
                    if weight:
                        total += weight * self.table[ii, jj, kk]
        return float(total)

    @staticmethod
    def _bracket(grid: list[int], value: float) -> tuple[int, int, float]:
        """Indices spanning ``value`` plus the interpolation fraction."""
        if value <= grid[0]:
            return 0, 0, 0.0
        if value >= grid[-1]:
            last = len(grid) - 1
            return last, last, 0.0
        hi = bisect_right(grid, value)
        lo = hi - 1
        span = grid[hi] - grid[lo]
        frac = (value - grid[lo]) / span
        return lo, hi, frac

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return int(np.prod(self.table.shape))
