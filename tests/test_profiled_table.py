"""Tests for the profiled iteration-cost table (Vidur-style oracle)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.table import ProfiledIterationTable
from repro.types import TokenWork


@pytest.fixture(scope="module")
def table_and_model():
    from repro.api import Deployment
    from repro.hardware.catalog import A100_80G
    from repro.models.catalog import TINY_1B

    deployment = Deployment(model=TINY_1B, gpu=A100_80G)
    exec_model = deployment.execution_model()
    return ProfiledIterationTable.build(exec_model), exec_model


class TestConstruction:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            ProfiledIterationTable([1], [1, 2], [0, 1], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="increasing"):
            ProfiledIterationTable([2, 1], [1, 2], [0, 1], np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="shape"):
            ProfiledIterationTable([1, 2], [1, 2], [0, 1], np.zeros((3, 2, 2)))

    def test_build_fills_table(self, table_and_model):
        table, _ = table_and_model
        assert table.num_entries > 0
        # The all-zero corner (no decodes, no prefill) is an empty batch.
        assert table.table[0, 0, 0] == 0.0
        assert table.table[-1, -1, -1] > 0.0


class TestPrediction:
    def test_empty_batch_is_free(self, table_and_model):
        table, _ = table_and_model
        assert table.predict([]) == 0.0

    def test_grid_points_exact(self, table_and_model):
        table, exec_model = table_and_model
        works = [TokenWork.decode(512) for _ in range(16)]
        works.append(TokenWork.prefill_chunk(1024, past_len=1024, is_last=False))
        exact = exec_model.iteration_time(works).total
        assert table.predict(works) == pytest.approx(exact, rel=0.02)

    @pytest.mark.parametrize(
        "num_decodes,context,chunk",
        [(3, 300, 200), (10, 1000, 700), (40, 3000, 1500), (100, 6000, 3000)],
    )
    def test_interpolation_accuracy(self, table_and_model, num_decodes, context, chunk):
        """Off-grid predictions stay within ~15% of the exact model."""
        table, exec_model = table_and_model
        works = [TokenWork.decode(context) for _ in range(num_decodes)]
        works.append(TokenWork.prefill_chunk(chunk, past_len=chunk, is_last=False))
        exact = exec_model.iteration_time(works).total
        assert table.predict(works) == pytest.approx(exact, rel=0.15)

    def test_clamps_beyond_grid(self, table_and_model):
        table, _ = table_and_model
        inside = table.predict([TokenWork.decode(8192)])
        beyond = table.predict([TokenWork.decode(100_000)])
        assert beyond == pytest.approx(inside)

    def test_monotone_in_prefill_tokens(self, table_and_model):
        table, _ = table_and_model
        small = table.predict([TokenWork.prefill_chunk(256)])
        large = table.predict([TokenWork.prefill_chunk(4096)])
        assert large > small
