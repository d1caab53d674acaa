"""Unit tests for repro.sparse.builder."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sparse import ColumnBuilder


class TestColumnBuilder:
    def test_basic_build(self):
        b = ColumnBuilder(nrows=4)
        b.add_column([0, 2], [1.0, -1.0])
        b.add_column([], [])
        b.add_column([3], [5.0])
        c = b.finalize()
        expected = np.zeros((4, 3))
        expected[0, 0], expected[2, 0], expected[3, 2] = 1.0, -1.0, 5.0
        assert np.array_equal(c.to_dense(), expected)

    def test_sorts_rows(self):
        b = ColumnBuilder(nrows=5)
        b.add_column([4, 1, 3], [4.0, 1.0, 3.0])
        c = b.finalize()
        assert c.indices.tolist() == [1, 3, 4]
        assert c.data.tolist() == [1.0, 3.0, 4.0]

    def test_growth_beyond_capacity(self):
        b = ColumnBuilder(nrows=10, capacity=2)
        for j in range(20):
            b.add_column([j % 10], [float(j)])
        c = b.finalize()
        assert c.nnz == 20 and c.shape == (10, 20)

    def test_add_dense_column(self):
        b = ColumnBuilder(nrows=3)
        b.add_dense_column([0.0, 2.0, 0.0])
        c = b.finalize()
        assert c.nnz == 1 and c.column(0)[1] == 2.0

    def test_dense_column_tol(self):
        b = ColumnBuilder(nrows=2)
        b.add_dense_column([1e-9, 1.0], tol=1e-6)
        assert b.finalize().nnz == 1

    def test_duplicate_rows_rejected(self):
        b = ColumnBuilder(nrows=4)
        with pytest.raises(ValidationError, match="duplicate"):
            b.add_column([1, 1], [1.0, 2.0])

    def test_out_of_range_rejected(self):
        b = ColumnBuilder(nrows=4)
        with pytest.raises(ValidationError):
            b.add_column([4], [1.0])

    def test_double_finalize_rejected(self):
        b = ColumnBuilder(nrows=2)
        b.finalize()
        with pytest.raises(ValidationError):
            b.finalize()

    def test_add_after_finalize_rejected(self):
        b = ColumnBuilder(nrows=2)
        b.finalize()
        with pytest.raises(ValidationError):
            b.add_column([0], [1.0])

    def test_mismatched_lengths(self):
        b = ColumnBuilder(nrows=4)
        with pytest.raises(ValidationError):
            b.add_column([0, 1], [1.0])

    def test_invalid_nrows(self):
        with pytest.raises(ValidationError):
            ColumnBuilder(nrows=0)

    def test_counters(self):
        b = ColumnBuilder(nrows=4)
        b.add_column([0], [1.0])
        b.add_column([1, 2], [1.0, 2.0])
        assert b.ncols == 2 and b.nnz == 3


def _pad(lists, fill, dtype):
    """Stack ragged ``lists`` into one array, padded with ``fill``."""
    cap = max((len(x) for x in lists), default=0)
    out = np.full((len(lists), cap), fill, dtype=dtype)
    for j, x in enumerate(lists):
        out[j, :len(x)] = x
    return out


def _padded(rows, values):
    """``add_columns`` arguments for per-column ``rows``/``values``.

    Padding holds an out-of-range row and NaN, so the checks and the
    copy must both ignore it.
    """
    return (_pad(rows, -9, np.int64), _pad(values, np.nan, np.float64),
            np.array([len(r) for r in rows], dtype=np.int64))


class TestAddColumns:
    """The per-panel bulk append from padded ``(n, cap)`` arrays matches
    ``add_column`` column by column."""

    def test_matches_per_column_appends(self):
        rng = np.random.default_rng(0)
        rows = [rng.choice(9, size=k, replace=False) for k in (3, 0, 1, 5, 0)]
        values = [rng.standard_normal(r.size) for r in rows]
        ref, bulk = ColumnBuilder(nrows=9), ColumnBuilder(nrows=9, capacity=1)
        for b in (ref, bulk):
            b.add_column([2], [7.0])
        for r, v in zip(rows, values):
            ref.add_column(r, v)
        bulk.add_columns(*_padded(rows, values))
        a, b = ref.finalize(), bulk.finalize()
        for attr in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))
        assert b.shape == (9, 6)

    def test_empty_panel(self):
        b = ColumnBuilder(nrows=3)
        for cap in (0, 3):
            b.add_columns(np.zeros((2, cap), dtype=np.int64),
                          np.zeros((2, cap)), [0, 0])
        assert b.ncols == 4 and b.nnz == 0

    @pytest.mark.parametrize("rows, values, match", [
        ([[0], [1, 1]], [[1.0], [1.0, 2.0]], "duplicate"),
        ([[0], [4]], [[1.0], [1.0]], "out of range"),
        ([[0], [-1]], [[1.0], [1.0]], "out of range"),
        ([[0, 1]], [[1.0]], "equal-length"),
        ([[0], [1]], [[1.0]], "equal-length"),
    ])
    def test_checks_reject_and_append_nothing(self, rows, values, match):
        b = ColumnBuilder(nrows=4)
        b.add_column([2], [3.0])
        with pytest.raises(ValidationError, match=match):
            b.add_columns(*_padded(rows, values))
        assert b.ncols == 1 and b.nnz == 1

    @pytest.mark.parametrize("rows, values, counts", [
        ([[0, 9], [1, 3]], [[1.0, 0.0], [1.0, 2.0]], [1, 2, 0]),
        ([[0, 9], [1, 3]], [[1.0, 0.0], [1.0, 2.0]], [1]),
        ([[0, 9], [1, 3]], [[1.0, 0.0], [1.0, 2.0]], [[1, 2]]),
        ([0, 9], [1.0, 0.0], [1]),                 # 1-D, not (n, cap)
    ])
    def test_counts_shape_mismatch_rejected(self, rows, values, counts):
        b = ColumnBuilder(nrows=4)
        b.add_column([2], [3.0])
        with pytest.raises(ValidationError, match="equal-length"):
            b.add_columns(rows, values, counts)
        assert b.ncols == 1 and b.nnz == 1

    @pytest.mark.parametrize("counts", [[1, -1], [1, 3]])
    def test_counts_outside_cap_rejected(self, counts):
        b = ColumnBuilder(nrows=4)
        b.add_column([2], [3.0])
        rows, values, _ = _padded([[0], [1, 3]], [[1.0], [1.0, 2.0]])
        with pytest.raises(ValidationError, match="counts"):
            b.add_columns(rows, values, counts)
        assert b.ncols == 1 and b.nnz == 1

    def test_same_row_in_different_columns_is_fine(self):
        b = ColumnBuilder(nrows=4)
        b.add_columns(*_padded([[1], [1, 0]], [[1.0], [2.0, 3.0]]))
        c = b.finalize()
        assert c.indices.tolist() == [1, 0, 1]
        assert c.data.tolist() == [1.0, 3.0, 2.0]
