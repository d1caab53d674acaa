"""Incremental column-wise CSC construction.

ExD (Alg. 1 step 3) produces the coefficient matrix one sparse column at
a time; the builder appends columns in amortised O(nnz) without
re-allocating per column (growth doubling), then finalises into an
immutable :class:`~repro.sparse.csc.CSCMatrix`.  The encode paths append
a whole panel of columns at once with :meth:`ColumnBuilder.add_columns`,
from padded ``(n, cap)`` arrays: one ``argsort`` along the rows instead
of a sort per column.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csc import CSCMatrix


class ColumnBuilder:
    """Accumulates sparse columns for an ``nrows``-row matrix.

    Example
    -------
    >>> b = ColumnBuilder(nrows=4)
    >>> b.add_column([0, 2], [1.0, -1.0])
    >>> b.add_column([], [])
    >>> b.finalize().shape
    (4, 2)
    """

    def __init__(self, nrows: int, *, capacity: int = 64) -> None:
        if nrows <= 0:
            raise ValidationError(f"nrows must be positive, got {nrows}")
        self.nrows = int(nrows)
        self._data = np.empty(max(int(capacity), 1))
        self._indices = np.empty(max(int(capacity), 1), dtype=np.int64)
        self._nnz = 0
        self._indptr: list[int] = [0]
        self._finalized = False

    @property
    def ncols(self) -> int:
        """Number of columns appended so far."""
        return len(self._indptr) - 1

    @property
    def nnz(self) -> int:
        """Number of entries appended so far."""
        return self._nnz

    def _grow(self, needed: int) -> None:
        cap = self._data.size
        while cap < needed:
            cap *= 2
        if cap != self._data.size:
            self._data = np.resize(self._data, cap)
            self._indices = np.resize(self._indices, cap)

    def add_column(self, rows, values) -> None:
        """Append one column given its nonzero row indices and values.

        Rows need not be pre-sorted; they are sorted here so the finalised
        matrix is canonical.  Zero-valued entries are kept if explicitly
        passed (OMP never produces them, but the container stays faithful
        to its input).
        """
        if self._finalized:
            raise ValidationError("builder already finalized")
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if rows.shape != values.shape or rows.ndim != 1:
            raise ValidationError("rows and values must be equal-length 1-D")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.nrows:
                raise ValidationError("row index out of range")
            if np.unique(rows).size != rows.size:
                raise ValidationError("duplicate row index within a column")
            order = np.argsort(rows, kind="stable")
            rows, values = rows[order], values[order]
        self._grow(self._nnz + rows.size)
        self._data[self._nnz:self._nnz + rows.size] = values
        self._indices[self._nnz:self._nnz + rows.size] = rows
        self._nnz += rows.size
        self._indptr.append(self._nnz)

    def add_columns(self, rows, values, counts) -> None:
        """Append ``n`` columns at once from padded ``(n, cap)`` arrays.

        Column ``j`` holds the rows ``rows[j, :counts[j]]`` with values
        ``values[j, :counts[j]]``; later slots are ignored.  Same result
        as :meth:`add_column` per column, with the same checks (rows in
        ``[0, nrows)``, no row twice within a column) plus matching
        shapes and counts in ``[0, cap]``; when a check fails nothing is
        appended.
        """
        if self._finalized:
            raise ValidationError("builder already finalized")
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        if rows.ndim != 2 or values.shape != rows.shape \
                or counts.shape != rows.shape[:1]:
            raise ValidationError(
                "rows and values must be equal-length (n, cap) arrays, "
                "with (n,) counts")
        n, cap = rows.shape
        if n and (counts.min() < 0 or counts.max() > cap):
            raise ValidationError(f"column counts must lie in [0, {cap}]")
        live = np.arange(cap) < counts[:, None]
        taken = rows[live]
        if taken.size and (taken.min() < 0 or taken.max() >= self.nrows):
            raise ValidationError("row index out of range")
        # Padding sorts after every real row, so each column's entries
        # are its first counts[j] slots once sorted.
        keys = np.where(live, rows, self.nrows)
        order = np.argsort(keys, axis=1)
        keys = np.take_along_axis(keys, order, axis=1)
        if np.any((keys[:, 1:] == keys[:, :-1]) & live[:, 1:]):
            raise ValidationError("duplicate row index within a column")
        indices = keys[live]
        data = np.take_along_axis(values, order, axis=1)[live]
        self._grow(self._nnz + indices.size)
        self._data[self._nnz:self._nnz + indices.size] = data
        self._indices[self._nnz:self._nnz + indices.size] = indices
        self._indptr.extend((self._nnz + np.cumsum(counts)).tolist())
        self._nnz += indices.size

    def add_dense_column(self, col, *, tol: float = 0.0) -> None:
        """Append a dense column, keeping entries with ``|v| > tol``."""
        col = np.asarray(col, dtype=np.float64)
        if col.shape != (self.nrows,):
            raise ValidationError(
                f"column must have shape ({self.nrows},), got {col.shape}")
        rows = np.nonzero(np.abs(col) > tol)[0]
        self.add_column(rows, col[rows])

    def finalize(self) -> CSCMatrix:
        """Freeze into an immutable CSC matrix.  The builder is consumed."""
        if self._finalized:
            raise ValidationError("builder already finalized")
        self._finalized = True
        return CSCMatrix(self._data[:self._nnz].copy(),
                         self._indices[:self._nnz].copy(),
                         np.asarray(self._indptr, dtype=np.int64),
                         (self.nrows, self.ncols), check=False)
