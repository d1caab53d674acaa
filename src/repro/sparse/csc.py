"""Compressed-sparse-column matrix.

Layout is the classic ``(data, indices, indptr)`` triple: column ``j``
holds entries ``data[indptr[j]:indptr[j+1]]`` at row positions
``indices[indptr[j]:indptr[j+1]]``.  Row indices within a column are kept
sorted, which canonicalises the representation and makes equality testing
and conversion deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


class CSCMatrix:
    """Immutable CSC matrix of float64 values.

    Parameters
    ----------
    data, indices, indptr:
        Standard CSC arrays.  ``indptr`` has length ``ncols + 1``.
    shape:
        ``(nrows, ncols)``.
    check:
        When True (default) the invariants are validated; internal callers
        that construct by known-good slicing pass False.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_colind_cache")

    def __init__(self, data, indices, indptr, shape, *, check: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._colind_cache = None
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense, *, tol: float = 0.0) -> "CSCMatrix":
        """Build from a dense array, dropping entries with ``|v| <= tol``."""
        arr = np.asarray(dense, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"dense input must be 2-D, got {arr.ndim}-D")
        nrows, ncols = arr.shape
        mask = np.abs(arr) > tol
        # Column-major walk so entries land in CSC order directly.
        cols, rows = np.nonzero(mask.T)
        data = arr[rows, cols]
        counts = np.bincount(cols, minlength=ncols)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return cls(data, rows, indptr, (nrows, ncols), check=False)

    @classmethod
    def zeros(cls, shape) -> "CSCMatrix":
        """All-zero matrix of the given shape."""
        nrows, ncols = int(shape[0]), int(shape[1])
        return cls(np.empty(0), np.empty(0, dtype=np.int64),
                   np.zeros(ncols + 1, dtype=np.int64), (nrows, ncols),
                   check=False)

    @classmethod
    def identity(cls, n: int) -> "CSCMatrix":
        """The n-by-n identity (the ``D = A`` extreme of Sec. VII)."""
        return cls(np.ones(n), np.arange(n, dtype=np.int64),
                   np.arange(n + 1, dtype=np.int64), (n, n), check=False)

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if self.indptr.shape != (ncols + 1,):
            raise ValidationError(
                f"indptr must have length ncols+1={ncols + 1}, "
                f"got {self.indptr.shape}")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ValidationError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValidationError("indices and data must have equal length")
        if self.data.size and (self.indices.min() < 0
                               or self.indices.max() >= nrows):
            raise ValidationError("row index out of range")
        for j in range(ncols):
            seg = self.indices[self.indptr[j]:self.indptr[j + 1]]
            if seg.size > 1 and np.any(np.diff(seg) <= 0):
                raise ValidationError(
                    f"row indices in column {j} must be strictly increasing")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of explicitly stored entries."""
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Storage footprint in bytes (data + indices + indptr)."""
        return int(self.data.nbytes + self.indices.nbytes + self.indptr.nbytes)

    def column_nnz(self) -> np.ndarray:
        """Per-column nonzero counts (the per-column density of Fig. 4)."""
        return np.diff(self.indptr)

    def col_indices_expanded(self) -> np.ndarray:
        """Column index of every stored entry (cached; used by kernels)."""
        if self._colind_cache is None or \
                self._colind_cache.size != self.data.size:
            self._colind_cache = np.repeat(
                np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr))
        return self._colind_cache

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ndarray."""
        out = np.zeros(self.shape)
        out[self.indices, self.col_indices_expanded()] = self.data
        return out

    def to_scipy(self):
        """Convert to ``scipy.sparse.csc_matrix`` (for cross-validation)."""
        import scipy.sparse as sp
        return sp.csc_matrix((self.data, self.indices, self.indptr),
                             shape=self.shape)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def column(self, j: int) -> np.ndarray:
        """Dense copy of column ``j``."""
        nrows, ncols = self.shape
        if not 0 <= j < ncols:
            raise ValidationError(f"column {j} out of range [0, {ncols})")
        out = np.zeros(nrows)
        lo, hi = self.indptr[j], self.indptr[j + 1]
        out[self.indices[lo:hi]] = self.data[lo:hi]
        return out

    def slice_columns(self, start: int, stop: int) -> "CSCMatrix":
        """Contiguous column slice ``[start, stop)`` — Alg. 2's partitioning."""
        nrows, ncols = self.shape
        if not (0 <= start <= stop <= ncols):
            raise ValidationError(
                f"invalid column slice [{start}, {stop}) for ncols={ncols}")
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSCMatrix(self.data[lo:hi], self.indices[lo:hi],
                         self.indptr[start:stop + 1] - lo,
                         (nrows, stop - start), check=False)

    def select_columns(self, cols) -> "CSCMatrix":
        """Gather an arbitrary column subset (used by subset estimation)."""
        cols = np.asarray(cols, dtype=np.int64)
        nrows, ncols = self.shape
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise ValidationError("column index out of range")
        counts = self.indptr[cols + 1] - self.indptr[cols]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        nnz = int(indptr[-1])
        data = np.empty(nnz)
        indices = np.empty(nnz, dtype=np.int64)
        for k, j in enumerate(cols):
            lo, hi = self.indptr[j], self.indptr[j + 1]
            data[indptr[k]:indptr[k + 1]] = self.data[lo:hi]
            indices[indptr[k]:indptr[k + 1]] = self.indices[lo:hi]
        return CSCMatrix(data, indices, indptr, (nrows, cols.size), check=False)

    def hstack(self, other: "CSCMatrix") -> "CSCMatrix":
        """Concatenate columns: ``[self, other]`` (evolving-data append)."""
        if other.shape[0] != self.shape[0]:
            raise ValidationError(
                f"row mismatch in hstack: {self.shape[0]} vs {other.shape[0]}")
        data = np.concatenate([self.data, other.data])
        indices = np.concatenate([self.indices, other.indices])
        indptr = np.concatenate([self.indptr,
                                 other.indptr[1:] + self.indptr[-1]])
        return CSCMatrix(data, indices, indptr,
                         (self.shape[0], self.shape[1] + other.shape[1]),
                         check=False)

    @classmethod
    def hstack_all(cls, blocks) -> "CSCMatrix":
        """Concatenate many blocks column-wise in a single pass.

        Equivalent to folding :meth:`hstack` but without the quadratic
        re-copying; the streaming encoder assembles its per-block
        coefficient spills with this.
        """
        blocks = list(blocks)
        if not blocks:
            raise ValidationError("hstack_all needs at least one block")
        nrows = blocks[0].shape[0]
        for b in blocks[1:]:
            if b.shape[0] != nrows:
                raise ValidationError(
                    f"row mismatch in hstack_all: {nrows} vs {b.shape[0]}")
        data = np.concatenate([b.data for b in blocks])
        indices = np.concatenate([b.indices for b in blocks])
        ncols = sum(b.shape[1] for b in blocks)
        indptr = np.zeros(ncols + 1, dtype=np.int64)
        col = 0
        offset = 0
        for b in blocks:
            w = b.shape[1]
            indptr[col + 1:col + w + 1] = offset + b.indptr[1:]
            col += w
            offset += int(b.indptr[-1])
        return cls(data, indices, indptr, (nrows, ncols), check=False)

    def pad_rows(self, new_nrows: int) -> "CSCMatrix":
        """Zero-pad to ``new_nrows`` rows (Fig. 3's block-diagonal update)."""
        if new_nrows < self.shape[0]:
            raise ValidationError(
                f"cannot shrink rows {self.shape[0]} -> {new_nrows}")
        return CSCMatrix(self.data, self.indices, self.indptr,
                         (new_nrows, self.shape[1]), check=False)

    def shift_rows(self, offset: int) -> "CSCMatrix":
        """Shift all row indices down by ``offset`` (for block stacking)."""
        if offset < 0:
            raise ValidationError("offset must be non-negative")
        return CSCMatrix(self.data, self.indices + offset, self.indptr,
                         (self.shape[0] + offset, self.shape[1]), check=False)

    # ------------------------------------------------------------------
    # arithmetic (thin wrappers over repro.sparse.ops kernels)
    # ------------------------------------------------------------------
    def matvec(self, x) -> np.ndarray:
        """``self @ x``."""
        from repro.sparse.ops import csc_matvec
        return csc_matvec(self, np.asarray(x, dtype=np.float64))

    def rmatvec(self, y) -> np.ndarray:
        """``selfᵀ @ y``."""
        from repro.sparse.ops import csc_rmatvec
        return csc_rmatvec(self, np.asarray(y, dtype=np.float64))

    def __matmul__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self.matvec(x)
        if x.ndim == 2:
            return np.stack([self.matvec(x[:, k]) for k in range(x.shape[1])],
                            axis=1)
        raise ValidationError("operand must be 1-D or 2-D")

    def frobenius_norm(self) -> float:
        """``‖self‖_F`` from stored entries."""
        return float(np.sqrt(np.dot(self.data, self.data)))

    def allclose(self, other: "CSCMatrix", *, atol: float = 1e-12) -> bool:
        """Numerically compare two CSC matrices entry-wise."""
        if self.shape != other.shape:
            return False
        return bool(np.allclose(self.to_dense(), other.to_dense(), atol=atol))

    def __repr__(self) -> str:
        nrows, ncols = self.shape
        return f"CSCMatrix(shape=({nrows}, {ncols}), nnz={self.nnz})"
