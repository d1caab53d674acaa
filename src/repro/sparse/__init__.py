"""Sparse-matrix substrate.

The paper's coefficient matrix ``C`` is stored column-compressed because
ExD produces it one column at a time (one OMP solve per data column) and
Algorithm 2 partitions it by columns across processors.  We implement the
containers from scratch rather than using :mod:`scipy.sparse` so that

* every kernel reports exact FLOP counts to the performance model
  (Sec. VI-B charges ``nnz(C)`` multiplications per sparse product), and
* column partitioning / zero-padded extension (the evolving-data update,
  Sec. V-E) are first-class, cheap operations.
"""

from repro.sparse.csc import CSCMatrix
from repro.sparse.builder import ColumnBuilder
from repro.sparse.ops import (
    csc_matvec,
    csc_rmatvec,
    counted_matvec,
    counted_rmatvec,
    counted_dense_matvec,
    counted_dense_rmatvec,
    FlopCount,
)

__all__ = [
    "CSCMatrix",
    "ColumnBuilder",
    "csc_matvec",
    "csc_rmatvec",
    "counted_matvec",
    "counted_rmatvec",
    "counted_dense_matvec",
    "counted_dense_rmatvec",
    "FlopCount",
]
