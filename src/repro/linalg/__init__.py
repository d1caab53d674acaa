"""Numerical building blocks: OMP sparse coding, dense least squares
and power iteration.

The OMP routines are the computational core of ExD (Alg. 1 step 3); the
Batch-OMP variant with progressive Cholesky updates is the one the paper
uses ("we use Batch-OMP based on Cholesky factorization updates [32]").
"""

from repro.linalg.omp import (
    BatchOMPStats,
    OMPResult,
    omp_solve,
    batch_omp_solve,
    batch_omp_matrix,
)
from repro.linalg.parallel_omp import (
    GRAM_CACHE,
    GramCache,
    cached_gram,
    parallel_least_squares,
    resolve_workers,
)
from repro.linalg.pseudo_inverse import least_squares_coefficients
from repro.linalg.power_iteration import power_iteration, top_eigenpairs
from repro.linalg.norms import frobenius_norm, relative_frobenius_error

__all__ = [
    "BatchOMPStats",
    "OMPResult",
    "omp_solve",
    "batch_omp_solve",
    "batch_omp_matrix",
    "GRAM_CACHE",
    "GramCache",
    "cached_gram",
    "parallel_least_squares",
    "resolve_workers",
    "least_squares_coefficients",
    "power_iteration",
    "top_eigenpairs",
    "frobenius_norm",
    "relative_frobenius_error",
]
