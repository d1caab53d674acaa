"""Orthogonal Matching Pursuit — the sparse-coding core of ExD.

Two implementations:

* :func:`omp_solve` — the textbook greedy loop exactly as written in the
  paper's Algorithm 1 step 3 (re-solving the least-squares projection on
  the grown support each iteration).  Kept as the readable reference and
  the oracle for tests.
* :func:`batch_omp_solve` / :func:`batch_omp_matrix` — Batch-OMP with
  progressive Cholesky updates [Rubinstein et al. 2008], which the paper
  uses in its implementation (Sec. V-D).  ``batch_omp_matrix`` amortises
  ``G = DᵀD`` and ``DᵀA`` across all N columns — the whole-matrix
  ``DᵀA`` is one BLAS-3 product, which is where the ``O(MNL)`` term of
  the paper's complexity bound lives.

Both enforce the *relative* stopping rule of Eq. 1 per column:
``‖a − D c‖₂ ≤ eps · ‖a‖₂``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.errors import DictionaryError, ValidationError
from repro.linalg.kernels import resolve_backend
from repro.online.stats import record_encode
from repro.linalg.kernels.numpy_ref import batch_omp_column
from repro.sparse.builder import ColumnBuilder
from repro.sparse.csc import CSCMatrix
from repro.utils.validation import check_fraction, check_positive_int


@dataclass
class OMPResult:
    """Sparse code of one column.

    Attributes
    ----------
    support:
        Selected atom indices, in selection order.
    coefficients:
        Least-squares coefficients for the selected atoms (same order).
    residual_norm:
        Final ``‖a − D_I c‖₂``.
    converged:
        Whether the relative tolerance was met.
    iterations:
        Number of greedy selections performed.
    """

    support: np.ndarray
    coefficients: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


#: Width of the fixed, absolutely-aligned column blocks every matrix
#: encode uses for its BLAS-3 precomputations (``DᵀA``, column norms).
#: BLAS results are not column-wise reproducible across different matrix
#: widths (small-N GEMM/GEMV dispatch to different kernels), so every
#: panel — including a trailing partial one — is evaluated at exactly
#: this width, zero-padded when fewer columns remain.  A fixed-shape
#: GEMM computes each output column from its own input column alone with
#: an instruction sequence independent of the panel's other contents, so
#: a column's coefficients depend only on ``(D, a_j)`` — the invariant
#: that makes the in-memory, out-of-core (:mod:`repro.store`) and
#: serving micro-batch (:mod:`repro.serve`) paths bit-identical however
#: the columns are grouped.  256 columns keeps the per-panel GEMM
#: comfortably in the BLAS-3 regime.
ENCODE_BLOCK_COLS = 256


def encode_block_bounds(n: int, block: int = ENCODE_BLOCK_COLS):
    """Aligned ``[lo, hi)`` compute-block bounds covering ``n`` columns."""
    return [(lo, min(lo + block, n)) for lo in range(0, n, block)]


def _padded_panel(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Contiguous ``ENCODE_BLOCK_COLS``-wide panel of ``a[:, lo:hi]``.

    A full panel is returned as a contiguous copy; a partial one is
    zero-padded on the right to the fixed width so the downstream GEMM /
    einsum always runs at the same shape.
    """
    if hi - lo == ENCODE_BLOCK_COLS:
        return np.ascontiguousarray(a[:, lo:hi])
    panel = np.zeros((a.shape[0], ENCODE_BLOCK_COLS), dtype=np.float64)
    panel[:, :hi - lo] = a[:, lo:hi]
    return panel


def is_dict_operator(d) -> bool:
    """True when ``d`` is a dictionary-like linear operator.

    Duck-typed on the :class:`~repro.core.dictionary.DictOperator`
    protocol members the encode paths need (``apply_t``/``gram``/
    ``atoms``) rather than an isinstance check, so this low-level
    module needs no import from :mod:`repro.core`.
    """
    return (hasattr(d, "apply_t") and hasattr(d, "gram")
            and hasattr(d, "atoms"))


def blocked_dta(d, a: np.ndarray, *, out: np.ndarray | None = None
                ) -> np.ndarray:
    """``DᵀA`` evaluated on fixed-width contiguous column panels.

    ``d`` may be a dense ``(M, L)`` array or any ``DictOperator`` —
    the panel product then routes through ``d.apply_t`` so a factored
    dictionary pays ``O(transform_nnz)`` per panel column instead of
    ``O(M·L)``.  (A dense :class:`~repro.core.dictionary.Dictionary`
    operator evaluates the very same ``atoms.T @ panel`` expression as
    a bare array, so the bits are unchanged.)

    ``out`` lets hot loops that evaluate many same-shaped products
    (the streaming encoder's per-block precompute, the serve path's
    per-micro-batch precompute, benchmarks) reuse one ``(L, n)``
    float64 workspace: first-touch page faults on a fresh output are
    comparable to the apply arithmetic itself for a factored
    dictionary, so the reuse is where much of the fast-transform win
    is realised.  The values written are identical either way.

    Bit-for-bit reproducible for any storage layout *and any column
    grouping* of ``a``: every panel apply runs at exactly
    :data:`ENCODE_BLOCK_COLS` columns (zero-padded when partial), so
    each output column is a fixed-shape function of its input column
    alone — encoding the full matrix, an aligned sub-range, or an
    arbitrary micro-batch of single columns produces identical values.
    """
    if is_dict_operator(d):
        l = d.size
        apply_t = d.apply_t
    else:
        l = d.shape[1]
        apply_t = d.T.__matmul__
    if out is None:
        out = np.empty((l, a.shape[1]), dtype=np.float64)
    elif out.shape != (l, a.shape[1]) or out.dtype != np.float64:
        raise ValidationError(
            f"out must be float64 of shape ({l}, {a.shape[1]}), got "
            f"{out.dtype} {out.shape}")
    for lo, hi in encode_block_bounds(a.shape[1]):
        out[:, lo:hi] = apply_t(_padded_panel(a, lo, hi))[:, :hi - lo]
    return out


def iter_panel_dta(d, a: np.ndarray):
    """Yield ``(lo, hi, DᵀA[:, lo:hi])`` one panel at a time.

    The values are exactly those of :func:`blocked_dta` — one padded
    fixed-width apply per panel — but the full ``(L, N)`` product is
    never materialised, so a consumer that uses each panel once (the
    serial encode sweep) pays only the apply arithmetic plus one live
    ``(L, 256)`` panel of memory traffic.  For a factored dictionary
    the avoided ``(L, N)`` write/read is comparable to the whole
    ``O(transform_nnz·N)`` apply, which is where the fast-transform
    speedup is realised end to end.
    """
    if is_dict_operator(d):
        apply_t = d.apply_t
    else:
        apply_t = d.T.__matmul__
    for lo, hi in encode_block_bounds(a.shape[1]):
        yield lo, hi, apply_t(_padded_panel(a, lo, hi))[:, :hi - lo]


def blocked_column_squares(a: np.ndarray) -> np.ndarray:
    """Per-column ``‖a_j‖²`` over the same fixed-width padded panels."""
    out = np.empty(a.shape[1], dtype=np.float64)
    for lo, hi in encode_block_bounds(a.shape[1]):
        panel = _padded_panel(a, lo, hi)
        out[lo:hi] = np.einsum("ij,ij->j", panel, panel)[:hi - lo]
    return out


def blocked_column_norms(a: np.ndarray) -> np.ndarray:
    """Per-column ℓ2 norms sharing the blocked reduction schedule."""
    return np.sqrt(blocked_column_squares(a))


def _prepare(d, a):
    d = np.asarray(d, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if d.ndim != 2:
        raise ValidationError(f"dictionary must be 2-D, got {d.ndim}-D")
    if a.shape != (d.shape[0],):
        raise ValidationError(
            f"signal must have shape ({d.shape[0]},), got {a.shape}")
    return d, a


def omp_solve(d, a, eps: float, *, max_atoms: int | None = None,
              strict: bool = False) -> OMPResult:
    """Reference OMP: greedy atom selection + full re-projection.

    Parameters
    ----------
    d:
        Dictionary, shape ``(M, L)``; atoms need not be normalised
        (selection uses plain correlations ``|d_jᵀ r|`` as in Alg. 1,
        which assumes the input data matrix was column-normalised).
    a:
        Signal to code, shape ``(M,)``.
    eps:
        Relative tolerance of Eq. 1.
    max_atoms:
        Optional sparsity cap; defaults to ``L``.
    strict:
        Raise :class:`~repro.errors.DictionaryError` instead of returning
        an unconverged result when the tolerance cannot be met.
    """
    d, a = _prepare(d, a)
    m, l = d.shape
    budget = l if max_atoms is None else min(int(max_atoms), l)
    a_norm = float(np.linalg.norm(a))
    target = eps * a_norm
    # Numerical floor: residuals below ~1e-9·‖a‖ are float noise; chasing
    # them only pads the support with zero-weight atoms.
    stop_at = max(target, 1e-9 * a_norm)
    if a_norm == 0.0:
        return OMPResult(np.empty(0, dtype=np.int64), np.empty(0), 0.0,
                         True, 0)
    residual = a.copy()
    support: list[int] = []
    coef = np.empty(0)
    banned = np.zeros(l, dtype=bool)
    it = 0
    while float(np.linalg.norm(residual)) > stop_at and it < budget:
        corr = np.abs(d.T @ residual)
        corr[banned] = -np.inf
        if support:
            corr[np.asarray(support)] = -np.inf
        k = int(np.argmax(corr))
        if not np.isfinite(corr[k]):
            break
        trial = support + [k]
        sub = d[:, trial]
        coef_trial, *_ = np.linalg.lstsq(sub, a, rcond=None)
        new_residual = a - sub @ coef_trial
        if float(np.linalg.norm(new_residual)) >= \
                float(np.linalg.norm(residual)) - 1e-15 * a_norm:
            # Atom adds nothing (numerically dependent); ban and retry.
            banned[k] = True
            continue
        support = trial
        coef = coef_trial
        residual = new_residual
        it += 1
    rnorm = float(np.linalg.norm(residual))
    converged = rnorm <= stop_at + 1e-12 * a_norm
    if strict and not converged:
        raise DictionaryError(
            f"OMP could not reach eps={eps} with {l} atoms "
            f"(residual {rnorm:.3e} > target {target:.3e})")
    return OMPResult(np.asarray(support, dtype=np.int64), np.asarray(coef),
                     rnorm, converged, it)


def check_encode_args(eps, max_atoms) -> tuple[float, int | None]:
    """Validate the tolerance and sparsity cap of a public encode call.

    ``eps`` must lie in ``[0, 1]`` and ``max_atoms`` must be ``None`` or
    a positive integer; both raise
    :class:`~repro.errors.ValidationError` otherwise.  (Unchecked, a
    negative ``eps`` squares into a positive tolerance, a NaN one stops
    nothing and a negative cap silently returns all-zero codes.)
    """
    eps = check_fraction(eps, "eps", inclusive_low=True)
    if max_atoms is not None:
        max_atoms = check_positive_int(max_atoms, "max_atoms")
    return eps, max_atoms


def _strict_failure(eps: float, l: int, res_sq: float,
                    a_sq: float) -> DictionaryError:
    target_sq = (eps * float(np.sqrt(a_sq))) ** 2
    return DictionaryError(
        f"Batch-OMP could not reach eps={eps} with {l} atoms "
        f"(residual {np.sqrt(res_sq):.3e} > "
        f"target {np.sqrt(target_sq):.3e})")


def batch_omp_solve(d, a, eps: float, *, gram: np.ndarray | None = None,
                    dta: np.ndarray | None = None,
                    max_atoms: int | None = None,
                    strict: bool = False) -> OMPResult:
    """Batch-OMP for one column, reusing precomputed ``G`` and ``Dᵀa``.

    The residual is never formed: correlations are updated through
    ``α = Dᵀa − G[:, I] c`` and the residual norm through
    ``‖r‖² = ‖a‖² − cᵀ (Dᵀa)_I`` (valid because ``r ⊥ span(D_I)``).
    """
    d, a = _prepare(d, a)
    eps, max_atoms = check_encode_args(eps, max_atoms)
    m, l = d.shape
    if gram is None:
        gram = d.T @ d
    if dta is None:
        dta = d.T @ a
    a_sq = float(a @ a)
    support, coef, res_sq, it, converged = batch_omp_column(
        gram, dta, a_sq, eps, max_atoms)
    if strict and not converged:
        raise _strict_failure(eps, l, res_sq, a_sq)
    return OMPResult(support, coef, float(np.sqrt(res_sq)), converged, it)


@dataclass
class BatchOMPStats:
    """Aggregate accounting of one ``batch_omp_matrix`` call.

    ``converged_mask`` carries the per-column ε verdicts (the same flags
    ``batch_omp_solve`` would report column by column), so callers like
    the evolving-data update never need a dense ``O(M·N·L)``
    re-reconstruction to find the unrepresentable columns.
    """

    columns: int
    converged_columns: int
    total_iterations: int
    flops: int
    converged_mask: np.ndarray | None = None


def batch_omp_matrix(d, a, eps: float, *, max_atoms: int | None = None,
                     strict: bool = False,
                     gram: np.ndarray | None = None,
                     workers: int | None = None,
                     chunk_size: int | None = None,
                     backend=None) \
        -> tuple[CSCMatrix, BatchOMPStats]:
    """Sparse-code every column of ``a`` against dictionary ``d``.

    ``d`` may be a dense ``(M, L)`` array or any ``DictOperator``
    (dense :class:`~repro.core.dictionary.Dictionary`, factored
    :class:`~repro.core.fastdict.FastDict`, evolve-path block
    operator): the ``DᵀA`` precompute and the FLOP ledger then route
    through the operator, so a factored dictionary's precompute costs
    ``O(transform_nnz·N)`` instead of ``O(M·L·N)``.  A dense operator
    reproduces the bare-array bits exactly.

    Returns the coefficient matrix ``C`` (CSC, shape ``(L, N)``) and the
    aggregate statistics (including an analytic FLOP estimate used to
    charge virtual clocks in the distributed preprocessing).

    Parameters
    ----------
    workers:
        Column-parallel encode over a shared-memory worker pool (see
        :mod:`repro.linalg.parallel_omp`).  ``None``/``1`` is serial;
        ``-1`` uses every available core.  The output is bit-identical
        to the serial path for every worker count.
    chunk_size:
        Columns per worker task (parallel path only); defaults to ~4
        tasks per worker.
    gram:
        Precomputed ``DᵀD``.  When omitted, it is obtained through the
        process-wide Gram cache, so repeated encodes against the same
        dictionary object skip the ``O(M·L²)`` product.
    backend:
        Which :mod:`~repro.linalg.kernels` implementation runs the
        per-column greedy loop: a name (``"numpy"``, ``"numba"``,
        ``"auto"``), a backend instance, or ``None`` for the
        process/environment default (``REPRO_OMP_BACKEND``).  All
        FLOP/metric accounting stays here in the orchestration layer,
        so Eq. 2/3 numbers are backend-independent; results are
        bit-identical across the serial/parallel/streaming/serving
        paths *for any fixed backend*, and within the kernels package's
        documented tolerance across backends.

    Raises
    ------
    DictionaryError
        With ``strict=True``, as soon as any column cannot meet ``eps``
        — the paper's ``L < L_min`` infeasible regime.
    ValidationError
        When ``eps`` is outside ``[0, 1]`` or ``max_atoms`` is not a
        positive integer.
    """
    from repro.linalg.parallel_omp import (
        cached_gram,
        parallel_batch_omp_matrix,
        resolve_workers,
    )

    op = d if is_dict_operator(d) else None
    if op is None:
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 2:
            raise ValidationError(f"dictionary must be 2-D, got {d.ndim}-D")
        m, l = d.shape
        transform_nnz = m * l
    else:
        m, l = op.m, op.size
        transform_nnz = op.transform_nnz
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != m:
        raise ValidationError(
            f"incompatible shapes: D({m}, {l}), A{a.shape}")
    eps, max_atoms = check_encode_args(eps, max_atoms)
    if resolve_workers(workers) > 1:
        return parallel_batch_omp_matrix(d, a, eps, max_atoms=max_atoms,
                                         strict=strict, gram=gram,
                                         workers=workers,
                                         chunk_size=chunk_size,
                                         backend=backend)
    kernel = resolve_backend(backend)
    n = a.shape[1]
    with obs.span("omp.encode"):
        if gram is None:
            gram = op.gram() if op is not None else cached_gram(d)
        col_sq = blocked_column_squares(a)
        builder = ColumnBuilder(nrows=l)
        total_iters = 0
        converged_mask = np.zeros(n, dtype=bool)
        # The greedy loops run panel-by-panel through the selected
        # kernel backend (each column is independent, so the grouping
        # is free); the DᵀA precompute streams through the same aligned
        # BLAS-3 panels (never materialising the (L, N) product — the
        # fixed partition is also what lets the out-of-core streaming
        # encoder reproduce these bits block by block).  Strict-mode
        # still fails on the smallest out-of-tolerance column index; each
        # panel's codes land in C with one bulk append.
        for lo, hi, dta_panel in iter_panel_dta(d, a):
            results = kernel.batch_omp_columns(
                gram, dta_panel, col_sq[lo:hi], eps, max_atoms)
            ok = np.fromiter((r[4] for r in results), dtype=bool,
                             count=hi - lo)
            if strict and not ok.all():
                off = int(np.argmin(ok))
                raise _strict_failure(eps, l, results[off][2],
                                      float(col_sq[lo + off]))
            builder.add_columns([r[0] for r in results],
                                [r[1] for r in results])
            total_iters += sum(r[3] for r in results)
            converged_mask[lo:hi] = ok
        c = builder.finalize()
    # FLOP model: DᵀA is 2·transform_nnz·N (= 2·M·N·L dense — a
    # factored dictionary's ledger counts its actual Σⱼ nnz(Sⱼ)); each
    # greedy iteration touches O(L·k) for the alpha update plus O(k²)
    # solves — dominated by 2·L per support entry per iteration,
    # approximated with the paper's O(M·N·L + nnz(C)) bound.
    flops = 2 * transform_nnz * n + 4 * l * total_iters + 2 * c.nnz
    stats = BatchOMPStats(columns=n,
                          converged_columns=int(converged_mask.sum()),
                          total_iterations=total_iters, flops=int(flops),
                          converged_mask=converged_mask)
    obs.merge_counters({"omp.columns_encoded": stats.columns,
                        "omp.converged_columns": stats.converged_columns,
                        "omp.iterations": total_iters,
                        "omp.flops": stats.flops})
    # Atom-usage hook (repro.online): one falsy-dict check when nothing
    # is watched; the parallel path records in its own parent instead
    # (this function returned early above), so each encode records once.
    record_encode(op if op is not None else d, c)
    return c, stats
