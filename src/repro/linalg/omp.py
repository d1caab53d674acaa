"""Orthogonal Matching Pursuit — the sparse-coding core of ExD.

Two implementations:

* :func:`omp_solve` — the textbook greedy loop exactly as written in the
  paper's Algorithm 1 step 3 (re-solving the least-squares projection on
  the grown support each iteration).  Kept as the readable reference and
  the oracle for tests.
* :func:`batch_omp_solve` / :func:`batch_omp_matrix` — Batch-OMP with
  progressive Cholesky updates [Rubinstein et al. 2008], which the paper
  uses in its implementation (Sec. V-D).  ``batch_omp_matrix`` amortises
  ``G = DᵀD`` across all N columns and evaluates ``DᵀA`` as BLAS-3
  products on fixed-width column panels, which is where the ``O(MNL)``
  term of the paper's complexity bound lives.  It is the only matrix
  encode loop: serial and column-parallel encodes run the same
  per-range sweep, in-process or over forked workers.

Both enforce the *relative* stopping rule of Eq. 1 per column:
``‖a − D c‖₂ ≤ eps · ‖a‖₂``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.errors import DictionaryError, ValidationError
from repro.linalg.kernels import resolve_backend
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


def blocked_dta(d, a: np.ndarray) -> np.ndarray:
    """The whole ``(L, N)`` product ``DᵀA``, panel by panel.

    Assembled from :func:`iter_panel_dta`'s panels, so it carries the
    same bits.  The encodes never hold this product; they stream the
    panels instead.
    """
    l = d.size if is_dict_operator(d) else d.shape[1]
    out = np.empty((l, a.shape[1]), dtype=np.float64)
    for lo, hi, panel in iter_panel_dta(d, a):
        out[:, lo:hi] = panel
    return out


def iter_panel_dta(d, a: np.ndarray):
    """Yield ``(lo, hi, DᵀA[:, lo:hi])`` one fixed-width panel at a time.

    ``d`` may be a dense ``(M, L)`` array or any ``DictOperator`` —
    the panel product then routes through ``d.apply_t`` so a factored
    dictionary pays ``O(transform_nnz)`` per panel column instead of
    ``O(M·L)``.  (A dense :class:`~repro.core.dictionary.Dictionary`
    operator evaluates the very same ``atoms.T @ panel`` expression as
    a bare array, so the bits are unchanged.)

    Bit-for-bit reproducible for any storage layout *and any column
    grouping* of ``a``: every panel apply runs at exactly
    :data:`ENCODE_BLOCK_COLS` columns (zero-padded when partial), so
    each output column is a fixed-shape function of its input column
    alone — encoding the full matrix, an aligned sub-range, or an
    arbitrary micro-batch of single columns produces identical values.

    The full ``(L, N)`` product is never materialised, so an encode
    pays only the apply arithmetic plus one live ``(L, 256)`` panel of
    memory traffic.  For a factored dictionary the avoided ``(L, N)``
    write/read is comparable to the whole ``O(transform_nnz·N)``
    apply, which is where the fast-transform speedup is realised end
    to end.
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
        Dictionary, shape ``(M, L)``.  Selection uses plain
        correlations ``|d_jᵀ r|`` as in Alg. 1, which weight each atom
        by its norm, so the ExD encodes pass unit atoms; the signal
        needs no scaling, since the stopping rule is relative.
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


def check_block_width(block_width) -> int:
    """Validate an explicit streaming block width.

    A width must be a positive multiple of :data:`ENCODE_BLOCK_COLS`:
    then every streamed block starts on an encode panel boundary, and
    the streamed encode keeps the in-memory encode's bits.
    """
    block_width = check_positive_int(block_width, "block_width")
    if block_width % ENCODE_BLOCK_COLS:
        raise ValidationError(
            f"block_width must be a multiple of {ENCODE_BLOCK_COLS} to "
            f"stay aligned with the in-memory encode panels, got "
            f"{block_width}")
    return block_width


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


def _encode_range(shared, bounds: tuple[int, int]):
    """Code columns ``[lo, hi)`` of one ``batch_omp_matrix`` call.

    ``lo`` is panel-aligned, so the padded panels swept here are exactly
    the ones a whole-matrix sweep evaluates for these columns — which is
    why any split into such ranges gives the serial bits.  Returns
    ``(C_part, iterations, converged_mask)``; in strict mode it raises at
    the range's first column that cannot meet ``eps``.
    """
    d, a, gram, eps, max_atoms, strict, kernel = shared
    lo, hi = bounds
    a = a[:, lo:hi]
    col_sq = blocked_column_squares(a)
    l = gram.shape[0]
    builder = ColumnBuilder(nrows=l)
    iterations = 0
    converged = np.zeros(hi - lo, dtype=bool)
    # Each panel's codes land in C with one bulk append.
    for plo, phi, dta_panel in iter_panel_dta(d, a):
        codes = kernel.batch_omp_columns(
            gram, dta_panel, col_sq[plo:phi], eps, max_atoms)
        ok = codes.converged
        if strict and not ok.all():
            off = int(np.argmin(ok))
            raise _strict_failure(eps, l, float(codes.res_sq[off]),
                                  float(col_sq[plo + off]))
        builder.add_columns(codes.support, codes.coefficients, codes.sizes)
        iterations += int(codes.iterations.sum())
        converged[plo:phi] = ok
    return builder.finalize(), iterations, converged


def batch_omp_matrix(d, a, eps: float, *, max_atoms: int | None = None,
                     strict: bool = False,
                     gram: np.ndarray | None = None,
                     workers: int | None = None) \
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
        Column-parallel encode: ``None``/``1`` sweeps all columns in
        one task; above that every :data:`ENCODE_BLOCK_COLS`-column
        panel is one task of a :func:`~repro.linalg.parallel_omp.fork_map`
        over that many processes (``-1`` uses every available core), and
        each worker computes its own ``DᵀA`` panels.  The output is
        bit-identical to the serial sweep for every worker count.
    gram:
        Precomputed ``DᵀD``.  When omitted, it is obtained through the
        process-wide Gram cache, so repeated encodes against the same
        dictionary object skip the ``O(M·L²)`` product.

    Raises
    ------
    DictionaryError
        With ``strict=True``, when any column cannot meet ``eps`` — the
        paper's ``L < L_min`` infeasible regime.  The message names the
        smallest such column at every worker count.
    ValidationError
        When ``eps`` is outside ``[0, 1]`` or ``max_atoms`` is not a
        positive integer.
    """
    # Late module import: fork_map is looked up on the module at call
    # time, so wrappers installed there see every encode map.
    from repro.linalg import parallel_omp

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
    kernel = resolve_backend()
    n = a.shape[1]
    nworkers = parallel_omp.resolve_workers(workers)
    tasks = (encode_block_bounds(n) if nworkers > 1 else None) or [(0, n)]
    with obs.span("omp.encode"):
        if gram is None:
            gram = op.gram() if op is not None else \
                parallel_omp.cached_gram(d)
        shared = (d, a, gram, eps, max_atoms, strict, kernel)
        if len(tasks) == 1:
            # Nothing to fork: no map and no merge, so the fork-pool
            # layer (pool.* counters, traced fork_map calls) sees only
            # maps that can fork.
            c, total_iters, converged_mask = _encode_range(shared,
                                                           tasks[0])
        else:
            obs.inc("pool.chunks", len(tasks))
            obs.set_gauge("pool.workers", nworkers)
            parts = parallel_omp.fork_map(_encode_range, tasks, shared,
                                          nworkers)
            c = CSCMatrix.hstack_all(part[0] for part in parts)
            total_iters = sum(part[1] for part in parts)
            converged_mask = np.concatenate([part[2] for part in parts])
    total_iters = int(total_iters)
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
    return c, stats
