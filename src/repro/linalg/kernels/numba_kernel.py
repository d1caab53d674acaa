"""Numba-compiled Batch-OMP kernel (optional dependency).

The whole per-panel greedy loop — argmax selection, progressive
Cholesky update, triangular solves and the ``α = Dᵀa − G[:, I] c``
refresh — runs inside one ``@njit`` function, column after column.  The
algorithm follows :func:`repro.linalg.kernels.numpy_ref.batch_omp_column`
(same selection rule, same ``1e-12`` pivot tolerance, same stopping
floor), so atom-selection sequences match the numpy kernel;
coefficients agree to the package tolerance contract but not bit for
bit: its back substitution and ``α`` sums run in a different order
from the numpy kernel's, and its inner loops may be vectorised by the
compiler.  The numpy kernel it is measured against is the lockstep
panel loop (see :mod:`repro.linalg.kernels.numpy_ref`), so the speed-up
this backend must show (``benchmarks/bench_parallel_omp.py``) is over
that kernel, not over a per-column python loop.

Compilation is lazy (first encode) and cached: ``cache=True`` persists
the machine code next to this file, so one process's compile pays for
every later one, and ``batch_omp_matrix``'s pre-fork
:meth:`~NumbaBackend.warmup` makes children inherit the compiled kernel
copy-on-write instead of recompiling per worker.

Numba is NOT a hard dependency: the module registers the backend
unconditionally but imports numba only when the backend is actually
resolved, and :meth:`NumbaBackend.available` lets ``auto`` degrade to
the numpy reference silently.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from repro.linalg.kernels import OMPKernelBackend, register_backend

__all__ = ["NumbaBackend"]

# Same numerical-dependence threshold as the numpy kernel's PIVOT_TOL.
_PIVOT_TOL = 1e-12

_KERNEL = None
_WARMED = False


def _build_kernel():
    """Compile (or load from cache) the panel kernel. Imports numba."""
    import numba

    @numba.njit(cache=True, fastmath=False)
    def panel_kernel(gram, dta, col_sq, eps, budget):  # pragma: no cover
        l = gram.shape[0]
        k = dta.shape[1]
        cap = budget if budget > 0 else 1
        supports = np.zeros((k, cap), dtype=np.int64)
        coefs = np.zeros((k, cap), dtype=np.float64)
        nnz = np.zeros(k, dtype=np.int64)
        iters = np.zeros(k, dtype=np.int64)
        res_out = np.zeros(k, dtype=np.float64)
        conv = np.zeros(k, dtype=np.bool_)

        alpha = np.empty(l, dtype=np.float64)
        excluded = np.empty(l, dtype=np.bool_)
        lfac = np.zeros((cap, cap), dtype=np.float64)
        w = np.empty(cap, dtype=np.float64)
        y = np.empty(cap, dtype=np.float64)
        coef = np.empty(cap, dtype=np.float64)

        for j in range(k):
            a_sq = col_sq[j]
            if a_sq == 0.0:
                conv[j] = True
                continue
            target_sq = (eps * np.sqrt(a_sq)) ** 2
            stop_sq = max(target_sq, a_sq * 1e-12)
            for i in range(l):
                alpha[i] = dta[i, j]
                excluded[i] = False
            size = 0
            res_sq = a_sq
            it = 0
            while res_sq > stop_sq and it < budget:
                # argmax |alpha| over atoms neither banned nor selected
                # (first index wins ties, like np.argmax over the
                # -inf-masked scores of the reference).
                best = -1
                best_score = -1.0
                for i in range(l):
                    if excluded[i]:
                        continue
                    s = abs(alpha[i])
                    if s > best_score:
                        best_score = s
                        best = i
                if best < 0:
                    break
                # Progressive Cholesky append of G[best, best] with
                # cross terms G[support, best]; a non-positive pivot
                # means the atom is numerically dependent — ban it and
                # retry, exactly like the numpy kernel.
                ok = True
                if size == 0:
                    diag = gram[best, best]
                    if diag <= _PIVOT_TOL:
                        ok = False
                    else:
                        lfac[0, 0] = np.sqrt(diag)
                else:
                    for r in range(size):
                        acc = gram[supports[j, r], best]
                        for t in range(r):
                            acc -= lfac[r, t] * w[t]
                        w[r] = acc / lfac[r, r]
                    pivot_sq = gram[best, best]
                    for t in range(size):
                        pivot_sq -= w[t] * w[t]
                    if pivot_sq <= _PIVOT_TOL:
                        ok = False
                    else:
                        for t in range(size):
                            lfac[size, t] = w[t]
                        lfac[size, size] = np.sqrt(pivot_sq)
                if not ok:
                    excluded[best] = True
                    continue
                supports[j, size] = best
                excluded[best] = True
                size += 1
                # Solve (L Lᵀ) c = (Dᵀa)_I by forward/back substitution.
                for r in range(size):
                    acc = dta[supports[j, r], j]
                    for t in range(r):
                        acc -= lfac[r, t] * y[t]
                    y[r] = acc / lfac[r, r]
                for r in range(size - 1, -1, -1):
                    acc = y[r]
                    for t in range(r + 1, size):
                        acc -= lfac[t, r] * coef[t]
                    coef[r] = acc / lfac[r, r]
                # α = Dᵀa − G[:, I] c and ‖r‖² = ‖a‖² − cᵀ(Dᵀa)_I.
                for i in range(l):
                    acc = dta[i, j]
                    for t in range(size):
                        acc -= gram[i, supports[j, t]] * coef[t]
                    alpha[i] = acc
                dot = 0.0
                for t in range(size):
                    dot += coef[t] * dta[supports[j, t], j]
                res_sq = a_sq - dot
                if res_sq < 0.0:
                    res_sq = 0.0
                it += 1
            nnz[j] = size
            iters[j] = it
            res_out[j] = res_sq
            conv[j] = res_sq <= stop_sq + 1e-12 * a_sq
            for t in range(size):
                coefs[j, t] = coef[t]
        return supports, coefs, nnz, res_out, iters, conv

    return panel_kernel


def _get_kernel():
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _build_kernel()
    return _KERNEL


@register_backend
class NumbaBackend(OMPKernelBackend):
    """Compiled backend: the panel greedy loop as one ``@njit`` kernel."""

    name = "numba"
    compiled = True

    @classmethod
    def available(cls) -> bool:
        return importlib.util.find_spec("numba") is not None

    @classmethod
    def unavailable_reason(cls) -> str | None:
        if cls.available():
            return None
        return ("numba is not installed; pip install numba, or select "
                "backend 'numpy'/'auto'")

    def warmup(self) -> None:
        """Force JIT compilation now (one tiny 1-atom encode)."""
        global _WARMED
        if _WARMED:
            return
        gram = np.ones((1, 1))
        dta = np.ones((1, 1))
        _get_kernel()(gram, dta, np.ones(1), 0.5, 1)
        _WARMED = True

    def batch_omp_columns(self, gram, dta_panel, col_sq, eps: float,
                          max_atoms: int | None):
        l = gram.shape[0]
        budget = l if max_atoms is None else max(min(int(max_atoms), l), 0)
        gram = np.ascontiguousarray(gram, dtype=np.float64)
        dta_panel = np.ascontiguousarray(dta_panel, dtype=np.float64)
        col_sq = np.ascontiguousarray(col_sq, dtype=np.float64)
        supports, coefs, nnz, res_sq, iters, conv = _get_kernel()(
            gram, dta_panel, col_sq, float(eps), budget)
        results = []
        for j in range(dta_panel.shape[1]):
            s = int(nnz[j])
            results.append((supports[j, :s].copy(), coefs[j, :s].copy(),
                            float(res_sq[j]), int(iters[j]),
                            bool(conv[j])))
        return results
