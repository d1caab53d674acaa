"""The numpy Batch-OMP kernel: a lockstep panel loop and its oracle.

Two implementations of one greedy loop that agree bit for bit, column
for column:

* :func:`batch_omp_column` — the per-column reference.  Plain
  sequential substitution on python floats for the ``k ≤ ~4`` Cholesky
  work, numpy only for the ``O(L)`` argmax and correlation refresh.  It
  is the lockstep loop's bit-exact oracle, and the path narrow calls
  take (serve micro-batches hold one or two columns).
* :func:`lockstep_columns` — the lockstep panel kernel.  Each step
  advances every still-active column of a panel by one greedy
  iteration: a batched argmax over the ``(n, L)`` correlation block,
  stacked per-column Cholesky rows updated with elementwise numpy, the
  ``α = Dᵀa − Σ_t G[s_t]·c_t`` refresh from gathered ``G`` rows, and
  converged columns retired from the block.  The per-step interpreter
  cost is paid once per panel instead of once per column.

The invariance rule both follow: a column's bits depend only on ``(G,
its Dᵀa column, ‖a‖²)`` — never on its neighbours, the panel width or
how many columns are still active.  Every per-column quantity is an
elementwise op across the column axis; every sum over support slots is
a sequential loop in one fixed order (forward substitution and the
``α``/residual sums left to right, back substitution right to left, as
its column sweep runs); padded slots of a column with a shorter support
contribute exact zeros.  No reduction runs through BLAS, ``np.sum`` or
``einsum``, whose blocking depends on the operand shapes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NumpyBackend", "batch_omp_column", "lockstep_columns"]

#: A Cholesky pivot at or below this marks the candidate atom as
#: numerically dependent on the support: it is banned, not selected.
PIVOT_TOL = 1e-12

#: Narrowest call the lockstep loop takes; narrower calls run the
#: per-column loop.  Measured crossover (2-core VM): 16 columns at
#: L = 512, 40-50 at L = 48-256, where the lockstep loop's fixed cost
#: per step (~50-100 µs) has to be spread over enough columns.  Both
#: paths give identical bits, so this selects on input size only.
LOCKSTEP_MIN_COLS = 32

#: Largest stacked Cholesky block the lockstep loop holds.  A panel
#: whose supports grow past it is finished in halves (same bits).
FACTOR_BLOCK_BYTES = 16 << 20

#: Support slots allocated per column up front; doubled as supports grow.
_INITIAL_SLOTS = 4


def _stop_sq(a_sq, eps):
    """The loop's stop floor ``max((ε‖a‖)², 1e-12‖a‖²)``, elementwise.

    The recurrence ``‖r‖² = ‖a‖² − cᵀ(Dᵀa)_I`` cancels catastrophically
    below ~√ε_machine·‖a‖, so targets under that floor are unreachable
    noise-chasing; the loop stops there instead.  ``max`` keeps python's
    semantics (the first argument unless the second is larger), as the
    scalar form in :func:`batch_omp_column` does, so both agree on NaN.
    """
    target = eps * np.sqrt(a_sq)
    target_sq = target * target
    floor = a_sq * 1e-12
    return np.where(floor > target_sq, floor, target_sq)


def batch_omp_column(gram, dta, a_sq: float, eps: float,
                     max_atoms: int | None):
    """Batch-OMP greedy loop for one column on precomputed correlations.

    Returns ``(support, coefficients, res_sq, iterations, converged)``
    with the support in selection order.  Argmax ties go to the first
    index; a Cholesky pivot ≤ :data:`PIVOT_TOL` bans the atom without
    counting an iteration; the loop stops at :func:`_stop_sq`, after
    ``max_atoms`` iterations, or when no finite score is left.
    """
    l = gram.shape[0]
    budget = l if max_atoms is None else min(int(max_atoms), l)
    a_sq = float(a_sq)
    if a_sq == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0), 0.0, 0, True
    # _stop_sq on one python float (np.sqrt's NaN for a negative input).
    target = eps * (math.sqrt(a_sq) if a_sq >= 0.0 else math.nan)
    target_sq = target * target
    floor = a_sq * 1e-12
    stop_sq = floor if floor > target_sq else target_sq

    dta = np.ascontiguousarray(dta, dtype=np.float64)
    alpha = dta
    scores = np.empty(l)
    excluded: list[int] = []      # banned or selected atoms
    support: list[int] = []
    rows: list[list[float]] = []  # Cholesky rows L[r, :r]
    diag: list[float] = []        # L[r, r]
    y: list[float] = []           # L⁻¹ (Dᵀa)_I
    coef: list[float] = []
    res_sq = a_sq
    it = 0
    while res_sq > stop_sq and it < budget:
        np.abs(alpha, out=scores)
        for i in excluded:
            scores[i] = -np.inf
        k = int(scores.argmax())
        if not math.isfinite(scores[k]):
            break
        excluded.append(k)
        # w = L⁻¹ G[I, k] and the new pivot G[k, k] − wᵀw.
        w: list[float] = []
        for r, row in enumerate(rows):
            acc = float(gram[support[r], k])
            for t in range(r):
                acc -= row[t] * w[t]
            w.append(acc / diag[r])
        pivot_sq = float(gram[k, k])
        for wt in w:
            pivot_sq -= wt * wt
        if pivot_sq <= PIVOT_TOL:
            continue
        d = math.sqrt(pivot_sq)
        acc = float(dta[k])
        for t, wt in enumerate(w):
            acc -= wt * y[t]
        y.append(acc / d)
        rows.append(w)
        diag.append(d)
        support.append(k)
        # c = L⁻ᵀ y, sweeping the columns of Lᵀ right to left.
        size = len(support)
        acc_c = list(y)
        coef = [0.0] * size
        for t in range(size - 1, -1, -1):
            ct = acc_c[t] / diag[t]
            coef[t] = ct
            row = rows[t]
            for r in range(t):
                acc_c[r] -= row[r] * ct
        alpha = dta - gram[support[0]] * coef[0]
        dot = coef[0] * float(dta[support[0]])
        for t in range(1, size):
            alpha -= gram[support[t]] * coef[t]
            dot += coef[t] * float(dta[support[t]])
        res = a_sq - dot
        res_sq = 0.0 if res < 0.0 else res
        it += 1
    converged = res_sq <= stop_sq + 1e-12 * a_sq
    return (np.asarray(support, dtype=np.int64),
            np.asarray(coef, dtype=np.float64), res_sq, it, converged)


class _Panel:
    """Lockstep state: row ``r`` holds one active column.

    Support slots ``t ≥ size[r]`` are padding: ``supp``/``coef``/``y``
    hold zeros and the Cholesky block ``fac`` holds the identity there,
    so a padded slot always contributes an exact zero.  ``alpha`` is
    ``None`` while it equals ``dta`` (before the first atom) or while
    every row is about to be refreshed.
    """

    __slots__ = ("ids", "dta", "alpha", "excl", "a_sq", "stop", "size",
                 "it", "res", "supp", "coef", "y", "fac")

    def take(self, rows, *, alpha: bool = True) -> _Panel:
        out = _Panel.__new__(_Panel)
        for name in self.__slots__:
            value = getattr(self, name)
            if name == "alpha" and (value is None or not alpha):
                out.alpha = None
            else:
                setattr(out, name, value[rows])
        return out

    def grow(self, slots: int) -> None:
        n, cap = self.supp.shape
        for name in ("supp", "coef", "y"):
            old = getattr(self, name)
            new = np.zeros((n, slots), dtype=old.dtype)
            new[:, :cap] = old
            setattr(self, name, new)
        fac = np.zeros((n, slots, slots))
        fac[:, np.arange(slots), np.arange(slots)] = 1.0
        fac[:, :cap, :cap] = self.fac
        self.fac = fac


def _retire(st: _Panel, done: np.ndarray, out: list) -> None:
    """Write the results of rows ``done`` into ``out``."""
    supp, coef = st.supp[done], st.coef[done]
    conv = (st.res[done] <= st.stop[done] + 1e-12 * st.a_sq[done]).tolist()
    for i, (j, s, res, it, ok) in enumerate(zip(
            st.ids[done].tolist(), st.size[done].tolist(),
            st.res[done].tolist(), st.it[done].tolist(), conv)):
        out[j] = (supp[i, :s], coef[i, :s], res, it, ok)


def _advance(gram, gdiag, st: _Panel, budget: int, out: list) -> None:
    """Run the lockstep loop until every column of ``st`` retires."""
    while st.ids.size:
        n = st.ids.size
        cap = st.supp.shape[1]
        kmax = int(st.size.max())
        if kmax == cap:
            slots = min(2 * cap, budget)
            if n > 1 and n * slots * slots * 8 > FACTOR_BLOCK_BYTES:
                half = n // 2
                _advance(gram, gdiag, st.take(slice(0, half)), budget, out)
                _advance(gram, gdiag, st.take(slice(half, None)), budget,
                         out)
                return
            st.grow(slots)
        every = np.arange(n)
        uniform = int(st.size.min()) == kmax

        # Batched argmax over the (n, L) block, excluded atoms masked.
        scores = np.abs(st.dta if st.alpha is None else st.alpha)
        np.copyto(scores, -np.inf, where=st.excl)
        kk = scores.argmax(axis=1)
        finite = np.isfinite(scores[every, kk])

        # w = L⁻¹ G[I, k] by a forward column sweep; pivot G[k,k] − wᵀw.
        w = gram[st.supp[:, :kmax], kk[:, None]]
        if not uniform:
            w[np.arange(kmax) >= st.size[:, None]] = 0.0
        for t in range(kmax):
            w[:, t] /= st.fac[:, t, t]
            if t + 1 < kmax:
                w[:, t + 1:] -= st.fac[:, t + 1:kmax, t] * w[:, t, None]
        pivot = gdiag[kk]
        for t in range(kmax):
            pivot -= w[:, t] * w[:, t]
        ok = finite & ~(pivot <= PIVOT_TOL)
        if ok.all():
            st.excl[every, kk] = True
            adv = every
        else:
            st.excl[every[finite], kk[finite]] = True
            adv = np.flatnonzero(ok)
            w, kk, pivot = w[adv], kk[adv], pivot[adv]
        if adv.size:
            c, supp, size = _append_atom(st, adv, w, kk, pivot, kmax,
                                         uniform)

        active = finite & (st.res > st.stop) & (st.it < budget)
        if not active.all():
            _retire(st, np.flatnonzero(~active), out)
            # Rows that took an atom get α afresh below; keep the old α
            # only when a surviving row did not.
            stale = bool((active & ~ok).any())
            st = st.take(np.flatnonzero(active), alpha=stale)
            if adv.size:
                stay = active[adv]
                adv = (np.cumsum(active) - 1)[adv[stay]]
                c, supp = c[stay], supp[stay]
                size = None if size is None else size[stay]
        # α only feeds the next argmax, so only the columns that took an
        # atom and stay active need it.
        if adv.size:
            _refresh_alpha(gram, st, adv, c, supp, size)


def _append_atom(st: _Panel, adv, w, kk, pivot, kmax: int, uniform: bool):
    """Grow the support of rows ``adv`` of ``st`` by atoms ``kk``.

    Appends the Cholesky row ``[w, √pivot]``, extends ``y = L⁻¹(Dᵀa)_I``
    by one entry, re-solves ``c = L⁻ᵀ y`` and updates the residual.
    Returns ``(c, support, size)`` of those rows for the ``α`` refresh
    (``size`` is ``None`` when every row holds ``c.shape[1]`` atoms).
    """
    # ``rows``/``slot`` address each advancing row's new slot: plain
    # slices when every row advances and the supports are level.
    rows = slice(None) if uniform and adv.size == st.ids.size else adv
    slot = kmax if uniform else st.size[adv]
    d = np.sqrt(pivot)
    y = st.y[rows, :kmax]
    acc = st.dta[adv, kk]
    for t in range(kmax):
        acc -= w[:, t] * y[:, t]
    st.y[rows, slot] = acc / d
    st.fac[rows, slot, :kmax] = w
    st.fac[rows, slot, slot] = d
    st.supp[rows, slot] = kk
    st.size[rows] += 1
    size = None if uniform else slot + 1
    k2 = kmax + 1 if uniform else int(size.max())

    # c = L⁻ᵀ y: back substitution sweeping the columns right to left.
    fac = st.fac[rows, :k2, :k2]
    c = st.y[rows, :k2].copy()
    for t in range(k2 - 1, -1, -1):
        c[:, t] /= fac[:, t, t]
        if t:
            c[:, :t] -= fac[:, t, :t] * c[:, t, None]
    st.coef[rows, :k2] = c

    # ‖r‖² = ‖a‖² − Σ_t c_t·(Dᵀa)_{s_t}, left to right.
    supp = st.supp[rows, :k2]
    dta_s = st.dta[adv[:, None], supp]
    if not uniform:
        dta_s[np.arange(k2) >= size[:, None]] = 0.0
    dot = c[:, 0] * dta_s[:, 0]
    for t in range(1, k2):
        dot += c[:, t] * dta_s[:, t]
    st.res[rows] = np.maximum(st.a_sq[rows] - dot, 0.0)
    st.it[rows] += 1
    return c, supp, size


def _refresh_alpha(gram, st: _Panel, adv, c, supp, size) -> None:
    """``α = Dᵀa − Σ_t G[s_t]·c_t`` for rows ``adv``, left to right."""
    k2 = c.shape[1]
    smin = k2 if size is None else int(size.min())
    if adv.size == st.ids.size:
        if st.alpha is None:
            st.alpha = np.empty_like(st.dta)
        buf = np.empty_like(st.alpha)
        for t in range(smin):
            # mode="clip" writes straight into ``buf`` ("raise" buffers
            # the output); every index is a valid atom.
            np.take(gram, supp[:, t], axis=0, out=buf, mode="clip")
            buf *= c[:, t, None]
            np.subtract(st.dta if t == 0 else st.alpha, buf, out=st.alpha)
    else:
        if st.alpha is None:
            st.alpha = st.dta.copy()
        alpha = st.dta[adv] - gram[supp[:, 0]] * c[:, 0, None]
        for t in range(1, smin):
            alpha -= gram[supp[:, t]] * c[:, t, None]
        st.alpha[adv] = alpha
    for t in range(smin, k2):
        sub = np.flatnonzero(size > t)
        st.alpha[adv[sub]] -= gram[supp[sub, t]] * c[sub, t, None]


def _transpose(panel: np.ndarray) -> np.ndarray:
    """``panel.T`` as a C-contiguous array, copied in 32-row tiles.

    A caller's ``(L, n)`` panel is often a slice of a wider matrix; a
    tiled copy keeps the strided reads cache-friendly (~3× faster than
    one strided ``.T.copy()`` at ``L = 512``).  Values are only moved.
    """
    out = np.empty(panel.shape[::-1])
    for lo in range(0, panel.shape[0], 32):
        out[:, lo:lo + 32] = panel[lo:lo + 32].T
    return out


def lockstep_columns(gram, dta_panel, col_sq, eps: float,
                     max_atoms: int | None) -> list:
    """Greedy-code every column of one panel in lockstep.

    Same arguments and results as :meth:`NumpyBackend.batch_omp_columns`,
    bit-identical to :func:`batch_omp_column` applied column by column.
    """
    gram = np.asarray(gram, dtype=np.float64)
    l = gram.shape[0]
    budget = l if max_atoms is None else min(int(max_atoms), l)
    a_sq = np.array(col_sq, dtype=np.float64)
    n = a_sq.size
    stop = _stop_sq(a_sq, eps)
    out: list = [None] * n
    live = (a_sq > stop) & (budget > 0) & (a_sq != 0.0)
    empty_i, empty_f = np.empty(0, dtype=np.int64), np.empty(0)
    for j in np.flatnonzero(~live).tolist():
        if a_sq[j] == 0.0:
            out[j] = (empty_i.copy(), empty_f.copy(), 0.0, 0, True)
        else:
            out[j] = (empty_i.copy(), empty_f.copy(), float(a_sq[j]), 0,
                      bool(a_sq[j] <= stop[j] + 1e-12 * a_sq[j]))
    ids = np.flatnonzero(live)
    if ids.size == 0:
        return out
    m = ids.size
    st = _Panel.__new__(_Panel)
    st.ids = ids
    st.dta = _transpose(np.asarray(dta_panel, dtype=np.float64))
    if m < n:
        st.dta = st.dta[ids]
    st.alpha = None
    st.excl = np.zeros((m, l), dtype=bool)
    st.a_sq, st.stop = a_sq[ids], stop[ids]
    st.res = st.a_sq.copy()
    st.size = np.zeros(m, dtype=np.int64)
    st.it = np.zeros(m, dtype=np.int64)
    st.supp = np.zeros((m, 0), dtype=np.int64)
    st.coef, st.y = np.zeros((m, 0)), np.zeros((m, 0))
    st.fac = np.zeros((m, 0, 0))
    st.grow(min(_INITIAL_SLOTS, budget))
    with np.errstate(invalid="ignore", divide="ignore"):
        _advance(gram, np.ascontiguousarray(np.diagonal(gram)), st, budget,
                 out)
    return out


class NumpyBackend:
    """The Batch-OMP kernel: the lockstep panel loop, per-column when narrow."""

    name = "numpy"

    def batch_omp_columns(self, gram, dta_panel, col_sq, eps: float,
                          max_atoms: int | None):
        """Greedy-code every column of one precomputed panel.

        ``gram`` is ``DᵀD`` ``(L, L)``, ``dta_panel`` the panel's ``DᵀA``
        ``(L, k)`` and ``col_sq`` its ``‖a_j‖²`` ``(k,)``; ``eps`` is
        Eq. 1's relative tolerance and ``max_atoms`` an optional cap.
        Returns one ``(support, coefficients, res_sq, iterations,
        converged)`` tuple per column, in column order, with the support
        in selection order (the orchestration layer sorts).
        """
        from repro.linalg.omp import ENCODE_BLOCK_COLS

        n = dta_panel.shape[1]
        results = []
        for lo in range(0, n, ENCODE_BLOCK_COLS):
            hi = min(lo + ENCODE_BLOCK_COLS, n)
            if hi - lo < LOCKSTEP_MIN_COLS:
                results.extend(
                    batch_omp_column(gram, dta_panel[:, j], col_sq[j], eps,
                                     max_atoms)
                    for j in range(lo, hi))
            else:
                results.extend(lockstep_columns(
                    gram, dta_panel[:, lo:hi], col_sq[lo:hi], eps,
                    max_atoms))
        return results
