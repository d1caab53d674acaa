"""The density function α(L) = nnz(C)/N and its subset estimator.

Sec. VII's key enabler: for union-of-subspaces data, the *expected*
per-column density of the ExD code is invariant under random column
subsampling — ``E[α(L, A_s, ε)] = E[α(L, A, ε)]`` — so the curve can be
characterised from small nested subsets ``A₁ ⊂ A₂ ⊂ …`` instead of the
full matrix (Figs. 4 and 6).

All estimators accept a ``workers`` knob: the independent
``(size, trial)`` ExD runs are farmed out with one
:func:`~repro.linalg.parallel_omp.fork_map` (embarrassingly parallel),
and when there is only a single run to perform the workers are spent
inside it on the column-parallel encode instead.  Either way every trial
keeps its serial seed derivation (:func:`trial_seeds`), so the reported
α values are identical to the serial path.  :func:`measure_alpha_batch`
runs several estimates — different subsets, sizes and seeds — as one
such batch; the tuner runs its feasibility probes and measures all its
candidates through it, with strict trials that stop at the first panel
holding a column that misses ε, since it drops infeasible sizes anyway.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.exd import exd_transform
from repro.errors import DictionaryError, ValidationError
from repro.linalg.parallel_omp import fork_map, resolve_workers
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_fraction, check_positive_int


@dataclass
class AlphaEstimate:
    """α(L) measurements for one dictionary size.

    ``values`` holds one α per random-dictionary trial; ``errors`` the
    corresponding measured transformation errors; ``feasible`` whether
    every trial met the ε criterion on every column.
    """

    size: int
    values: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    feasible: bool = True

    @property
    def mean(self) -> float:
        """Mean α over trials (NaN when no trial ran)."""
        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def std(self) -> float:
        """Std-dev of α over trials (the Fig. 4 variance bars)."""
        return float(np.std(self.values)) if self.values else float("nan")

    @property
    def mean_error(self) -> float:
        """Mean measured transformation error over trials."""
        return float(np.mean(self.errors)) if self.errors else float("nan")


def trial_seeds(seed, size: int, trials: int) -> list[int]:
    """Dictionary seeds of the trials of ``measure_alpha(seed=seed)``.

    Every estimator that must reproduce :func:`measure_alpha`'s draws
    derives them here.
    """
    return [derive_seed(seed, t, size) for t in range(trials)]


def _alpha_task(shared, payload, workers=None):
    """One independent ExD trial (fork-map task body).

    A strict trial that cannot meet ε stops at its first failing panel
    and returns ``(None, None, False)``: infeasible, with no α.
    """
    from repro.store.column_store import take_columns

    a, eps, compute_error, strict = shared
    cols, size, seed = payload
    sub = a if cols is None else take_columns(a, cols)
    try:
        transform, stats = exd_transform(sub, size, eps, seed=seed,
                                         strict=strict, workers=workers)
    except DictionaryError:
        return None, None, False
    err = transform.transformation_error(sub) if compute_error else None
    return transform.alpha, err, stats.all_converged


def _run_alpha_tasks(a, payloads, eps, *, compute_error, workers,
                     strict=False):
    """Run ``(columns, size, seed)`` ExD trials, parallel across trials.

    A trial encodes ``a`` itself when ``columns`` is ``None`` and the
    subset ``A[:, columns]`` otherwise, read by whichever process runs
    the trial.  With a single task the workers are redirected into the
    trial's own column-parallel encode; results always come back in
    payload order.
    """
    nworkers = resolve_workers(workers)
    shared = (a, eps, compute_error, strict)
    obs.inc("alpha.trials", len(payloads))
    with obs.span("alpha.trials"):
        if len(payloads) == 1 and nworkers > 1:
            return [_alpha_task(shared, payloads[0], workers=workers)]
        return fork_map(_alpha_task, payloads, shared, nworkers)


def _collect(est: AlphaEstimate, results) -> AlphaEstimate:
    for alpha, err, ok in results:
        if alpha is not None:
            est.values.append(alpha)
        if err is not None:
            est.errors.append(err)
        if not ok:
            est.feasible = False
    return est


def measure_alpha_batch(a, plan, eps: float, *, trials: int = 1,
                        compute_error: bool = False,
                        workers: int | None = None,
                        strict: bool = False) -> list[AlphaEstimate]:
    """:func:`measure_alpha` for every ``(columns, size, seed)`` of ``plan``.

    Entry ``k`` of the result equals ``measure_alpha(A_k, size, eps,
    trials=trials, seed=seed, compute_error=compute_error)`` for entry
    ``k`` of ``plan``, bit for bit, where ``A_k`` is ``a`` itself when
    ``columns`` is ``None`` and ``A[:, columns]`` otherwise.  All
    ``len(plan) × trials`` ExD runs are independent, so with ``workers``
    they run as one trial-parallel batch — one fork per worker for the
    whole plan instead of one map per entry.  Each trial reads its own
    column subset, in the process that runs it, so the caller never
    holds more than one subset at a time.

    ``strict=True`` is for callers that discard infeasible estimates
    (the tuners): every trial runs a strict encode, which stops at the
    first 256-column panel holding a column that misses ε, and such a
    trial adds no α to its estimate.  ``feasible`` is the same either
    way; so are the α values of estimates that stay feasible.
    """
    from repro.store.column_store import check_matrix_or_store

    a = check_matrix_or_store(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    trials = check_positive_int(trials, "trials")
    sizes, payloads = [], []
    for cols, size, seed in plan:
        size = check_positive_int(size, "size")
        sizes.append(size)
        payloads += [(cols, size, s) for s in trial_seeds(seed, size, trials)]
    results = _run_alpha_tasks(a, payloads, eps,
                               compute_error=compute_error,
                               workers=workers, strict=strict)
    return [_collect(AlphaEstimate(size=size),
                     results[k * trials:(k + 1) * trials])
            for k, size in enumerate(sizes)]


def measure_alpha(a, size: int, eps: float, *, trials: int = 1,
                  seed=None, compute_error: bool = False,
                  workers: int | None = None) -> AlphaEstimate:
    """Run ExD ``trials`` times with independent dictionaries; report α.

    ``compute_error=False`` skips the dense reconstruction (which costs
    O(M·N·L)); the per-column OMP residuals already guarantee the bound.
    ``workers`` parallelises across trials (or inside the encode when
    ``trials == 1``); the measured values match the serial path exactly.
    ``a`` may be a :class:`~repro.store.ColumnStore` — each trial then
    streams the encode and the α values match the in-memory ones
    bit-for-bit.
    """
    return measure_alpha_batch(a, [(None, size, seed)], eps, trials=trials,
                               compute_error=compute_error,
                               workers=workers)[0]


def alpha_curve(a, sizes, eps: float, *, trials: int = 1, seed=None,
                compute_error: bool = False,
                workers: int | None = None) -> list[AlphaEstimate]:
    """α(L) over a sweep of dictionary sizes (Fig. 4 / Fig. 5 series).

    The ``len(sizes) × trials`` ExD runs are independent and are
    parallelised jointly when ``workers`` is set.
    """
    return measure_alpha_batch(a, [(None, s, seed) for s in sizes], eps,
                               trials=trials, compute_error=compute_error,
                               workers=workers)


@dataclass
class SubsetAlphaEstimate:
    """Result of the nested-subset estimation of Sec. VII."""

    subset_sizes: list
    curves: dict          # subset size -> {L: alpha}
    converged: bool       # discrepancy threshold met before full data
    final_alpha: dict     # L -> alpha from the largest subset used

    def discrepancy(self, n_small: int, n_big: int) -> float:
        """Max relative α difference between two subset curves."""
        small, big = self.curves[n_small], self.curves[n_big]
        rel = [abs(small[l] - big[l]) / max(big[l], 1e-12) for l in big]
        return float(max(rel))


def _plan_subset_sizes(fracs, n: int, max_l: int) -> list[int]:
    """Distinct, increasing subset sizes in ``[max_l + 1, n]``.

    Every subset must exceed ``max_l`` columns (a dictionary of L atoms
    needs more than L columns to sample from), which for small ``N`` can
    clamp several fractions onto one size.  The discrepancy test of
    Sec. VII needs at least *two* distinct sizes, so when the clamp
    collapses the plan and room remains, a second larger subset is
    added; when ``N`` itself leaves no room, the single-subset plan is
    returned and the caller warns.
    """
    lo = min(max_l + 1, n)
    plan: list[int] = []
    for frac in fracs:
        n_s = min(max(int(round(frac * n)), lo), n)
        if not plan or n_s > plan[-1]:
            plan.append(n_s)
    if len(plan) < 2 and plan[-1] < n:
        plan.append(min(n, max(2 * plan[-1], plan[-1] + 1)))
    return plan


def estimate_alpha_from_subsets(a, sizes, eps: float, *,
                                subset_fractions=(0.05, 0.1, 0.2, 0.4),
                                threshold: float = 0.1, seed=None,
                                trials: int = 1,
                                workers: int | None = None) \
        -> SubsetAlphaEstimate:
    """Estimate α(L) from growing random subsets of ``A``.

    Runs ExD on nested subsets ``A₁ ⊂ A₂ ⊂ …`` (fractions of N) and
    stops as soon as consecutive curves agree within ``threshold``
    relative discrepancy — the low-overhead tuning protocol of Sec. VII.
    At least two distinct subset sizes are used whenever ``N`` permits;
    if it does not, a single-subset estimate is returned with
    ``converged=False`` and an explicit :class:`UserWarning` (the
    discrepancy cross-validation never ran).

    The subset loop stays sequential (early stopping feeds on the
    previous curve), but the ``sizes × trials`` runs within each subset
    are parallelised when ``workers`` is set.  With a
    :class:`~repro.store.ColumnStore` input only the sampled subset
    columns are ever read from disk — the full matrix is not.
    """
    from repro.store.column_store import check_matrix_or_store, take_columns

    a = check_matrix_or_store(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    sizes = [check_positive_int(s, "size") for s in sizes]
    if not subset_fractions:
        raise ValidationError("subset_fractions must be non-empty")
    fracs = sorted(float(f) for f in subset_fractions)
    if fracs[0] <= 0 or fracs[-1] > 1:
        raise ValidationError(
            f"subset fractions must lie in (0, 1], got {subset_fractions}")
    n = a.shape[1]
    rng = as_generator(seed)
    order = rng.permutation(n)  # one permutation → properly nested subsets
    subset_sizes: list[int] = []
    curves: dict[int, dict[int, float]] = {}
    converged = False
    max_l = max(sizes)
    plan = _plan_subset_sizes(fracs, n, max_l)
    if len(plan) < 2:
        warnings.warn(
            f"estimate_alpha_from_subsets: N={n} admits only one subset "
            f"of more than max(sizes)={max_l} columns; returning a "
            f"single-subset estimate without discrepancy "
            f"cross-validation (converged=False)", UserWarning,
            stacklevel=2)
    prev_n = None
    for n_s in plan:
        sub = take_columns(a, order[:n_s])
        # Seeds replicate the serial nesting measure_alpha would use.
        payloads = [(None, l, derive_seed(derive_seed(seed, n_s, l), t, l))
                    for l in sizes for t in range(trials)]
        results = _run_alpha_tasks(sub, payloads, eps,
                                   compute_error=False, workers=workers)
        curve = {}
        for i, l in enumerate(sizes):
            est = AlphaEstimate(size=l)
            _collect(est, results[i * trials:(i + 1) * trials])
            curve[l] = est.mean
        subset_sizes.append(n_s)
        curves[n_s] = curve
        if prev_n is not None:
            rel = max(abs(curves[prev_n][l] - curve[l]) /
                      max(curve[l], 1e-12) for l in sizes)
            if rel <= threshold:
                converged = True
                break
        prev_n = n_s
    final = curves[subset_sizes[-1]]
    return SubsetAlphaEstimate(subset_sizes=subset_sizes, curves=curves,
                               converged=converged, final_alpha=dict(final))
