"""Automated ExD customisation (Sec. VII).

Given a platform cost model, a tolerance ε and candidate dictionary
sizes, the tuner

1. estimates α(L) on a random data subset (cheap, expectation-preserving
   for union-of-subspaces data);
2. predicts ``nnz(C) ≈ α(L)·N`` for the full matrix;
3. evaluates Eq. 2/3/4 for each candidate and returns the arg-min.

``find_min_feasible_size`` locates L_min — the smallest dictionary for
which OMP can meet ε on every column — which both bounds the search
space and *is* the (platform-oblivious) choice of the RankMap baseline.

Neither step needs the α of an infeasible size, so both encode strictly:
an infeasible probe or candidate trial stops at the first 256-column
panel that holds a column missing ε.  Nor does the sweep encode a
candidate Eq. 2/3/4 already rule out: the costs never decrease in
nnz(C), so once a candidate's cost at nnz = 0 reaches the best row, it
and every larger candidate are skipped.  The sketched tuner
(:mod:`repro.online.sketch`) runs the same candidate sweep on a sketch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile

from repro import observability as obs
from repro.core.alpha import measure_alpha_batch
from repro.core.cost_model import CostModel
from repro.errors import TuningError
from repro.linalg.kernels import use_backend
from repro.linalg.parallel_omp import resolve_workers
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_fraction, check_positive_int


@dataclass
class TuningResult:
    """Outcome of a tuner run.

    Attributes
    ----------
    best_size:
        The cost-minimising dictionary size L*.
    objective:
        Which cost was minimised ("time", "energy", "memory").
    table:
        Per-candidate rows ``(L, alpha, predicted_nnz, cost)`` in
        increasing L.  Infeasible candidates are excluded, and so are
        the dominated ones the sweep skipped: every candidate from the
        first one whose cost at nnz = 0 reaches the best row (once the
        table holds two rows).  The rows are those of a full sweep, cut
        there.
    subset_columns:
        How many data columns the candidate evaluation actually read:
        the largest α-estimation subset over the candidates the sweep
        kept (feasible or not).
    """

    best_size: int
    objective: str
    table: list = field(default_factory=list)
    subset_columns: int = 0

    def cost_of(self, size: int) -> float:
        """Predicted cost of a candidate size from the tuning table.

        Raises :class:`KeyError` for a size the table leaves out:
        infeasible, skipped as dominated, or never a candidate.
        """
        for l, _alpha, _nnz, cost in self.table:
            if l == size:
                return cost
        raise KeyError(f"size {size} not in tuning table")


def default_candidates(m: int, n: int, l_min: int) -> list[int]:
    """Geometric candidate grid from L_min up to min(max(4·M, 2·L_min), N)."""
    upper = min(max(4 * m, 2 * l_min), n)
    sizes = []
    l = max(l_min, 1)
    while l < upper:
        sizes.append(l)
        l = max(l + 1, int(round(l * 1.6)))
    sizes.append(upper)
    return sorted(set(sizes))


def _candidate_plan(candidates, n_sub: int, n: int, seed) -> list:
    """``(L, n_eff, seed)`` for every candidate the tuner can evaluate.

    Candidate ``L`` is α-estimated on the subset ``order[:n_eff]`` with
    ``n_eff = min(max(n_sub, 2L), N)`` — a candidate larger than the
    subset would sample every subset column — and with the dictionaries
    of ``measure_alpha(..., seed=derive_seed(seed, 2, L))``; candidates
    larger than the data are skipped.
    """
    plan = []
    for l in candidates:
        n_eff = min(max(n_sub, 2 * l), n)
        if l <= n_eff:
            plan.append((l, n_eff, derive_seed(seed, 2, l)))
    return plan


def _candidate_sweep(a, plan, eps: float, cost_model: CostModel,
                     objective: str, m: int, n: int, *, trials: int,
                     workers) -> tuple[list, int]:
    """Eq. 2/3/4 rows ``(L, alpha, predicted_nnz, cost)`` of a sweep.

    ``plan`` holds one :func:`measure_alpha_batch` entry
    ``(columns, L, seed)`` per candidate, in increasing ``L``.  Each
    feasible ``L`` is billed as ``nnz(C) ≈ α(L)·N`` on an
    ``(M, N) = (m, n)`` matrix, which need not be the shape of ``a``
    (the sketched tuner measures α on a sketch); infeasible candidates
    are dropped.

    The sweep is a serial scan that stops at the first candidate whose
    cost at nnz = 0 is at least the best row so far, once the table
    holds two rows (the drift monitor fits its α(L) curve to them).
    Eqs. 2–4 never decrease in nnz(C), and their value at nnz = 0 rises
    with L, so neither that candidate nor any larger one can win, and
    L* is the full sweep's.  Candidates are encoded in waves of
    ``workers``, each one strict trial-parallel batch; a wave's results
    are scanned in L order and any past the stop are discarded, so the
    rows are the same at every worker count.

    Returns ``(table, kept)``: the rows and the number of leading
    ``plan`` entries the scan kept, feasible or not.
    """
    table, kept = [], 0

    def admits(size: int) -> bool:
        return len(table) < 2 or cost_model.objective(
            objective, m, size, 0, n) < min(row[3] for row in table)

    width = resolve_workers(workers)
    while kept < len(plan):
        wave = list(takewhile(lambda entry: admits(entry[1]),
                              plan[kept:kept + width]))
        if not wave:
            break
        for est in measure_alpha_batch(a, wave, eps, trials=trials,
                                       workers=workers, strict=True):
            if not admits(est.size):
                break  # so the next wave, which starts here, is empty
            kept += 1
            if est.feasible:
                predicted_nnz = est.mean * n
                cost = cost_model.objective(objective, m, est.size,
                                            predicted_nnz, n)
                table.append((est.size, est.mean, predicted_nnz, cost))
    obs.inc("tuner.candidates_evaluated", kept)
    obs.inc("tuner.candidates_pruned", len(plan) - kept)
    obs.inc("tuner.candidates_feasible", len(table))
    return table, kept


def find_min_feasible_size(a, eps: float, *, seed=None,
                           subset_fraction: float = 0.25,
                           trials: int = 1,
                           max_size: int | None = None,
                           backend=None) -> int:
    """Smallest L whose random dictionary meets ε on every column.

    Uses doubling + bisection on a random column subset.  Feasibility is
    monotone in L in expectation (more atoms only help), which the
    bisection relies on; ``trials > 1`` guards against unlucky draws.
    The probes are sequential, since each feeds the next bracket, and
    run in the caller.  A probe of size L is feasible exactly when
    ``measure_alpha(subset, L, eps, trials=trials,
    seed=derive_seed(seed, 1, L)).feasible``, but its trials encode
    strictly (``measure_alpha_batch(..., strict=True)``): each stops at
    its first panel that holds a failing column.

    ``subset_fraction`` must lie in (0, 1] and ``max_size``, when
    given, must be a positive integer.  ``a`` may be a
    :class:`~repro.store.ColumnStore`; the probes then read only their
    subset columns from disk.  ``backend`` selects the OMP kernel (see
    :mod:`repro.linalg.kernels`) for every probe encode.
    """
    from repro.store.column_store import check_matrix_or_store, take_columns

    a = check_matrix_or_store(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    subset_fraction = check_fraction(subset_fraction, "subset_fraction")
    n = a.shape[1]
    limit = n if max_size is None else \
        min(check_positive_int(max_size, "max_size"), n)
    rng = as_generator(seed)
    n_sub = max(min(n, int(round(subset_fraction * n))), 2)
    order = rng.permutation(n)
    sub = take_columns(a, order[:n_sub])

    def feasible(l: int) -> bool:
        # Grow the subset when the probe approaches its column count —
        # a dictionary cannot sample more columns than the subset holds,
        # and a near-exhaustive sample is not representative anyway.
        nonlocal sub
        if 2 * l > sub.shape[1]:
            bigger = min(max(2 * l, sub.shape[1]), n)
            sub = take_columns(a, order[:bigger])
        if l > sub.shape[1]:
            return False
        obs.inc("tuner.feasibility_probes")
        return measure_alpha_batch(sub, [(None, l, derive_seed(seed, 1, l))],
                                   eps, trials=trials,
                                   strict=True)[0].feasible

    with obs.span("tuner.find_min_feasible"), use_backend(backend):
        lo, hi = 1, None
        l = max(2, min(8, limit))
        while l <= limit:
            if feasible(l):
                hi = l
                break
            lo = l
            l *= 2
        if hi is None:
            if feasible(limit):
                hi = limit
            else:
                raise TuningError(
                    f"no dictionary of size <= {limit} meets eps={eps}; "
                    f"the tolerance may be too tight for this data")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return hi


def tune_dictionary_size(a, eps: float, cost_model: CostModel, *,
                         objective: str = "time", candidates=None,
                         subset_fraction: float = 0.25, trials: int = 1,
                         seed=None,
                         workers: int | None = None,
                         backend=None) -> TuningResult:
    """Pick L* minimising the platform cost (Sec. VII protocol).

    Parameters
    ----------
    a:
        Data matrix ``(M, N)``.
    cost_model:
        Platform-bound Eqs. 2–4.
    objective:
        "time" (Eq. 2), "energy" (Eq. 3) or "memory" (Eq. 4).
    candidates:
        Candidate L values; defaults to a geometric grid above L_min.
    subset_fraction:
        Fraction of columns used for α estimation, in (0, 1].
    workers:
        Worker count for the candidate sweep, which encodes the
        candidates in waves of ``workers``, each wave's trials one
        trial-parallel batch, and stops at the first candidate Eq.
        2/3/4 rule out.  The feasibility probes that pick the default
        candidates run in the caller.  The table, ``subset_columns``
        and L* are identical to the serial run.
    backend:
        OMP kernel backend for every α-estimation encode (see
        :mod:`repro.linalg.kernels`).  ``None`` keeps the process
        default.

    Raises
    ------
    TuningError
        When no candidate is feasible at the requested ε.
    """
    from repro.store.column_store import check_matrix_or_store

    a = check_matrix_or_store(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    subset_fraction = check_fraction(subset_fraction, "subset_fraction")
    m, n = a.shape
    rng = as_generator(seed)
    n_sub = max(min(n, int(round(subset_fraction * n))), 2)
    order = rng.permutation(n)

    with obs.span("tuner.tune"), use_backend(backend):
        if candidates is None:
            l_min = find_min_feasible_size(a, eps, seed=derive_seed(seed, 7),
                                           subset_fraction=subset_fraction,
                                           trials=trials)
            candidates = default_candidates(m, n, l_min)
        candidates = sorted({check_positive_int(c, "candidate")
                             for c in candidates})

        plan = _candidate_plan(candidates, n_sub, n, seed)
        table, kept = _candidate_sweep(
            a, [(order[:n_eff], l, cseed) for l, n_eff, cseed in plan], eps,
            cost_model, objective, m, n, trials=trials, workers=workers)
        columns_read = max((n_eff for _, n_eff, _ in plan[:kept]),
                           default=0)
    if not table:
        raise TuningError(
            f"no feasible candidate among {candidates} at eps={eps}")
    best = min(table, key=lambda row: row[3])
    return TuningResult(best_size=best[0], objective=objective,
                        table=table, subset_columns=columns_read)
