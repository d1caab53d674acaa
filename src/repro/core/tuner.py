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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.alpha import measure_alpha, measure_alpha_batch, trial_seeds
from repro.core.cost_model import CostModel
from repro.errors import TuningError
from repro.linalg.kernels import use_backend
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
        Per-candidate rows ``(L, alpha, predicted_nnz, cost)`` —
        infeasible candidates are excluded.
    subset_columns:
        How many data columns the candidate evaluation actually read:
        the largest α-estimation subset over all *evaluated* candidates
        (feasible or not).  The serial and distributed tuners report the
        identical value for the same inputs.
    """

    best_size: int
    objective: str
    table: list = field(default_factory=list)
    subset_columns: int = 0

    def cost_of(self, size: int) -> float:
        """Predicted cost of a candidate size from the tuning table."""
        for l, _alpha, _nnz, cost in self.table:
            if l == size:
                return cost
        raise KeyError(f"size {size} not in tuning table")


def default_candidates(m: int, n: int, l_min: int) -> list[int]:
    """Geometric candidate grid from L_min up to min(4·M, N)."""
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
    larger than the data are skipped.  The serial and the distributed
    tuner both run this plan, so they draw the same dictionaries.
    """
    plan = []
    for l in candidates:
        n_eff = min(max(n_sub, 2 * l), n)
        if l <= n_eff:
            plan.append((l, n_eff, derive_seed(seed, 2, l)))
    return plan


def find_min_feasible_size(a, eps: float, *, seed=None,
                           subset_fraction: float = 0.25,
                           trials: int = 1,
                           max_size: int | None = None,
                           workers: int | None = None,
                           backend=None) -> int:
    """Smallest L whose random dictionary meets ε on every column.

    Uses doubling + bisection on a random column subset.  Feasibility is
    monotone in L in expectation (more atoms only help), which the
    bisection relies on; ``trials > 1`` guards against unlucky draws.
    The probes are sequential (each feeds the next bracket) but each
    probe's trials/encode parallelise with ``workers``.

    ``a`` may be a :class:`~repro.store.ColumnStore`; the probes then
    read only their subset columns from disk.  ``backend`` selects the
    OMP kernel (see :mod:`repro.linalg.kernels`) for every probe encode.
    """
    from repro.store.column_store import check_matrix_or_store, take_columns

    a = check_matrix_or_store(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    n = a.shape[1]
    limit = min(max_size or n, n)
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
        est = measure_alpha(sub, l, eps, trials=trials,
                            seed=derive_seed(seed, 1, l), workers=workers)
        return est.feasible

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
        Fraction of columns used for α estimation.
    workers:
        Worker count for the α estimations: the feasibility probes are
        column-parallel, and all candidates' trials run as one
        trial-parallel batch; the table and L* are identical to the
        serial run.
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
    m, n = a.shape
    rng = as_generator(seed)
    n_sub = max(min(n, int(round(subset_fraction * n))), 2)
    order = rng.permutation(n)

    with obs.span("tuner.tune"), use_backend(backend):
        if candidates is None:
            l_min = find_min_feasible_size(a, eps, seed=derive_seed(seed, 7),
                                           subset_fraction=subset_fraction,
                                           trials=trials, workers=workers)
            candidates = default_candidates(m, n, l_min)
        candidates = sorted({check_positive_int(c, "candidate")
                             for c in candidates})

        plan = _candidate_plan(candidates, n_sub, n, seed)
        estimates = measure_alpha_batch(
            a, [(order[:n_eff], l, cseed) for l, n_eff, cseed in plan], eps,
            trials=trials, workers=workers)
        columns_read = max((n_eff for _, n_eff, _ in plan), default=0)
        table = []
        for est in estimates:
            if not est.feasible:
                continue
            predicted_nnz = est.mean * n
            cost = cost_model.objective(objective, m, est.size,
                                        predicted_nnz, n)
            table.append((est.size, est.mean, predicted_nnz, cost))
    obs.inc("tuner.candidates_evaluated", len(candidates))
    obs.inc("tuner.candidates_feasible", len(table))
    if not table:
        raise TuningError(
            f"no feasible candidate among {candidates} at eps={eps}")
    best = min(table, key=lambda row: row[3])
    return TuningResult(best_size=best[0], objective=objective,
                        table=table, subset_columns=columns_read)


@dataclass
class FastTuningResult:
    """Outcome of a joint (L, RC) tuner run.

    Attributes
    ----------
    best_size:
        The cost-minimising dictionary size L*.
    best_rc:
        The cost-minimising relative-complexity budget (``1.0`` means a
        dense dictionary wins — e.g. on memory-bound platforms where
        the nnz(C) term dominates, or when the grid has no useful RC).
    objective:
        Which cost was minimised ("time", "energy", "memory").
    table:
        Per-candidate rows ``(L, rc, alpha, predicted_nnz, cost)``.
    subset_columns:
        Data columns actually read (same accounting as
        :class:`TuningResult`).
    """

    best_size: int
    best_rc: float
    objective: str
    table: list = field(default_factory=list)
    subset_columns: int = 0

    def cost_of(self, size: int, rc: float) -> float:
        """Predicted cost of an (L, RC) candidate from the table."""
        for l, r, _alpha, _nnz, cost in self.table:
            if l == size and r == rc:
                return cost
        raise KeyError(f"(size={size}, rc={rc}) not in tuning table")


def predicted_factor_nnz(m: int, l: int, rc: float) -> int:
    """Planned ``Σⱼ nnz(Sⱼ)`` for a fit at budget ``rc``.

    Floored at ``M + L`` — no factorisation of an ``M×L`` operator can
    touch fewer entries and keep every row/column reachable — so the
    tuner never credits an unphysical budget.
    """
    return max(int(round(rc * m * l)), m + l)


def tune_fast_dictionary(a, eps: float, cost_model: CostModel, *,
                         rc_grid=(0.1, 0.25, 0.5, 1.0),
                         objective: str = "time", candidates=None,
                         subset_fraction: float = 0.25, trials: int = 1,
                         seed=None, workers: int | None = None,
                         backend=None) -> FastTuningResult:
    """Jointly pick (L*, RC*) minimising the factored Eq. 2/3/4 cost.

    Extends :func:`tune_dictionary_size` with the fast-transform axis:
    the α(L) estimation (the expensive part — real encodes on a data
    subset) is shared across the RC grid, because the factored
    dictionary encodes against the materialised ``D̂ ≈ D`` and so has
    the same expected per-column density; only the model evaluation
    differs, via the ``transform_nnz`` term of the extended Eqs. 2–4.
    ``rc = 1.0`` rows use the plain dense model (``transform_nnz`` of
    ``M·L``), so the dense optimum is always in the running.

    Returns a :class:`FastTuningResult`; the dense-only table of the
    underlying run is reproducible by filtering ``rc == 1.0`` rows.
    """
    from repro.store.column_store import check_matrix_or_store

    rc_grid = sorted({float(check_fraction(rc, "rc")) for rc in rc_grid})
    a = check_matrix_or_store(a, "A")
    m, n = a.shape
    base = tune_dictionary_size(a, eps, cost_model, objective=objective,
                                candidates=candidates,
                                subset_fraction=subset_fraction,
                                trials=trials, seed=seed, workers=workers,
                                backend=backend)
    table = []
    for l, alpha, predicted_nnz, _dense_cost in base.table:
        for rc in rc_grid:
            tnnz = None if rc >= 1.0 else predicted_factor_nnz(m, l, rc)
            cost = cost_model.objective(objective, m, l, predicted_nnz, n,
                                        transform_nnz=tnnz)
            table.append((l, rc, alpha, predicted_nnz, cost))
    best = min(table, key=lambda row: row[4])
    obs.inc("tuner.fast_candidates_evaluated", len(table))
    return FastTuningResult(best_size=best[0], best_rc=best[1],
                            objective=objective, table=table,
                            subset_columns=base.subset_columns)


def _tuning_program(comm, a, eps, plan, order, trials, cost_kind_args):
    """Rank program: the candidate plan partitioned across ranks (Sec. VII
    on the cluster, embarrassingly parallel), results allgathered."""
    from repro.core.exd import exd_transform
    from repro.store.column_store import take_columns

    rank, p = comm.Get_rank(), comm.Get_size()
    n = a.shape[1]
    local_rows = []
    for l, n_eff, cseed in plan[rank::p]:
        sub = take_columns(a, order[:n_eff])
        alphas = []
        feasible = True
        for tseed in trial_seeds(cseed, l, trials):
            transform, stats = exd_transform(sub, l, eps, seed=tseed)
            comm.charge_flops(stats.flops)
            alphas.append(transform.alpha)
            feasible = feasible and stats.all_converged
        if feasible:
            local_rows.append((l, float(np.mean(alphas))))
    everyone = comm.allgather(local_rows)
    rows = sorted(r for part in everyone for r in part)
    if comm.Get_rank() != 0:
        return None
    m = a.shape[0]
    kind, model = cost_kind_args
    return [(l, alpha, alpha * n, model.objective(kind, m, l, alpha * n, n))
            for l, alpha in rows]


def tune_dictionary_size_distributed(a, eps: float, cost_model: CostModel,
                                     *, objective: str = "time",
                                     candidates=None,
                                     subset_fraction: float = 0.25,
                                     trials: int = 1, seed=None,
                                     backend: str | None = None):
    """Sec. VII tuning executed on the emulated target cluster.

    Candidate dictionary sizes are partitioned across the ranks (the
    α estimations are independent), so Table II's "tuning on 64 cores"
    can be simulated.  Returns ``(TuningResult, SPMDResult)``.

    ``a`` may be a :class:`~repro.store.ColumnStore`; each rank then
    reads only the subset columns its own candidates probe from disk.
    ``backend`` selects the SPMD execution backend (see
    :func:`repro.mpi.run_spmd`); the table is identical either way.
    """
    from repro.mpi.runtime import run_spmd
    from repro.store.column_store import check_matrix_or_store

    a = check_matrix_or_store(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    m, n = a.shape
    rng = as_generator(seed)
    n_sub = max(min(n, int(round(subset_fraction * n))), 2)
    order = rng.permutation(n)
    if candidates is None:
        l_min = find_min_feasible_size(a, eps, seed=derive_seed(seed, 7),
                                       subset_fraction=subset_fraction,
                                       trials=trials)
        candidates = default_candidates(m, n, l_min)
    candidates = sorted({check_positive_int(c, "candidate")
                         for c in candidates})
    plan = _candidate_plan(candidates, n_sub, n, seed)
    with obs.span("tuner.tune_distributed"):
        result = run_spmd(0, _tuning_program, a, eps, plan, order, trials,
                          (objective, cost_model),
                          cluster=cost_model.cluster, backend=backend)
    table = result.returns[0]
    columns_read = max((n_eff for _, n_eff, _ in plan), default=0)
    obs.inc("tuner.candidates_evaluated", len(candidates))
    obs.inc("tuner.candidates_feasible", len(table))
    if not table:
        raise TuningError(
            f"no feasible candidate among {candidates} at eps={eps}")
    best = min(table, key=lambda row: row[3])
    tuning = TuningResult(best_size=best[0], objective=objective,
                          table=table, subset_columns=columns_read)
    return tuning, result
