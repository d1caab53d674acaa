"""Sketched α(L) tuning via very sparse random projections.

The exact subset estimator (Sec. VII, :mod:`repro.core.tuner`) draws a
*random* column subset per candidate size; on a ``ColumnStore`` those
scattered reads touch nearly every chunk, so one tuning run costs close
to a full pass per candidate — prohibitive at TB scale.  Following
Pourkamali-Anaraki et al. ("Efficient Dictionary Learning via Very
Sparse Random Projections", PAPERS.md), this module instead

1. reads a *small, chunk-aligned* sample of store columns exactly once
   (a handful of whole chunks — sequential I/O the store serves with
   one whole-chunk read each);
2. compresses the rows with a very sparse Achlioptas/Li projection
   ``R ∈ {−√(s/k), 0, +√(s/k)}^{k×M}`` with ``P(±) = 1/(2s)``,
   ``s = √M`` — a JL embedding with ~``M/√M`` non-zeros per row;
3. runs the exact tuner's candidate sweep entirely on the in-memory
   sketch.  Because ExD dictionaries *are* data columns, the
   sketched dictionary is automatically the sketch of the sampled
   columns — no separate dictionary projection step exists.

The JL embedding preserves the inner products and residual norms the
OMP selection loop compares, so the measured sketch density tracks the
raw-data α(L) closely (validated against the exact estimator in
``tests/test_online.py``); Eq. 2/3/4 are then billed with the
*original* ``M`` and ``N``, making the resulting table directly
comparable with :func:`repro.core.tuner.tune_dictionary_size`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.cost_model import CostModel
from repro.core.tuner import (
    TuningResult,
    _candidate_plan,
    _candidate_sweep,
    default_candidates,
    find_min_feasible_size,
)
from repro.errors import TuningError, ValidationError
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_fraction, check_positive_int

__all__ = [
    "SketchConfig",
    "SketchedTuningResult",
    "sketch_store_columns",
    "sparse_projection",
    "tune_dictionary_size_sketched",
]


@dataclass(frozen=True)
class SketchConfig:
    """Sketch geometry knobs.

    Attributes
    ----------
    dim:
        Sketch dimension ``k`` (projected row count).  ``None`` picks
        ``max(16, M//4)`` capped at ``M`` — a 4× row compression that
        keeps the α estimate within a few percent on
        union-of-subspaces data.
    columns:
        Store columns to sample (chunk-aligned, read once).  ``None``
        picks ``max(4·L_max, ⌈0.15·N⌉)`` capped at ``N``.
    sparsity:
        The projection's ``s`` (each entry is ±1-scaled with
        probability ``1/(2s)``).  ``None`` uses ``√M`` (Li et al.'s
        "very sparse" regime).
    """

    dim: int | None = None
    columns: int | None = None
    sparsity: float | None = None

    def resolved_dim(self, m: int) -> int:
        if self.dim is not None:
            return min(check_positive_int(self.dim, "sketch dim"), m)
        return min(m, max(16, m // 4))

    def resolved_sparsity(self, m: int) -> float:
        if self.sparsity is not None:
            s = float(self.sparsity)
            if s < 1.0:
                raise ValidationError(
                    f"sketch sparsity must be >= 1, got {s}")
            return s
        return float(np.sqrt(m))


@dataclass
class SketchedTuningResult(TuningResult):
    """A :class:`~repro.core.tuner.TuningResult` plus sketch accounting.

    ``sketch_columns`` reports the sketched sample size (the store
    columns actually read), and ``subset_columns`` the largest α subset
    of the sketch among the candidates the sweep kept;
    ``bytes_read`` / ``chunks_read`` the store I/O the sketch cost, for
    direct comparison with the exact estimator's.
    """

    sketch_dim: int = 0
    sketch_columns: int = 0
    sketch_sparsity: float = 0.0
    bytes_read: int = 0
    chunks_read: int = 0
    column_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))


def sparse_projection(k: int, m: int, *, seed=None,
                      sparsity: float | None = None) -> np.ndarray:
    """A ``(k, M)`` very sparse ±1 JL projection, deterministic in seed.

    Entries are ``±√(s/k)`` with probability ``1/(2s)`` each and zero
    otherwise (Achlioptas for ``s = 3``; Li/Hastie/Church justify
    ``s = √M``).  ``E[RᵀR] = I``, so sketched inner products are
    unbiased.
    """
    k = check_positive_int(k, "k")
    m = check_positive_int(m, "m")
    s = float(np.sqrt(m)) if sparsity is None else float(sparsity)
    if s < 1.0:
        raise ValidationError(f"sparsity must be >= 1, got {s}")
    rng = as_generator(seed)
    u = rng.random((k, m))
    r = np.zeros((k, m), dtype=np.float64)
    scale = np.sqrt(s / k)
    r[u < 0.5 / s] = scale
    r[u > 1.0 - 0.5 / s] = -scale
    return r


def sketch_store_columns(a, n_cols: int, *, seed=None):
    """Sample ``n_cols`` columns of ``a`` with chunk-aligned reads.

    For a :class:`~repro.store.ColumnStore`, whole chunks are drawn
    (deterministically under the seed) and each is read exactly once
    with one sequential ``read_range`` — this is where the byte savings
    over the exact estimator's scattered per-candidate subsets come
    from.  Dense inputs just sample columns.  Returns
    ``(columns, indices)`` with ``columns`` of shape ``(M, ≤ n_cols)``.
    """
    from repro.store.column_store import is_column_store

    n = a.shape[1]
    n_cols = min(check_positive_int(n_cols, "n_cols"), n)
    rng = as_generator(derive_seed(seed, 29))
    if not is_column_store(a):
        idx = np.sort(rng.choice(n, size=n_cols, replace=False))
        return np.asarray(a, dtype=np.float64)[:, idx], idx
    bounds = a.chunk_bounds()
    order = rng.permutation(len(bounds))
    picked: list[int] = []
    total = 0
    for ci in order:
        picked.append(int(ci))
        total += bounds[ci][1] - bounds[ci][0]
        if total >= n_cols:
            break
    picked.sort()
    parts = [a.read_range(bounds[ci][0], bounds[ci][1]) for ci in picked]
    columns = np.concatenate(parts, axis=1)
    indices = np.concatenate(
        [np.arange(bounds[ci][0], bounds[ci][1]) for ci in picked])
    if columns.shape[1] > n_cols:
        keep = np.sort(rng.choice(columns.shape[1], size=n_cols,
                                  replace=False))
        columns = columns[:, keep]
        indices = indices[keep]
    return np.ascontiguousarray(columns), indices


def tune_dictionary_size_sketched(a, eps: float, cost_model: CostModel, *,
                                  objective: str = "time",
                                  candidates=None,
                                  sketch: SketchConfig | None = None,
                                  subset_fraction: float = 0.25,
                                  trials: int = 1, seed=None,
                                  workers: int | None = None) \
        -> SketchedTuningResult:
    """Pick L* from a sketched sample instead of raw subset columns.

    Runs :func:`repro.core.tuner.tune_dictionary_size`'s candidate
    sweep — the same candidate plan, strict trial-parallel waves of
    ``workers`` candidates that stop at the first one Eq. 2/3/4 rule
    out, the same Eq. 2/3/4 rows — but every encode runs on the
    ``(k, n_sketch)`` sketch, and Eq. 2/3/4 are billed with the
    *original* ``M`` and ``N`` so the returned costs live on the same
    scale as the exact tuner's table.  Each candidate's subset is the
    sorted prefix ``order[:n_eff]`` of one permutation of the sketch's
    columns.

    ``a`` may be a ``ColumnStore`` (the intended use: the sample is a
    few whole chunks, read once) or a dense matrix (validation).  As in
    the exact tuner, an infeasible candidate's trials stop at their
    first failing panel and the candidate is left out of the table.
    """
    from repro.store.column_store import check_matrix_or_store

    a = check_matrix_or_store(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    subset_fraction = check_fraction(subset_fraction, "subset_fraction")
    sketch = sketch or SketchConfig()
    m, n = a.shape
    k = sketch.resolved_dim(m)
    s = sketch.resolved_sparsity(m)

    with obs.span("tuner.tune_sketched"):
        # I/O accounting deltas (meaningful while observability is on —
        # the bench and the maintainer run under obs.observed()).
        bytes_before = obs.REGISTRY.counter("store.bytes_read")
        chunks_before = obs.REGISTRY.counter("store.chunks_read")

        # Upper bound of the candidate grid first: the sample must hold
        # enough columns for the largest candidate's 2·L subset rule.
        if candidates is not None:
            cand_sorted = sorted({check_positive_int(c, "candidate")
                                  for c in candidates})
            l_max = cand_sorted[-1]
        else:
            cand_sorted = None
            l_max = min(4 * m, n)
        n_cols = sketch.columns
        if n_cols is None:
            n_cols = max(4 * l_max, int(np.ceil(0.15 * n)))
        n_cols = min(int(n_cols), n)

        sample, col_indices = sketch_store_columns(
            a, n_cols, seed=derive_seed(seed, 31))
        r = sparse_projection(k, m, seed=derive_seed(seed, 37),
                              sparsity=s)
        sketched = r @ sample          # (k, n_sketch), in memory
        n_sketch = sketched.shape[1]
        obs.inc("online.sketch_columns", n_sketch)
        obs.set_gauge("online.sketch_dim", k)

        if cand_sorted is None:
            l_min = find_min_feasible_size(
                sketched, eps, seed=derive_seed(seed, 7),
                subset_fraction=subset_fraction, trials=trials)
            cand_sorted = default_candidates(m, n, l_min)

        rng = as_generator(derive_seed(seed, 41))
        n_sub = max(min(n_sketch, int(round(subset_fraction * n_sketch))),
                    2)
        order = rng.permutation(n_sketch)
        plan = _candidate_plan(cand_sorted, n_sub, n_sketch, seed)
        table, kept = _candidate_sweep(
            sketched,
            [(np.sort(order[:n_eff]), l, cseed) for l, n_eff, cseed in plan],
            eps, cost_model, objective, m, n, trials=trials, workers=workers)
        columns_read = max((n_eff for _, n_eff, _ in plan[:kept]),
                           default=0)

        bytes_read = obs.REGISTRY.counter("store.bytes_read") - bytes_before
        chunks_read = (obs.REGISTRY.counter("store.chunks_read")
                       - chunks_before)

    if not table:
        raise TuningError(
            f"no feasible candidate among {cand_sorted} at eps={eps} "
            f"on a (k={k}, n={n_sketch}) sketch")
    best = min(table, key=lambda row: row[3])
    return SketchedTuningResult(
        best_size=best[0], objective=objective, table=table,
        subset_columns=columns_read, sketch_dim=k,
        sketch_columns=n_sketch, sketch_sparsity=s,
        bytes_read=int(bytes_read), chunks_read=int(chunks_read),
        column_indices=np.asarray(col_indices, dtype=np.int64))
