"""The end-to-end ExtDict API (paper Fig. 1).

Usage mirrors the paper's API: the user supplies the dataset ``A``, the
transformation error ε and the learning algorithm as an iterative update
on the Gram matrix; the framework measures the platform's ``R_bf``,
tunes the ExD parameters, transforms the data, and executes the
algorithm distributed.

>>> from repro.core import ExtDict
>>> from repro.platform import platform_by_name
>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> basis = rng.standard_normal((32, 3))
>>> a = basis @ rng.standard_normal((3, 200))
>>> ext = ExtDict(eps=0.05, cluster=platform_by_name("1x4"), seed=1)
>>> ext = ext.fit(a)
>>> ext.transform_.transformation_error(a) <= 0.05 + 1e-9
True
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.cost_model import CostModel
from repro.core.evolve import extend_transform
from repro.core.exd import exd_transform, exd_transform_distributed
from repro.core.gram import TransformedGramOperator, run_distributed_gram
from repro.core.tuner import tune_dictionary_size
from repro.errors import ReproError, ValidationError
from repro.utils.timer import Timer
from repro.utils.validation import check_fraction, check_in


@dataclass
class PreprocessingReport:
    """Wall-clock and simulated overheads of fit() (Table II)."""

    tuning_seconds: float = 0.0
    transform_seconds: float = 0.0
    simulated_transform_seconds: float = 0.0
    tuned_size: int = 0
    tuning_table: list = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Tuning + transformation wall-clock."""
        return self.tuning_seconds + self.transform_seconds


class ExtDict:
    """Data- and platform-aware transform + execution framework.

    Parameters
    ----------
    eps:
        Transformation error tolerance (Eq. 1).
    cluster:
        Target :class:`~repro.platform.cluster.ClusterConfig`.  ``None``
        runs everything serially (still platform-aware through an
        explicit ``cost_model`` if given).
    objective:
        Tuning objective: "time", "energy" or "memory".
    size:
        Fix the dictionary size L instead of tuning it.
    subset_fraction:
        Fraction of columns the tuner's α estimation may touch, in
        (0, 1].
    distributed_preprocess:
        Run Algorithm 1 itself through the MPI emulator so its simulated
        cost is recorded (slower on the host; default off).
    workers:
        Host-side worker count for the preprocessing hot path (the
        tuner's candidate sweep and the Batch-OMP encode, and the
        encodes of :meth:`update` and :meth:`maintain`); ``None`` =
        serial, ``-1`` = all cores.  Results are identical for every
        value.  The tuner's feasibility probes always run in the
        caller.  With ``distributed_preprocess`` only the candidate
        sweep uses it: the SPMD ranks encode serially, since they
        cannot fork.
    memory_budget_bytes, block_width, checkpoint_dir:
        Out-of-core knobs used when ``fit`` receives a
        :class:`~repro.store.ColumnStore` (see
        :class:`~repro.store.StreamingEncoder`); ignored for in-memory
        input.
    fast_dict:
        Learn a sparse-factor fast transform of the sampled dictionary
        (:mod:`repro.core.fastdict`): a float is the relative-complexity
        budget ``RC``, or pass a
        :class:`~repro.core.fastdict.FastDictConfig`.  Applies to both
        in-memory and store-backed fits; incompatible with
        ``distributed_preprocess`` (the SPMD encode shares the dense
        sample across ranks).
    """

    def __init__(self, eps: float = 0.1, *, cluster=None,
                 objective: str = "time", size: int | None = None,
                 candidates=None, subset_fraction: float = 0.25,
                 seed=None, distributed_preprocess: bool = False,
                 workers: int | None = None,
                 memory_budget_bytes: int | None = None,
                 block_width: int | None = None,
                 checkpoint_dir=None,
                 fast_dict=None) -> None:
        self.eps = check_fraction(eps, "eps", inclusive_low=True)
        self.cluster = cluster
        self.objective = check_in(objective, "objective",
                                  ("time", "energy", "memory"))
        self.size = size
        self.candidates = candidates
        self.subset_fraction = check_fraction(subset_fraction,
                                              "subset_fraction")
        self.seed = seed
        self.distributed_preprocess = distributed_preprocess
        self.workers = workers
        self.memory_budget_bytes = memory_budget_bytes
        self.block_width = block_width
        self.checkpoint_dir = checkpoint_dir
        if fast_dict is not None:
            from repro.core.fastdict import as_fast_dict_config

            if distributed_preprocess:
                raise ValidationError(
                    "fast_dict cannot be combined with "
                    "distributed_preprocess: the SPMD encode shares the "
                    "dense sampled dictionary across ranks")
            fast_dict = as_fast_dict_config(fast_dict)
        self.fast_dict = fast_dict
        self.cost_model = CostModel(cluster) if cluster is not None else None
        self.transform_ = None
        self.stats_ = None
        self.report_ = None

    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, path, **kwargs) -> "ExtDict":
        """Open a :class:`~repro.store.ColumnStore` and fit on it.

        The whole pipeline — tuning (subset reads), the streamed encode,
        and later :meth:`evolve` calls — runs without ever materialising
        the full matrix; ``kwargs`` are the constructor's.
        """
        from repro.store import ColumnStore

        return cls(**kwargs).fit(ColumnStore.open(path))

    def fit(self, a, *, resume: bool = False) -> "ExtDict":
        """Tune L (unless fixed), then transform ``A`` into ``(D, C)``.

        ``a`` may be a :class:`~repro.store.ColumnStore`; the transform
        is then streamed from disk (bit-identical to the dense path) and
        ``resume=True`` continues a checkpointed encode.
        """
        from repro.store.column_store import check_matrix_or_store, is_column_store

        a = check_matrix_or_store(a, "A")
        streamed = is_column_store(a)
        if streamed and self.distributed_preprocess:
            raise ValidationError(
                "distributed_preprocess needs an in-memory matrix; "
                "store-backed fits stream the encode on the host")
        stream_kwargs = {}
        if streamed:
            stream_kwargs = {
                "memory_budget_bytes": self.memory_budget_bytes,
                "block_width": self.block_width,
                "checkpoint_dir": self.checkpoint_dir,
                "resume": resume,
            }
        report = PreprocessingReport()
        size = self.size
        with obs.span("extdict.fit"):
            if size is None:
                if self.cost_model is None:
                    raise ValidationError(
                        "automatic tuning needs a cluster (or pass size=...)")
                t = Timer()
                with t, obs.span("extdict.tune"):
                    tuning = tune_dictionary_size(
                        a, self.eps, self.cost_model,
                        objective=self.objective,
                        candidates=self.candidates,
                        subset_fraction=self.subset_fraction,
                        seed=self.seed, workers=self.workers)
                size = tuning.best_size
                report.tuning_seconds = t.elapsed
                report.tuning_table = tuning.table
            report.tuned_size = size

            t = Timer()
            with t, obs.span("extdict.transform"):
                if self.distributed_preprocess and self.cluster is not None:
                    transform, stats, spmd = exd_transform_distributed(
                        a, size, self.eps, self.cluster, seed=self.seed)
                    report.simulated_transform_seconds = spmd.simulated_time
                else:
                    transform, stats = exd_transform(
                        a, size, self.eps, seed=self.seed,
                        workers=self.workers, fast_dict=self.fast_dict,
                        **stream_kwargs)
            report.transform_seconds = t.elapsed
        self.transform_ = transform
        self.stats_ = stats
        self.report_ = report
        return self

    def _require_fit(self):
        if self.transform_ is None:
            raise ReproError("call fit(A) before using the framework")
        return self.transform_

    # ------------------------------------------------------------------
    # Gram access
    # ------------------------------------------------------------------
    def gram_operator(self) -> TransformedGramOperator:
        """Serial ``x -> (DC)ᵀDC x`` operator on the fitted transform."""
        return TransformedGramOperator(self._require_fit())

    def gram_apply_distributed(self, x, *, iterations: int = 1,
                               normalize: bool = False):
        """Algorithm 2 on the configured cluster; returns (y, SPMDResult)."""
        if self.cluster is None:
            raise ValidationError("no cluster configured")
        return run_distributed_gram(self._require_fit(), x, self.cluster,
                                    iterations=iterations,
                                    normalize=normalize)

    # ------------------------------------------------------------------
    # learning algorithms on the transformed data
    # ------------------------------------------------------------------
    def lasso(self, y, lam: float, **kwargs):
        """Solve ``min_x ‖Ax − y‖² + λ‖x‖₁`` on the transformed Gram."""
        from repro.solvers.lasso import lasso_gd
        transform = self._require_fit()
        op = TransformedGramOperator(transform)
        aty = transform.project_adjoint(np.asarray(y, dtype=np.float64))
        return lasso_gd(op, aty, transform.n, lam, **kwargs)

    def ridge(self, y, lam: float, **kwargs):
        """Solve ``min_x ‖Ax − y‖² + λ‖x‖₂²`` on the transformed Gram."""
        from repro.solvers.ridge import ridge_gd
        transform = self._require_fit()
        op = TransformedGramOperator(transform)
        aty = transform.project_adjoint(np.asarray(y, dtype=np.float64))
        return ridge_gd(op, aty, transform.n, lam, **kwargs)

    def elastic_net(self, y, lam1: float, lam2: float, **kwargs):
        """Solve the elastic net on the transformed Gram."""
        from repro.solvers.elastic_net import elastic_net_gd
        transform = self._require_fit()
        op = TransformedGramOperator(transform)
        aty = transform.project_adjoint(np.asarray(y, dtype=np.float64))
        return elastic_net_gd(op, aty, transform.n, lam1, lam2, **kwargs)

    def power_method(self, k: int = 10, **kwargs):
        """Top-k eigenvalues of ``AᵀA`` via the transformed Gram."""
        from repro.linalg.power_iteration import top_eigenpairs
        transform = self._require_fit()
        op = TransformedGramOperator(transform)
        return top_eigenpairs(op, transform.n, k, **kwargs)

    def sparse_pca(self, n_components: int, sparsity: int, **kwargs):
        """k-sparse principal components via the truncated Power method."""
        from repro.solvers.sparse_pca import sparse_principal_components
        transform = self._require_fit()
        op = TransformedGramOperator(transform)
        return sparse_principal_components(op, transform.n, n_components,
                                           sparsity, **kwargs)

    # ------------------------------------------------------------------
    def update(self, a_new) -> "ExtDict":
        """Evolving-data update: fold new columns into the transform.

        ``a_new`` may be a dense block or a
        :class:`~repro.store.ColumnStore` of the new columns (streamed
        from disk, bit-identical to the dense path).
        """
        result = extend_transform(self._require_fit(), a_new,
                                  seed=self.seed, workers=self.workers)
        self.transform_ = result.transform
        return self

    def evolve(self, a_new) -> "ExtDict":
        """Alias of :meth:`update` matching the paper's evolving-data
        terminology (Sec. V-E)."""
        return self.update(a_new)

    def maintain(self, a=None, *, config=None, curve=None):
        """Build an :class:`~repro.online.OnlineMaintainer` on the fit.

        Where :meth:`evolve` only *grows* the transform, the maintainer
        keeps the fitted atoms healthy under drifting data: per-atom
        usage statistics, Mensch/Mairal minibatch atom refresh,
        dead-atom eviction/re-seeding, and a drift trigger against the
        tuner's fitted α(L) curve (the last fit's tuning table is used
        automatically when available; pass ``curve`` to override).

        ``a`` is the data source to maintain against — a
        :class:`~repro.store.ColumnStore` or dense matrix; it defaults
        to nothing and is required (the fit may have consumed a
        temporary subset).  Returns the maintainer; drive it with
        ``step()``/``run()`` and publish snapshots with
        ``build_generation()``.
        """
        from repro.online.maintainer import OnlineMaintainer

        transform = self._require_fit()
        if a is None:
            raise ValidationError(
                "maintain(a) needs the data source (ColumnStore or "
                "matrix) the traffic comes from")
        if curve is None and self.report_ is not None \
                and len(self.report_.tuning_table) >= 2:
            from repro.online.drift import fit_alpha_curve

            curve = fit_alpha_curve(self.report_.tuning_table)
        return OnlineMaintainer(a, transform, curve=curve, config=config,
                                seed=self.seed, workers=self.workers)

    def preprocessing_report(self) -> PreprocessingReport:
        """Tuning/transformation overheads of the last fit (Table II)."""
        self._require_fit()
        return self.report_
