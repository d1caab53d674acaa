"""The end-to-end maintenance loop: :class:`OnlineMaintainer`.

One maintainer binds a fitted transform to the ``ColumnStore`` (or
dense matrix) its traffic comes from and, per :meth:`step`,

1. polls ``store.describe()`` — the append ``generation`` counter says
   whether new data arrived since the last step, without touching a
   chunk;
2. draws a deterministic minibatch (``derive_seed`` on the step
   ordinal) biased to the newest columns when fresh data arrived;
3. encodes it against the *working copy* of the atoms, records the
   codes in the maintainer's :class:`~repro.online.stats.AtomStats`
   and feeds the measured (α, error) to the
   :class:`~repro.online.drift.DriftMonitor`;
4. folds the minibatch into the Mensch/Mairal surrogate and runs a
   block-coordinate atom refresh (every ``refresh_every`` steps, and
   always when drift fired);
5. evicts dead atoms (never selected since the warmup threshold) and
   re-seeds them from the worst-reconstructed minibatch columns.

Every atom mutation invalidates the Gram LRU entry for the working
array.  :meth:`build_generation` snapshots the working atoms into a
fresh :class:`~repro.core.dictionary.Dictionary` (new identity — its
own Gram) wrapped in a ``TransformedData`` the serve registry can warm
and hot-swap; :meth:`retune` re-picks L with the sketched tuner when
drift keeps firing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.errors import ValidationError
from repro.linalg.omp import batch_omp_matrix
from repro.online.drift import AlphaCurve, DriftConfig, DriftMonitor
from repro.online.stats import AtomStats
from repro.online.update import OnlineUpdateConfig, OnlineUpdater
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_positive_int

__all__ = ["MaintenanceConfig", "OnlineMaintainer"]


@dataclass(frozen=True)
class MaintenanceConfig:
    """Knobs of the maintenance loop (see docs/online.md)."""

    batch: int = 256          #: minibatch columns per step
    refresh_every: int = 1    #: block-coordinate sweep cadence (steps)
    warmup_columns: int = 512   #: no eviction before this many encoded
    dead_min_count: int = 1   #: atom is dead below this selection count
    max_reseed: int = 8       #: re-seeded atoms per step, at most
    fresh_bias: float = 0.5   #: minibatch fraction drawn from new data
    retune_after: int = 3     #: consecutive fired steps → recommend
    drift: DriftConfig = field(default_factory=DriftConfig)
    update: OnlineUpdateConfig = field(
        default_factory=OnlineUpdateConfig)

    def __post_init__(self) -> None:
        for name, low in (("batch", 1), ("refresh_every", 1),
                          ("retune_after", 1), ("warmup_columns", 0),
                          ("dead_min_count", 0), ("max_reseed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValidationError(
                    f"{name} must be >= {low}, got {value}")
        if not (0.0 <= self.fresh_bias <= 1.0):
            raise ValidationError(
                f"fresh_bias must be in [0, 1], got {self.fresh_bias}")


class OnlineMaintainer:
    """Keeps one fitted dictionary healthy against one data source.

    Parameters
    ----------
    a:
        The data the traffic comes from — a ``ColumnStore`` (the
        intended deployment) or a dense matrix (tests/benchmarks).
    transform:
        The fitted ``TransformedData`` whose dictionary to maintain.
        The maintainer copies its atoms into a private working array;
        the transform object is never mutated.
    curve:
        The tuner's fitted α(L) model — an
        :class:`~repro.online.drift.AlphaCurve`, a ``TuningResult``
        (its table is fitted), or ``None`` to self-calibrate on the
        first minibatch (expected α := first measured α).
    """

    def __init__(self, a, transform, *, curve=None,
                 config: MaintenanceConfig | None = None,
                 seed: int | None = None,
                 workers: int | None = None) -> None:
        from repro.store.column_store import check_matrix_or_store

        self.a = check_matrix_or_store(a, "A")
        self.transform = transform
        self.config = config or MaintenanceConfig()
        self.seed = seed
        self.workers = workers
        self.eps = float(transform.eps)
        dictionary = transform.dictionary
        self.updater = OnlineUpdater(
            atoms=dictionary.atoms, indices=dictionary.indices,
            config=self.config.update)
        self.stats = AtomStats(self.updater.size)
        self.monitor: DriftMonitor | None = None
        if curve is not None:
            self.monitor = DriftMonitor(
                self._as_curve(curve), dictionary.size, self.eps,
                config=self.config.drift)
        self.steps = 0
        self.consecutive_fired = 0
        self.built_generations = 0
        self.last_seen_store_generation = self._store_generation()
        self.last_store_columns = self.a.shape[1]

    @staticmethod
    def _as_curve(curve) -> AlphaCurve:
        from repro.online.drift import fit_alpha_curve

        if isinstance(curve, AlphaCurve):
            return curve
        table = getattr(curve, "table", curve)
        return fit_alpha_curve(table)

    def _store_generation(self) -> int:
        from repro.store.column_store import is_column_store

        if is_column_store(self.a):
            return self.a.generation
        return 0

    # ------------------------------------------------------------------
    # the loop body
    # ------------------------------------------------------------------
    def _draw_columns(self, fresh_lo: int) -> np.ndarray:
        """Deterministic minibatch, biased to columns >= ``fresh_lo``."""
        n = self.a.shape[1]
        batch = min(self.config.batch, n)
        rng = as_generator(derive_seed(self.seed, 23, self.steps))
        n_fresh = n - fresh_lo
        want_fresh = int(round(self.config.fresh_bias * batch)) \
            if n_fresh > 0 else 0
        want_fresh = min(want_fresh, n_fresh)
        fresh = rng.choice(n_fresh, size=want_fresh,
                           replace=False) + fresh_lo \
            if want_fresh else np.empty(0, dtype=np.int64)
        rest = rng.choice(fresh_lo, size=min(batch - want_fresh, fresh_lo),
                          replace=False) \
            if fresh_lo > 0 else np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate([rest, fresh]).astype(np.int64))

    def step(self) -> dict:
        """Run one maintenance step; returns a JSON-ready step report."""
        from repro.store.column_store import take_columns

        with obs.span("online.step"):
            store_gen = self._store_generation()
            n = self.a.shape[1]
            new_data = (store_gen != self.last_seen_store_generation
                        or n != self.last_store_columns)
            fresh_lo = self.last_store_columns if new_data else n
            fresh_lo = min(fresh_lo, n)
            cols = self._draw_columns(fresh_lo)
            x = take_columns(self.a, cols)

            c, enc_stats = batch_omp_matrix(
                self.updater.atoms, x, self.eps, workers=self.workers)
            self.stats.record(c)
            dense_c = c.to_dense()
            resid = x - self.updater.atoms @ dense_c
            x_norm = float(np.linalg.norm(x))
            error = float(np.linalg.norm(resid)) / max(x_norm, 1e-300)
            alpha = c.nnz / x.shape[1]

            fired = False
            if self.monitor is None:
                # Self-calibration (no tuner table): the expected α is
                # anchored on the *second* minibatch — the first one
                # measures the pre-refresh dictionary, whose α is
                # systematically off the post-refresh steady state the
                # monitor will watch.
                if self.steps >= 1:
                    self.monitor = DriftMonitor(
                        AlphaCurve(
                            slope=0.0,
                            intercept=float(np.log(max(alpha, 1e-12))),
                            sizes=(self.updater.size,),
                            alphas=(alpha,)),
                        self.updater.size, self.eps,
                        config=self.config.drift)
            if self.monitor is not None:
                fired = self.monitor.observe(alpha, error)

            self.updater.observe(x, c)
            refreshed = 0
            if fired or (self.steps % self.config.refresh_every == 0):
                refreshed = self.updater.refresh_atoms()

            reseeded: list[int] = []
            if self.stats.columns >= self.config.warmup_columns:
                dead = self.stats.dead_atoms(self.config.dead_min_count)
                if dead.size:
                    k = min(int(dead.size), self.config.max_reseed,
                            x.shape[1])
                    order = self.updater.rank_reseed_candidates(x, c, k)
                    reseeded = self.updater.evict_dead(
                        dead[:k], x[:, order],
                        source_indices=cols[order])
                    for j in reseeded:
                        self.stats.reset_atom(j)

            self.consecutive_fired = self.consecutive_fired + 1 \
                if fired else 0
            self.steps += 1
            self.last_seen_store_generation = store_gen
            self.last_store_columns = n
            obs.inc("online.steps")
            return {
                "step": self.steps,
                "columns": int(x.shape[1]),
                "new_data": bool(new_data),
                "alpha": float(alpha),
                "error": float(error),
                "converged": bool(enc_stats.all_converged)
                if hasattr(enc_stats, "all_converged")
                else bool(enc_stats.converged_mask.all()),
                "drift_fired": bool(fired),
                "atoms_refreshed": int(refreshed),
                "atoms_reseeded": [int(j) for j in reseeded],
                "retune_recommended": self.retune_recommended,
            }

    def run(self, steps: int) -> list[dict]:
        """Run ``steps`` maintenance steps; returns their reports."""
        steps = check_positive_int(steps, "steps", minimum=0)
        return [self.step() for _ in range(steps)]

    @property
    def retune_recommended(self) -> bool:
        """Drift fired ``retune_after`` consecutive steps."""
        return self.consecutive_fired >= self.config.retune_after

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    def build_generation(self):
        """Snapshot the working atoms as a hot-swappable transform.

        Returns a ``TransformedData`` around a *fresh*
        :class:`~repro.core.dictionary.Dictionary` (new array identity
        — the registry warms its own Gram before visibility).  The
        coefficients are carried over from the source transform and
        refer to the *pre-maintenance* atoms; the meta records this
        (``coefficients_stale``) — serving only needs ``D`` and ε, and
        re-encoding the archive is exactly what the streaming encoder
        is for.
        """
        from repro.core.transform import TransformedData

        snapshot = self.updater.snapshot_dictionary()
        self.built_generations += 1
        meta = dict(self.transform.meta)
        meta.update({
            "maintained": True,
            "maintenance_steps": int(self.steps),
            "maintained_generation": int(self.built_generations),
            "atoms_refreshed": int(self.updater.refreshed_atoms),
            "atoms_reseeded": int(self.updater.reseeded_atoms),
            "coefficients_stale": True,
        })
        obs.inc("online.generations_built")
        return TransformedData(dictionary=snapshot,
                               coefficients=self.transform.coefficients,
                               eps=self.transform.eps,
                               method=self.transform.method,
                               meta=meta)

    def retune(self, cost_model, *, objective: str = "time",
               candidates=None, sketch=None) -> "object":
        """Re-pick L with the sketched tuner and rebase the monitor.

        Returns the :class:`~repro.online.sketch.SketchedTuningResult`.
        The maintainer itself keeps its L (changing L means refitting
        the dictionary — the caller decides); the drift monitor adopts
        the re-fitted α(L) curve so it stops firing on the new normal.
        """
        from repro.online.drift import fit_alpha_curve
        from repro.online.sketch import tune_dictionary_size_sketched

        result = tune_dictionary_size_sketched(
            self.a, self.eps, cost_model, objective=objective,
            candidates=candidates, sketch=sketch,
            seed=derive_seed(self.seed, 43, self.steps),
            workers=self.workers)
        if self.monitor is not None and len(result.table) >= 2:
            self.monitor.rebase(fit_alpha_curve(result.table))
        self.consecutive_fired = 0
        obs.inc("online.retunes")
        return result

    def status(self) -> dict:
        """JSON-ready digest (``repro maintain --status-json`` writes it)."""
        return {
            "steps": int(self.steps),
            "store": {
                "generation": self._store_generation(),
                "columns": int(self.a.shape[1]),
            },
            "drift": (self.monitor.status()
                      if self.monitor is not None else None),
            "updater": self.updater.status(),
            "atom_usage": self.stats.summary(),
            "generations_built": int(self.built_generations),
            "retune_recommended": self.retune_recommended,
        }

    def close(self) -> None:
        """Nothing to release: the maintainer holds no outside resource.

        A no-op, kept for callers that close what they open.
        """
