"""Mensch & Mairal-style minibatch surrogate dictionary updates.

Online dictionary learning ("Dictionary Learning for Massive Matrix
Factorization", PAPERS.md) keeps two surrogate statistics across
minibatches of columns ``X`` with sparse codes ``C``::

    A_t ← β·A_t + C Cᵀ        (L × L)
    B_t ← β·B_t + X Cᵀ        (M × L)

and refreshes each atom by block-coordinate descent on the surrogate
objective::

    d_j ← (b_j − D a_j + A_jj d_j) / A_jj,   then ‖d_j‖ ≤ 1 projection

which is the exact minimiser of the quadratic surrogate in ``d_j`` with
the other atoms fixed.  Atoms with no mass in the surrogate
(``A_jj ≈ 0`` — never selected) are skipped by the refresh and instead
handled by :meth:`OnlineUpdater.evict_dead`, which re-seeds them from
the worst-reconstructed recent columns (deterministically: ties break
by column index).

The updater owns a private *working copy* of the atoms and mutates it
in place; every mutation explicitly invalidates the process-wide Gram
LRU for that array (satellite of this subsystem — the fingerprint check
would catch staleness on the next hit, but maintenance makes the
eviction deterministic at mutation time).  Serving never sees the
working copy: :meth:`OnlineUpdater.snapshot_dictionary` materialises a
fresh ``Dictionary`` (new array identity ⇒ its own fresh Gram) for the
registry's warm-before-visible hot-swap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.dictionary import Dictionary
from repro.core.exd import normalize_columns
from repro.errors import ValidationError
from repro.linalg.parallel_omp import GRAM_CACHE

__all__ = ["OnlineUpdateConfig", "OnlineUpdater"]

#: Surrogate columns with less accumulated energy than this are treated
#: as "never selected" and skipped by the block-coordinate refresh.
A_DIAG_FLOOR = 1e-12


@dataclass(frozen=True)
class OnlineUpdateConfig:
    """Knobs of the surrogate update.

    Attributes
    ----------
    forgetting:
        Exponential down-weighting ``β ∈ (0, 1]`` applied to ``A_t`` /
        ``B_t`` before each new minibatch.  1.0 keeps the full history
        (the convex regime of Mensch & Mairal); smaller values track
        drift faster at the price of noisier atoms.
    norm_floor:
        Atoms whose refreshed norm falls below this are renormalised
        from the floor instead of dividing by ~0.
    """

    forgetting: float = 1.0
    norm_floor: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.forgetting <= 1.0):
            raise ValidationError(
                f"forgetting must be in (0, 1], got {self.forgetting}")


@dataclass
class OnlineUpdater:
    """Accumulates surrogate statistics and refreshes atoms in place."""

    atoms: np.ndarray
    indices: np.ndarray
    config: OnlineUpdateConfig = field(default_factory=OnlineUpdateConfig)

    def __post_init__(self) -> None:
        self.atoms = np.array(self.atoms, dtype=np.float64, copy=True)
        self.indices = np.array(self.indices, dtype=np.int64, copy=True)
        if self.atoms.ndim != 2:
            raise ValidationError(
                f"atoms must be 2-D, got {self.atoms.ndim}-D")
        m, l = self.atoms.shape
        self.a_t = np.zeros((l, l), dtype=np.float64)
        self.b_t = np.zeros((m, l), dtype=np.float64)
        self.minibatches = 0
        self.columns_seen = 0
        self.refreshed_atoms = 0
        self.reseeded_atoms = 0

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def size(self) -> int:
        return self.atoms.shape[1]

    # ------------------------------------------------------------------
    # surrogate accumulation
    # ------------------------------------------------------------------
    def observe(self, x: np.ndarray, c) -> None:
        """Fold one encoded minibatch ``(X, C)`` into ``A_t``/``B_t``.

        ``x`` is the ``(M, n)`` minibatch; ``c`` its codes — a
        ``CSCMatrix`` (or any object with ``to_dense``) of shape
        ``(L, n)``, exactly what ``batch_omp_matrix`` returned.
        """
        x = np.asarray(x, dtype=np.float64)
        dense_c = c.to_dense() if hasattr(c, "to_dense") else \
            np.asarray(c, dtype=np.float64)
        if x.shape != (self.m, dense_c.shape[1]) or \
                dense_c.shape[0] != self.size:
            raise ValidationError(
                f"minibatch shapes X{x.shape}, C{dense_c.shape} do not "
                f"match D({self.m}, {self.size})")
        beta = self.config.forgetting
        if beta < 1.0:
            self.a_t *= beta
            self.b_t *= beta
        self.a_t += dense_c @ dense_c.T
        self.b_t += x @ dense_c.T
        self.minibatches += 1
        self.columns_seen += x.shape[1]
        obs.inc("online.minibatches")
        obs.inc("online.columns_observed", x.shape[1])

    # ------------------------------------------------------------------
    # atom refresh / eviction
    # ------------------------------------------------------------------
    def refresh_atoms(self) -> int:
        """One block-coordinate sweep over the atoms; returns #updated.

        Every atom with surrogate mass is rewritten in place and the
        Gram LRU entry for this atom array is invalidated (once, after
        the sweep — one array, one cache key).
        """
        diag = np.diag(self.a_t)
        active = np.flatnonzero(diag > A_DIAG_FLOOR)
        if active.size == 0:
            return 0
        d = self.atoms
        for j in active:
            a_j = self.a_t[:, j]
            u = d[:, j] + (self.b_t[:, j] - d @ a_j) / diag[j]
            norm = float(np.linalg.norm(u))
            # Mairal's projection onto the unit ball keeps the
            # surrogate's majorisation valid; project onto the atom's
            # current norm instead, which is 1 for a fitted atom and for
            # one evict_dead re-seeded (it normalises the replacements).
            target = max(float(np.linalg.norm(d[:, j])),
                         self.config.norm_floor)
            if norm > self.config.norm_floor:
                u *= target / norm
            d[:, j] = u
        self.refreshed_atoms += int(active.size)
        GRAM_CACHE.invalidate(self.atoms)
        obs.inc("online.atoms_refreshed", int(active.size))
        return int(active.size)

    def evict_dead(self, dead: np.ndarray, replacements: np.ndarray,
                   source_indices=None) -> list[int]:
        """Replace dead atoms with re-seed columns, worst-error first.

        ``dead`` — atom indices to retire (e.g. from
        ``AtomStats.dead_atoms``); ``replacements`` — an ``(M, k)``
        stack of candidate columns *already ordered* worst-reconstructed
        first (the maintainer ranks them); surplus dead atoms beyond
        ``k`` keep their current value.  The replacements are scaled to
        unit norm by :func:`~repro.core.exd.normalize_columns`, so a
        re-seeded atom has the bits a fit sampling that column would
        give it.  Surrogate rows/columns of a re-seeded atom are zeroed
        — its statistics restart.  Returns the atom indices actually
        replaced.
        """
        dead = np.asarray(dead, dtype=np.int64)
        replacements = np.asarray(replacements, dtype=np.float64)
        if replacements.ndim != 2 or replacements.shape[0] != self.m:
            raise ValidationError(
                f"replacements must be (M, k), got {replacements.shape}")
        take = min(int(dead.size), replacements.shape[1])
        replacements = normalize_columns(replacements[:, :take])[0]
        replaced: list[int] = []
        for slot in range(take):
            j = int(dead[slot])
            self.atoms[:, j] = replacements[:, slot]
            self.indices[j] = (-1 if source_indices is None
                               else int(source_indices[slot]))
            self.a_t[j, :] = 0.0
            self.a_t[:, j] = 0.0
            self.b_t[:, j] = 0.0
            replaced.append(j)
        if replaced:
            self.reseeded_atoms += len(replaced)
            GRAM_CACHE.invalidate(self.atoms)
            obs.inc("online.atoms_reseeded", len(replaced))
        return replaced

    def rank_reseed_candidates(self, x: np.ndarray, c,
                               k: int) -> np.ndarray:
        """Column order of ``x`` by reconstruction error, worst first.

        Deterministic tie-break by column index (stable sort on the
        negated errors), so re-seeding is reproducible bit-for-bit.
        """
        x = np.asarray(x, dtype=np.float64)
        dense_c = c.to_dense() if hasattr(c, "to_dense") else \
            np.asarray(c, dtype=np.float64)
        err = np.linalg.norm(x - self.atoms @ dense_c, axis=0)
        order = np.argsort(-err, kind="stable")
        return order[:int(k)]

    def snapshot_dictionary(self) -> Dictionary:
        """A fresh :class:`Dictionary` copy of the current atoms.

        New array identity: its Gram is computed (and cached) from
        scratch, so a served generation can never alias the working
        copy this updater keeps mutating.
        """
        return Dictionary(self.atoms.copy(), self.indices.copy())

    def status(self) -> dict:
        return {
            "minibatches": int(self.minibatches),
            "columns_seen": int(self.columns_seen),
            "atoms_refreshed": int(self.refreshed_atoms),
            "atoms_reseeded": int(self.reseeded_atoms),
            "forgetting": float(self.config.forgetting),
            "surrogate_mass": float(np.trace(self.a_t)),
        }
