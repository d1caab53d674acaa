"""Dictionary construction by uniform random column subsampling.

Algorithm 1 step 0: processor 0 draws a random size-L index subset of
``{0..N-1}`` and broadcasts it; every processor then loads
``D = A[:, I]``.  The theoretical backing (Sec. V-C) is subspace
sampling: with ``L = Ω(k log k / (1−δ)²)`` random columns the sampled
span captures the best rank-k approximation up to ``1/δ``.

This module also defines the ``DictOperator`` protocol — the linear-
operator contract every encode path (serial, parallel, streaming,
serving) programs against, so a factored
:class:`~repro.core.fastdict.FastDict` can replace the dense GEMM
without the callers knowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_positive_int


@runtime_checkable
class DictOperator(Protocol):
    """Linear-operator view of a dictionary ``D`` (M × L).

    Implemented by the dense :class:`Dictionary`, the factored
    :class:`~repro.core.fastdict.FastDict` and the evolve-path
    :class:`~repro.core.fastdict.BlockDictOperator`.  Consumers
    (``batch_omp_matrix`` and its forked workers, ``StreamingEncoder``,
    the serve registry/batcher) only touch these members, so the cost
    of applying ``D`` is whatever the operator's structure allows —
    ``O(M·L)`` dense, ``O(Σⱼ nnz(Sⱼ))`` factored.

    ``atoms`` must still materialise a dense ``(M, L)`` array (used for
    Gram precompute, reconstruction and serialisation); it must never
    be needed in a per-panel hot loop.
    """

    @property
    def m(self) -> int:
        """Signal dimension (rows of D)."""
        ...

    @property
    def size(self) -> int:
        """Number of atoms (columns of D)."""
        ...

    @property
    def atoms(self) -> np.ndarray:
        """Dense ``(M, L)`` materialisation."""
        ...

    @property
    def indices(self) -> np.ndarray:
        """Source-column provenance of each atom."""
        ...

    @property
    def transform_nnz(self) -> int:
        """Multiplies needed for one ``Dᵀx`` apply (Eq. 2 term)."""
        ...

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``D @ x`` for ``x`` of shape ``(L,)`` or ``(L, k)``."""
        ...

    def apply_t(self, a: np.ndarray) -> np.ndarray:
        """``Dᵀ @ a`` for ``a`` of shape ``(M,)`` or ``(M, k)``."""
        ...

    def gram(self) -> np.ndarray:
        """``G = DᵀD``, cached across calls."""
        ...


@dataclass(frozen=True)
class Dictionary:
    """A sampled dictionary ``D`` and the provenance of its atoms.

    Attributes
    ----------
    atoms:
        Dense ``(M, L)`` array of dictionary columns.
    indices:
        Source-column index in ``A`` of each atom (``-1`` for atoms that
        did not come from the dataset, e.g. after an evolving-data
        extension merged two dictionaries).
    """

    atoms: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=np.float64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if atoms.ndim != 2:
            raise ValidationError(f"atoms must be 2-D, got {atoms.ndim}-D")
        if indices.shape != (atoms.shape[1],):
            raise ValidationError(
                f"indices must have length L={atoms.shape[1]}, "
                f"got {indices.shape}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "indices", indices)

    @property
    def m(self) -> int:
        """Signal dimension (rows)."""
        return self.atoms.shape[0]

    @property
    def size(self) -> int:
        """Number of atoms L."""
        return self.atoms.shape[1]

    @property
    def memory_words(self) -> int:
        """Dense storage in words: M·L."""
        return self.m * self.size

    @property
    def transform_nnz(self) -> int:
        """Dense apply cost: every ``Dᵀx`` touches all M·L entries."""
        return self.m * self.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``D @ x`` (dense GEMM)."""
        return self.atoms @ x

    def apply_t(self, a: np.ndarray) -> np.ndarray:
        """``Dᵀ @ a`` (dense GEMM) — bit-identical to ``atoms.T @ a``."""
        return self.atoms.T @ a

    def gram(self) -> np.ndarray:
        """``DᵀD`` — computed once and served from the process-wide
        Gram LRU on every later call (keyed on this exact atoms
        array, so repeated calls return the same cached object)."""
        from repro.linalg.parallel_omp import cached_gram
        return cached_gram(self.atoms)

    def concat(self, other: "Dictionary") -> "Dictionary":
        """Concatenate atom sets (evolving-data dictionary extension)."""
        if other.m != self.m:
            raise ValidationError(
                f"row mismatch: {self.m} vs {other.m}")
        return Dictionary(np.concatenate([self.atoms, other.atoms], axis=1),
                          np.concatenate([self.indices, other.indices]))


def sample_dictionary(a, size: int, *, seed=None,
                      replace: bool = False) -> Dictionary:
    """Draw ``size`` columns of ``a`` uniformly at random as atoms.

    ``replace=False`` (default) matches Algorithm 1; sampling with
    replacement is allowed only when ``size > N`` would otherwise be
    infeasible (and is rejected unless explicitly requested).
    """
    a = check_matrix(a, "A")
    size = check_positive_int(size, "size")
    n = a.shape[1]
    if size > n and not replace:
        raise ValidationError(
            f"cannot sample {size} distinct columns from N={n}; "
            f"pass replace=True to allow repetition")
    rng = as_generator(seed)
    idx = np.sort(rng.choice(n, size=size, replace=replace))
    return Dictionary(a[:, idx].copy(), idx)
