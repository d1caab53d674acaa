"""K-SVD dictionary learning [Aharon, Elad, Bruckstein 2006].

ExD deliberately does **not** learn its dictionary — Algorithm 1 samples
columns, which is what makes preprocessing linear-time and scalable
(Sec. V).  K-SVD is implemented here as the classical learned-dictionary
comparison point: alternating Batch-OMP sparse coding with per-atom
rank-1 (SVD) updates.  The learned dictionary codes sparser at equal
size, but each training sweep costs a full sparse-coding pass plus L
SVD updates — the scalability trade the paper's design sidesteps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.linalg.omp import batch_omp_matrix
from repro.sparse.csc import CSCMatrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_positive_int


@dataclass
class KSVDResult:
    """Learned dictionary, final codes, and the training trace."""

    dictionary: np.ndarray
    codes: CSCMatrix
    errors: list = field(default_factory=list)   # per-sweep rel. F-error

    @property
    def iterations(self) -> int:
        """Completed training sweeps."""
        return len(self.errors)


def _init_dictionary(a: np.ndarray, n_atoms: int,
                     rng: np.random.Generator) -> np.ndarray:
    idx = rng.choice(a.shape[1], size=n_atoms,
                     replace=n_atoms > a.shape[1])
    d = a[:, idx].astype(np.float64, copy=True)
    norms = np.linalg.norm(d, axis=0)
    bad = norms <= 1e-12
    if np.any(bad):
        d[:, bad] = rng.standard_normal((a.shape[0], int(bad.sum())))
        norms = np.linalg.norm(d, axis=0)
    return d / norms


def ksvd(a, n_atoms: int, *, sparsity: int | None = None,
         eps: float = 0.0, iterations: int = 10,
         seed=None) -> KSVDResult:
    """Learn an ``n_atoms`` dictionary for the columns of ``a``.

    Parameters
    ----------
    sparsity:
        Per-column atom budget for the coding stage (the classical
        K-SVD setting).  When ``None``, coding runs error-constrained
        with tolerance ``eps`` instead.
    iterations:
        Training sweeps (code → update every atom).

    Returns
    -------
    :class:`KSVDResult` with unit-norm atoms.
    """
    a = check_matrix(a, "A")
    n_atoms = check_positive_int(n_atoms, "n_atoms")
    iterations = check_positive_int(iterations, "iterations")
    if sparsity is not None:
        sparsity = check_positive_int(sparsity, "sparsity")
    m, n = a.shape
    rng = as_generator(seed)
    d = _init_dictionary(a, n_atoms, rng)
    a_norm = max(float(np.linalg.norm(a)), 1e-30)

    codes = None
    errors: list[float] = []
    for _ in range(iterations):
        codes, _ = batch_omp_matrix(d, a, eps, max_atoms=sparsity)
        c_dense = codes.to_dense()
        residual = a - d @ c_dense
        errors.append(float(np.linalg.norm(residual)) / a_norm)
        for k in range(n_atoms):
            users = np.nonzero(c_dense[k] != 0)[0]
            if users.size == 0:
                # Dead atom: re-seed with the worst-coded column.
                worst = int(np.argmax(np.linalg.norm(residual, axis=0)))
                atom = a[:, worst] - d @ c_dense[:, worst] \
                    if np.linalg.norm(residual[:, worst]) > 1e-12 \
                    else rng.standard_normal(m)
                norm = np.linalg.norm(atom)
                if norm > 1e-12:
                    d[:, k] = atom / norm
                continue
            # Error matrix restricted to this atom's users, with the
            # atom's own contribution added back.
            e_k = residual[:, users] + np.outer(d[:, k], c_dense[k, users])
            # Rank-1 fit via one SVD of the (m × |users|) block.
            u, s, vt = np.linalg.svd(e_k, full_matrices=False)
            d[:, k] = u[:, 0]
            c_dense[k, users] = s[0] * vt[0]
            residual[:, users] = e_k - np.outer(d[:, k], c_dense[k, users])
        codes = CSCMatrix.from_dense(c_dense, tol=1e-12)
    return KSVDResult(dictionary=d, codes=codes, errors=errors)
