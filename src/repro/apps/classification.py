"""Least-squares SVM classification through the Gram operator.

The paper motivates ExtDict with "interior point methods for solving
Support Vector Machines" among the Gram-iterative algorithms
(Sec. II-A).  The least-squares SVM [Suykens & Vandewalle 1999] is the
member of that family that reduces *exactly* to Gram-operator linear
algebra: with a linear kernel over data columns, training solves

    (AᵀA + I/γ) β = y_labels      (bias handled by feature augmentation)

which conjugate gradients solve using one Gram update per iteration —
i.e. the operator ExtDict accelerates.  Prediction of a new column x is
``sign(βᵀ (Aᵀ x) + b)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.gram import TransformedGramOperator
from repro.errors import ValidationError
from repro.solvers.conjugate_gradient import conjugate_gradient
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_vector


@dataclass
class LSSVMModel:
    """Trained dual coefficients plus the training columns.

    ``decision(x)`` evaluates ``Σ_j β_j ⟨a_j, x⟩ + b``.
    """

    beta: np.ndarray
    bias: float
    training_columns: np.ndarray
    meta: dict = field(default_factory=dict)

    def decision(self, x) -> np.ndarray:
        """Decision values for columns of ``x`` (shape ``(M, n)``)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.shape[0] != self.training_columns.shape[0]:
            raise ValidationError(
                f"feature dimension {x.shape[0]} != training "
                f"{self.training_columns.shape[0]}")
        scores = self.beta @ (self.training_columns.T @ x) + self.bias
        return scores[0] if single else scores

    def predict(self, x) -> np.ndarray:
        """±1 labels for columns of ``x``."""
        return np.sign(self.decision(x))


def train_ls_svm(a, labels, *, gamma: float = 10.0,
                 gram_op=None, tol: float = 1e-8,
                 max_iter: int = 500) -> LSSVMModel:
    """Train a linear LS-SVM on data columns with ±1 labels.

    Parameters
    ----------
    a:
        Data matrix ``(M, N)`` — one training sample per column.
    labels:
        Length-N array of ±1.
    gamma:
        Regularisation (larger = harder margin).
    gram_op:
        Optional operator ``x -> AᵀA x`` replacing the exact Gram —
        pass a :class:`~repro.core.gram.TransformedGramOperator` to
        train through the ExD transform.
    """
    a = check_matrix(a, "A")
    y = check_vector(labels, "labels", size=a.shape[1])
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be +1 / -1")
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    n = a.shape[1]
    op = gram_op if gram_op is not None else (lambda v: a.T @ (a @ v))

    # Centre the labels to absorb the bias (simple intercept handling:
    # b is recovered as the mean residual).
    result = conjugate_gradient(op, y, n, lam=1.0 / gamma, tol=tol,
                                max_iter=max_iter)
    beta = result.x
    scores = a.T @ (a @ beta)
    bias = float(np.mean(y - scores))
    return LSSVMModel(beta=beta, bias=bias, training_columns=a.copy(),
                      meta={"gamma": gamma, "cg_iterations":
                            result.iterations,
                            "cg_converged": result.converged})


def train_ls_svm_transformed(transform, labels, *, gamma: float = 10.0,
                             tol: float = 1e-8,
                             max_iter: int = 500) -> LSSVMModel:
    """LS-SVM trained on ``(DC)ᵀDC`` instead of the exact Gram."""
    op = TransformedGramOperator(transform)
    recon = transform.reconstruct()
    return train_ls_svm(recon, labels, gamma=gamma, gram_op=op, tol=tol,
                        max_iter=max_iter)


def make_classification_problem(m: int = 32, n: int = 200, *,
                                margin: float = 1.0, noise: float = 0.1,
                                seed=None):
    """Two linearly separable clouds as data columns.

    Returns ``(A, labels, (w, b))`` with the generating hyperplane.
    """
    if m < 2 or n < 4:
        raise ValidationError(f"need m >= 2 and n >= 4, got {m}, {n}")
    rng = as_generator(seed)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    base = rng.standard_normal((m, n))
    base -= np.outer(w, w @ base)           # project onto the boundary
    offset = np.outer(w, labels * (margin + rng.gamma(2.0, 0.5, size=n)))
    a = base + offset + noise * rng.standard_normal((m, n))
    return a, labels, (w, 0.0)
