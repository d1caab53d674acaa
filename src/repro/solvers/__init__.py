"""Iterative learning algorithms on Gram operators.

Every solver takes the Gram matrix as an abstract ``x -> Gx`` operation,
so the same code runs on the raw data (``AᵀA``), the ExD transform
(``(DC)ᵀDC``), serially or on the emulated cluster — exactly the
"learning algorithm as an iterative update function on the Gram matrix"
interface of the paper's API (Sec. VIII).
"""

from repro.solvers.adagrad import AdagradState
from repro.solvers.lasso import LassoResult, lasso_gd, soft_threshold
from repro.solvers.ridge import ridge_gd
from repro.solvers.elastic_net import elastic_net_gd
from repro.solvers.power_method import (
    DistributedEigenResult,
    distributed_power_method,
    power_method_transformed,
)
from repro.solvers.distributed import distributed_lasso
from repro.solvers.conjugate_gradient import conjugate_gradient
from repro.solvers.sparse_pca import (
    hard_truncate,
    sparse_principal_components,
    truncated_power_method,
)

__all__ = [
    "conjugate_gradient",
    "hard_truncate",
    "sparse_principal_components",
    "truncated_power_method",
    "AdagradState",
    "LassoResult",
    "lasso_gd",
    "soft_threshold",
    "ridge_gd",
    "elastic_net_gd",
    "DistributedEigenResult",
    "distributed_power_method",
    "power_method_transformed",
    "distributed_lasso",
]
