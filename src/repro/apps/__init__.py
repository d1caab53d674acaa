"""End-to-end applications from the paper's evaluation (Sec. VIII):
image denoising and image super-resolution (LASSO by gradient descent)
and PCA (Power method), each runnable with the ExtDict transform, the
dense baseline, or — for the regressions — the SGD baseline.
"""

from repro.apps.denoising import (
    DenoisingSetup,
    AppRunResult,
    make_denoising_setup,
    run_denoising,
)
from repro.apps.super_resolution import (
    SuperResolutionSetup,
    make_super_resolution_setup,
    run_super_resolution,
)
from repro.apps.pca import PCARunResult, run_pca, exact_gram_eigenvalues, eigenvalue_error
from repro.apps.convergence import TimeToTarget, regression_time_to_target
from repro.apps.clustering import (
    ClusteringResult,
    clustering_accuracy,
    code_affinity,
    kmeans,
    spectral_embedding,
    subspace_cluster,
)
from repro.apps.classification import (
    LSSVMModel,
    make_classification_problem,
    train_ls_svm,
    train_ls_svm_transformed,
)

__all__ = [
    "DenoisingSetup",
    "AppRunResult",
    "make_denoising_setup",
    "run_denoising",
    "SuperResolutionSetup",
    "make_super_resolution_setup",
    "run_super_resolution",
    "PCARunResult",
    "run_pca",
    "exact_gram_eigenvalues",
    "eigenvalue_error",
    "TimeToTarget",
    "regression_time_to_target",
    "ClusteringResult",
    "clustering_accuracy",
    "code_affinity",
    "kmeans",
    "spectral_embedding",
    "subspace_cluster",
    "LSSVMModel",
    "make_classification_problem",
    "train_ls_svm",
    "train_ls_svm_transformed",
]
