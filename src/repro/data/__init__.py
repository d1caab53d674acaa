"""Synthetic dataset surrogates.

The paper evaluates on Salinas hyperspectral, MD-Anderson Cancer Cell
morphology and Stanford Light Field data — none redistributable here.
Each generator below synthesises data with the one property ExtDict
exploits: columns living on a *union of low-dimensional subspaces*
(Sec. II-B), with per-dataset geometry chosen to match the paper's
observed behaviour (Light Field highly redundant, Cancer Cells dense).
"""

from repro.data.subspaces import SubspaceModel, union_of_subspaces
from repro.data.hyperspectral import salina_like
from repro.data.cancer import cancer_cells_like
from repro.data.lightfield import (
    lightfield_like,
    lightfield_patches,
    camera_subset_rows,
)
from repro.data.images import (
    psnr,
    add_noise_snr,
    image_to_patches,
    synthetic_image,
)
from repro.data.registry import (
    DATASETS,
    DatasetBundle,
    load_dataset,
    synthesize_to_store,
)

__all__ = [
    "SubspaceModel",
    "union_of_subspaces",
    "salina_like",
    "cancer_cells_like",
    "lightfield_like",
    "lightfield_patches",
    "camera_subset_rows",
    "psnr",
    "add_noise_snr",
    "image_to_patches",
    "synthetic_image",
    "DATASETS",
    "DatasetBundle",
    "load_dataset",
    "synthesize_to_store",
]
