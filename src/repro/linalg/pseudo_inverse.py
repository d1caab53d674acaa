"""Dense least-squares coefficients ``C = D⁺A``.

Subspace-sampling baselines (RCSS, oASIS) form their coefficient matrix
as ``C = D⁺ A`` with ``D⁺ = (DᵀD)⁻¹Dᵀ`` (paper Sec. V-C footnote), which
yields *dense* coefficients — the contrast that motivates ExD's sparse
coding.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def least_squares_coefficients(d, a) -> np.ndarray:
    """Dense coefficients ``C = argmin_C ‖A − DC‖_F`` (one lstsq call)."""
    d = np.asarray(d, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if d.ndim != 2 or a.ndim != 2 or d.shape[0] != a.shape[0]:
        raise ValidationError(f"incompatible shapes: D{d.shape}, A{a.shape}")
    coef, *_ = np.linalg.lstsq(d, a, rcond=None)
    return coef
