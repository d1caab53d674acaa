"""Image utilities: synthesis, patching, noise, PSNR.

Supports the denoising and super-resolution applications (Sec. VIII):
images are processed as stacks of vectorised square patches, and quality
is reported as PSNR = ``10·log10(MAX² / MSE)`` dB.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import as_generator


def synthetic_image(size: int = 64, *, seed=None,
                    n_blobs: int = 6) -> np.ndarray:
    """Piecewise-smooth test image in [0, 1]: gradients + soft blobs.

    Natural-image-like enough for patch dictionaries to be useful:
    smooth regions, localised structures, repeated texture.
    """
    if size < 8:
        raise ValidationError(f"size must be >= 8, got {size}")
    rng = as_generator(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    img = 0.3 + 0.3 * xx + 0.2 * yy
    img += 0.08 * np.sin(2 * np.pi * 3 * xx) * np.sin(2 * np.pi * 2 * yy)
    for _ in range(n_blobs):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        r = rng.uniform(0.05, 0.25)
        amp = rng.uniform(-0.35, 0.35)
        img += amp * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / r ** 2))
    lo, hi = img.min(), img.max()
    return (img - lo) / max(hi - lo, 1e-12)


def image_to_patches(image: np.ndarray, patch: int,
                     stride: int | None = None) -> np.ndarray:
    """Vectorise overlapping ``patch×patch`` tiles into columns.

    Returns an array of shape ``(patch², n_patches)`` with patches in
    row-major scan order.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValidationError(f"image must be 2-D, got {image.ndim}-D")
    h, w = image.shape
    if patch < 1 or patch > min(h, w):
        raise ValidationError(
            f"patch must be in [1, {min(h, w)}], got {patch}")
    stride = stride or patch
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    ys = range(0, h - patch + 1, stride)
    xs = range(0, w - patch + 1, stride)
    cols = [image[y:y + patch, x:x + patch].reshape(-1)
            for y in ys for x in xs]
    return np.stack(cols, axis=1)


def add_noise_snr(signal: np.ndarray, snr_db: float,
                  *, seed=None) -> np.ndarray:
    """Add white Gaussian noise at the given signal-to-noise ratio (dB)."""
    signal = np.asarray(signal, dtype=np.float64)
    rng = as_generator(seed)
    power = float(np.mean(signal ** 2))
    if power == 0.0:
        return signal.copy()
    noise_power = power / (10.0 ** (snr_db / 10.0))
    return signal + np.sqrt(noise_power) * rng.standard_normal(signal.shape)


def psnr(reference: np.ndarray, test: np.ndarray,
         *, max_value: float | None = None) -> float:
    """Peak signal-to-noise ratio in dB (Sec. VIII-D definition)."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValidationError(
            f"shape mismatch: {reference.shape} vs {test.shape}")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return float("inf")
    peak = float(np.max(np.abs(reference))) if max_value is None \
        else float(max_value)
    if peak <= 0:
        raise ValidationError("reference image has no signal")
    return 10.0 * np.log10(peak * peak / mse)
