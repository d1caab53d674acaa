"""Tests for image utilities."""

import numpy as np
import pytest

from repro.data import (
    add_noise_snr,
    image_to_patches,
    psnr,
    synthetic_image,
)
from repro.errors import ValidationError


class TestSyntheticImage:
    def test_range_and_determinism(self):
        img = synthetic_image(32, seed=2)
        assert img.shape == (32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.array_equal(img, synthetic_image(32, seed=2))

    def test_size_validation(self):
        with pytest.raises(ValidationError):
            synthetic_image(4)


class TestPatching:
    def test_non_overlapping_tiles(self):
        img = synthetic_image(16, seed=0)
        patches = image_to_patches(img, 4)
        assert patches.shape == (16, 16)
        # Columns follow the row-major scan: 4 tiles per row.
        assert np.array_equal(patches[:, 0], img[0:4, 0:4].ravel())
        assert np.array_equal(patches[:, 5], img[4:8, 4:8].ravel())

    def test_overlapping_tiles(self):
        img = synthetic_image(16, seed=0)
        patches = image_to_patches(img, 4, stride=2)
        assert patches.shape == (16, 49)
        # 7 tiles per row at stride 2.
        assert np.array_equal(patches[:, 0], img[0:4, 0:4].ravel())
        assert np.array_equal(patches[:, 8], img[2:6, 2:6].ravel())

    def test_patch_count_with_stride(self):
        img = np.zeros((10, 10))
        patches = image_to_patches(img, 4, stride=3)
        assert patches.shape[1] == 9  # 3 positions per axis

    def test_validation(self):
        img = np.zeros((8, 8))
        with pytest.raises(ValidationError):
            image_to_patches(img, 9)
        with pytest.raises(ValidationError):
            image_to_patches(np.zeros(8), 2)


class TestNoiseAndPsnr:
    def test_snr_level(self):
        rng_signal = synthetic_image(64, seed=1)
        noisy = add_noise_snr(rng_signal, 20.0, seed=3)
        noise = noisy - rng_signal
        measured = 10 * np.log10(np.mean(rng_signal ** 2) /
                                 np.mean(noise ** 2))
        assert measured == pytest.approx(20.0, abs=1.0)

    def test_zero_signal(self):
        z = np.zeros((4, 4))
        assert np.array_equal(add_noise_snr(z, 10.0, seed=0), z)

    def test_psnr_identical_is_inf(self):
        img = synthetic_image(16, seed=0)
        assert psnr(img, img) == np.inf

    def test_psnr_decreases_with_noise(self):
        img = synthetic_image(32, seed=0)
        lightly = add_noise_snr(img, 30.0, seed=1)
        heavily = add_noise_snr(img, 5.0, seed=1)
        assert psnr(img, lightly) > psnr(img, heavily)

    def test_psnr_shape_mismatch(self):
        with pytest.raises(ValidationError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_psnr_known_value(self):
        ref = np.ones((10, 10))
        test = ref + 0.1
        assert psnr(ref, test) == pytest.approx(20.0, abs=1e-9)
