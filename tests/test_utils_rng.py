"""Unit tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import as_generator, derive_seed


class TestAsGenerator:
    def test_from_int_is_deterministic(self):
        a = as_generator(42).integers(0, 1000, size=5)
        b = as_generator(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)

    def test_key_sensitivity(self):
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)

    def test_seed_sensitivity(self):
        assert derive_seed(5, 1) != derive_seed(6, 1)

    def test_none_seed_works(self):
        assert isinstance(derive_seed(None, 3), int)

    def test_from_generator_consumes_state(self):
        gen = np.random.default_rng(0)
        s1 = derive_seed(gen, 1)
        s2 = derive_seed(gen, 1)
        assert s1 != s2  # generator advanced

