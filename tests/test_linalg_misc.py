"""Unit tests for dense least squares, power iteration and norms."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.linalg import (
    frobenius_norm,
    least_squares_coefficients,
    power_iteration,
    relative_frobenius_error,
    top_eigenpairs,
)


class TestPseudoInverse:
    def test_least_squares_coefficients(self, rng):
        d = rng.standard_normal((12, 5))
        a = rng.standard_normal((12, 7))
        c = least_squares_coefficients(d, a)
        # Residual must be orthogonal to the dictionary span.
        assert np.allclose(d.T @ (a - d @ c), 0.0, atol=1e-8)

    def test_lstsq_shape_mismatch(self, rng):
        with pytest.raises(ValidationError):
            least_squares_coefficients(np.ones((3, 2)), np.ones((4, 2)))


class TestPowerIteration:
    @pytest.fixture()
    def gram(self, rng):
        a = rng.standard_normal((15, 10))
        return a.T @ a

    def test_leading_eigenvalue(self, gram):
        lam, vec, _ = power_iteration(lambda x: gram @ x, 10, seed=0)
        exact = np.linalg.eigvalsh(gram)[-1]
        assert lam == pytest.approx(exact, rel=1e-6)
        assert np.linalg.norm(gram @ vec - lam * vec) < 1e-4 * lam

    def test_top_k_spectrum(self, gram):
        values, vectors, _ = top_eigenpairs(lambda x: gram @ x, 10, 4,
                                            seed=0)
        exact = np.linalg.eigvalsh(gram)[::-1][:4]
        assert np.allclose(values, exact, rtol=1e-4)
        # Orthonormality of recovered vectors.
        assert np.allclose(vectors.T @ vectors, np.eye(4), atol=1e-5)

    def test_zero_operator(self):
        lam, _, _ = power_iteration(lambda x: np.zeros_like(x), 5, seed=0)
        assert lam == 0.0

    def test_raise_on_fail(self, gram):
        # Two equal dominant eigenvalues prevent eigenvalue convergence
        # only in adversarial cases; emulate by alternating operator.
        flip = {"s": 1.0}

        def op(x):
            flip["s"] *= 2.0
            return flip["s"] * x
        with pytest.raises(ConvergenceError):
            power_iteration(op, 4, max_iter=5, tol=0.0, seed=0,
                            raise_on_fail=True)

    def test_k_bounds(self, gram):
        with pytest.raises(ValidationError):
            top_eigenpairs(lambda x: gram @ x, 10, 11)
        with pytest.raises(ValidationError):
            top_eigenpairs(lambda x: gram @ x, 10, 0)

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            power_iteration(lambda x: x, 0)


class TestNorms:
    def test_frobenius(self, rng):
        a = rng.standard_normal((4, 5))
        assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a))

    def test_relative_error_zero_for_equal(self, rng):
        a = rng.standard_normal((4, 5))
        assert relative_frobenius_error(a, a) == 0.0

    def test_relative_error_value(self):
        a = np.eye(3)
        approx = np.zeros((3, 3))
        assert relative_frobenius_error(a, approx) == pytest.approx(1.0)

    def test_relative_error_accepts_to_dense(self, rng):
        from repro.sparse import CSCMatrix
        a = rng.standard_normal((3, 4))
        assert relative_frobenius_error(a, CSCMatrix.from_dense(a)) == 0.0

    def test_zero_reference(self):
        z = np.zeros((2, 2))
        assert relative_frobenius_error(z, z) == 0.0
        assert relative_frobenius_error(z, np.ones((2, 2))) == np.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            relative_frobenius_error(np.ones((2, 2)), np.ones((3, 3)))
