"""Conjugate-gradient solver tests."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.solvers import conjugate_gradient


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(91)
    a = rng.standard_normal((80, 50))
    x_true = np.zeros(50)
    x_true[[4, 20, 44]] = [2.0, -1.0, 1.5]
    y = a @ x_true
    return a, y, a.T @ a


class TestConjugateGradient:
    def test_matches_direct_solve(self, problem):
        a, y, gram = problem
        lam = 0.2
        res = conjugate_gradient(lambda v: gram @ v, a.T @ y, 50,
                                 lam=lam, tol=1e-12)
        closed = np.linalg.solve(gram + lam * np.eye(50), a.T @ y)
        assert res.converged
        assert np.allclose(res.x, closed, rtol=1e-6)

    def test_exact_in_n_iterations(self):
        rng = np.random.default_rng(3)
        b_mat = rng.standard_normal((10, 10))
        gram = b_mat @ b_mat.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        res = conjugate_gradient(lambda v: gram @ v, b, 10, tol=1e-10,
                                 max_iter=30)
        assert res.converged
        assert res.iterations <= 12

    def test_warm_start(self, problem):
        a, y, gram = problem
        closed = np.linalg.solve(gram + 0.1 * np.eye(50), a.T @ y)
        res = conjugate_gradient(lambda v: gram @ v, a.T @ y, 50,
                                 lam=0.1, x0=closed, tol=1e-10,
                                 max_iter=5)
        assert res.converged
        assert res.iterations <= 2

    def test_history_decreases(self, problem):
        a, y, gram = problem
        res = conjugate_gradient(lambda v: gram @ v, a.T @ y, 50,
                                 lam=0.5, tol=1e-12, max_iter=100)
        assert res.history[-1] < res.history[0]

    def test_raise_on_fail(self, problem):
        a, y, gram = problem
        with pytest.raises(ConvergenceError):
            conjugate_gradient(lambda v: gram @ v, a.T @ y, 50, lam=0.0,
                               tol=1e-16, max_iter=2, raise_on_fail=True)

    def test_validation(self, problem):
        a, y, gram = problem
        with pytest.raises(ValidationError):
            conjugate_gradient(lambda v: gram @ v, a.T @ y, 50, lam=-1)
        with pytest.raises(ValidationError):
            conjugate_gradient(lambda v: gram @ v, np.ones(3), 50)

    def test_on_transformed_gram(self, union_data):
        """CG through the ExD operator reproduces the ridge solution."""
        from repro.core import TransformedGramOperator, exd_transform
        a, _ = union_data
        t, _ = exd_transform(a, 60, 0.01, seed=0)
        op = TransformedGramOperator(t)
        y = a @ np.eye(a.shape[1])[0]
        res = conjugate_gradient(op, t.project_adjoint(y), a.shape[1],
                                 lam=0.5, tol=1e-10)
        recon = t.reconstruct()
        closed = np.linalg.solve(recon.T @ recon + 0.5 * np.eye(a.shape[1]),
                                 recon.T @ y)
        assert np.allclose(res.x, closed, atol=1e-5)
