"""Regression tests for the observability-PR correctness sweep.

Each class pins one historical bug:

* ``TestSubsetColumnsConsistency`` — the tuner reported
  ``2·max(feasible candidate)`` columns instead of the columns its
  kept candidates actually read.
* ``TestPowerMethodSpectrumExhaustion`` — asking for more eigenpairs
  than the Gram matrix's rank used to append zero vectors and phantom
  ``0.0`` eigenvalues instead of truncating.
* ``TestTimerGuards`` — ``Timer.__exit__`` guarded misuse with
  ``assert``, which ``python -O`` strips.
* ``TestRelativeStoppingRule`` — the distributed solvers' stopping rule
  divided by ``max(‖x‖, 1.0)``, silently turning the relative test
  absolute whenever ``‖x‖ < 1`` and stopping far too early on
  small-scale solutions.
* ``TestEncodeArgumentValidation`` — the public Batch-OMP entry points
  took any ``eps`` and ``max_atoms``: ``eps=-0.5`` squared into a 0.5
  tolerance and reported every column converged, ``eps=nan`` returned
  an all-zero C, and ``max_atoms=-3`` returned all-zero codes.
"""

import numpy as np
import pytest

from repro.baselines.dense import LocalDenseGramWorker
from repro.core import CostModel, tune_dictionary_size
from repro.platform import platform_by_name
from repro.solvers import distributed_lasso, distributed_power_method
from repro.solvers.lasso import lasso_gd
from repro.utils.timer import Timer


@pytest.fixture(scope="module")
def tuning_data():
    from repro.data.subspaces import union_of_subspaces
    a, _ = union_of_subspaces(40, 400, n_subspaces=4, dim=3, noise=0.01,
                              seed=21)
    return a


class TestSubsetColumnsConsistency:
    CANDIDATES = [40, 60, 90]
    #: 90 is dominated: its Eq. 2 cost at nnz = 0 reaches the best row,
    #: so the sweep never encodes it
    KEPT = [40, 60]

    def test_reports_columns_actually_read(self, tuning_data):
        """subset_columns is max over the candidates the sweep KEPT,
        feasible or not — the columns the run actually touched."""
        n = tuning_data.shape[1]
        n_sub = max(min(n, int(round(0.25 * n))), 2)
        model = CostModel(platform_by_name("1x4"))
        result = tune_dictionary_size(tuning_data, 0.1, model,
                                      candidates=self.CANDIDATES, seed=3)
        assert [row[0] for row in result.table] == self.KEPT
        expected = max(min(max(n_sub, 2 * l), n) for l in self.KEPT)
        assert result.subset_columns == expected == 120


class TestPowerMethodSpectrumExhaustion:
    def test_truncates_at_numerical_rank(self, small_cluster):
        """rank-1 Gram, k=3: exactly one eigenpair, no zero padding."""
        a = np.zeros((1, 3))
        a[0, 0] = 1.0  # Gram = diag(1, 0, 0): rank 1

        def factory(comm):
            return LocalDenseGramWorker(comm, a)

        res = distributed_power_method(small_cluster, factory, 3, seed=5)
        assert len(res.eigenvalues) == 1
        assert res.eigenvalues[0] == pytest.approx(1.0)
        assert res.eigenvectors.shape == (3, 1)
        assert abs(res.eigenvectors[0, 0]) == pytest.approx(1.0)
        assert len(res.iterations) == 1

    def test_zero_gram_yields_empty_spectrum(self, small_cluster):
        a = np.zeros((2, 5))

        def factory(comm):
            return LocalDenseGramWorker(comm, a)

        res = distributed_power_method(small_cluster, factory, 2, seed=0)
        assert len(res.eigenvalues) == 0
        assert res.eigenvectors.shape == (5, 0)

    def test_full_rank_still_returns_k(self, small_cluster):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((8, 6))

        def factory(comm):
            return LocalDenseGramWorker(comm, a)

        res = distributed_power_method(small_cluster, factory, 3, seed=1)
        exact = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1][:3]
        assert len(res.eigenvalues) == 3
        assert np.allclose(res.eigenvalues, exact, rtol=1e-4)


class TestTimerGuards:
    def test_exit_without_enter_raises(self):
        with pytest.raises(RuntimeError, match="without entering"):
            Timer().__exit__(None, None, None)

    def test_nested_entry_raises(self):
        t = Timer()
        with t:
            with pytest.raises(RuntimeError, match="already running"):
                t.__enter__()
        assert not t.running

    def test_sequential_reentry_accumulates(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            pass
        assert t.elapsed >= first
        assert not t.running


class TestRelativeStoppingRule:
    """Small learning rate keeps every iterate norm far below 1, the
    regime where the old ``max(‖x‖, 1.0)`` denominator silently turned
    the documented relative test into an absolute one."""

    @pytest.fixture()
    def small_scale_problem(self):
        from repro.data.subspaces import union_of_subspaces
        a, _ = union_of_subspaces(40, 200, n_subspaces=3, dim=3,
                                  noise=0.01, seed=81)
        x_true = np.zeros(200)
        x_true[[5, 60, 150]] = np.array([2.0, -1.0, 1.5]) * 1e-3
        return a, a @ x_true

    def test_first_change_is_exactly_relative(self, small_scale_problem,
                                              small_cluster):
        """From x₀=0, ‖x₁−x₀‖/‖x₁‖ = 1 whatever the scale.

        The old rule recorded ‖x₁‖/max(‖x₁‖, 1) = ‖x₁‖ ≈ 1e-3 here.
        """
        a, y = small_scale_problem

        def factory(comm):
            return LocalDenseGramWorker(comm, a)

        dist, _ = distributed_lasso(small_cluster, factory, y, 1e-8,
                                    lr=1e-4, max_iter=1, tol=0.0)
        assert dist.history[0] == pytest.approx(1.0)

    def test_does_not_stop_on_absolute_change(self, small_scale_problem,
                                              small_cluster):
        """tol=0.5: relative changes start at 1.0, so the solver must
        run several iterations; the old absolute rule saw
        ‖Δx‖ ≈ 1e-3 ≤ 0.5 and declared convergence after one."""
        a, y = small_scale_problem

        def factory(comm):
            return LocalDenseGramWorker(comm, a)

        dist, _ = distributed_lasso(small_cluster, factory, y, 1e-8,
                                    lr=1e-4, max_iter=50, tol=0.5)
        assert dist.converged
        assert dist.iterations > 2
        assert dist.history[-1] <= 0.5

    def test_matches_serial_at_small_scale(self, small_scale_problem,
                                           small_cluster):
        """Fixed iteration count: distributed == serial bit-for-bit at
        small scale (the rule change alters stopping, not updates)."""
        a, y = small_scale_problem

        def factory(comm):
            return LocalDenseGramWorker(comm, a)

        dist, _ = distributed_lasso(small_cluster, factory, y, 1e-8,
                                    lr=1e-4, max_iter=30, tol=0.0)
        serial = lasso_gd(lambda v: a.T @ (a @ v), a.T @ y, a.shape[1],
                          1e-8, lr=1e-4, max_iter=30, tol=0.0)
        assert np.allclose(dist.x, serial.x, atol=1e-12)


class TestDictionaryGramCached:
    """``Dictionary.gram()`` used to recompute ``DᵀD`` on every call.

    The method did a bare ``self.atoms.T @ self.atoms`` while every hot
    path (encode, serve, streaming) already kept the same product in the
    process-wide Gram LRU — so callers that innocently used the public
    accessor paid an O(M·L²) product per call.  It now routes through
    :func:`repro.linalg.parallel_omp.cached_gram`.
    """

    def test_gram_computed_once(self):
        from repro.core.dictionary import Dictionary
        from repro.linalg.parallel_omp import GRAM_CACHE

        rng = np.random.default_rng(0)
        d = Dictionary(rng.standard_normal((30, 12)),
                       np.arange(12, dtype=np.int64))
        GRAM_CACHE.clear()
        g1 = d.gram()
        g2 = d.gram()
        assert g1 is g2, "second call must return the cached array"
        assert GRAM_CACHE.misses == 1
        assert GRAM_CACHE.hits == 1
        np.testing.assert_allclose(g1, d.atoms.T @ d.atoms,
                                   rtol=1e-12, atol=1e-12)

    def test_encode_reuses_public_gram(self):
        """The encode path and the public accessor share one entry."""
        from repro.core.dictionary import Dictionary
        from repro.linalg.omp import batch_omp_matrix
        from repro.linalg.parallel_omp import GRAM_CACHE

        rng = np.random.default_rng(1)
        d = Dictionary(rng.standard_normal((30, 12)),
                       np.arange(12, dtype=np.int64))
        a = rng.standard_normal((30, 40))
        GRAM_CACHE.clear()
        d.gram()
        batch_omp_matrix(d, a, 0.5)
        assert GRAM_CACHE.misses == 1, \
            "encode recomputed a Gram the accessor already cached"


class TestEncodeArgumentValidation:
    @pytest.fixture()
    def problem(self):
        rng = np.random.default_rng(4)
        d = rng.standard_normal((12, 20))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        return d, rng.standard_normal((12, 7))

    @pytest.mark.parametrize("eps", [-0.5, float("nan"), float("inf"), 1.5])
    def test_batch_omp_matrix_rejects_bad_eps(self, problem, eps):
        from repro.errors import ValidationError
        from repro.linalg import batch_omp_matrix

        d, a = problem
        with pytest.raises(ValidationError, match="eps"):
            batch_omp_matrix(d, a, eps)

    @pytest.mark.parametrize("eps", [-0.5, float("nan")])
    def test_parallel_path_rejects_bad_eps(self, problem, eps):
        from repro.errors import ValidationError
        from repro.linalg import batch_omp_matrix

        d, a = problem
        with pytest.raises(ValidationError, match="eps"):
            batch_omp_matrix(d, a, eps, workers=2)

    @pytest.mark.parametrize("eps", [-0.5, float("nan")])
    def test_batch_omp_solve_rejects_bad_eps(self, problem, eps):
        from repro.errors import ValidationError
        from repro.linalg import batch_omp_solve

        d, a = problem
        with pytest.raises(ValidationError, match="eps"):
            batch_omp_solve(d, a[:, 0], eps)

    @pytest.mark.parametrize("cap", [-3, 0, 2.5, "two"])
    def test_rejects_bad_max_atoms(self, problem, cap):
        from repro.errors import ValidationError
        from repro.linalg import batch_omp_matrix, batch_omp_solve

        d, a = problem
        with pytest.raises(ValidationError, match="max_atoms"):
            batch_omp_matrix(d, a, 0.1, max_atoms=cap)
        with pytest.raises(ValidationError, match="max_atoms"):
            batch_omp_solve(d, a[:, 0], 0.1, max_atoms=cap)

    def test_valid_bounds_still_encode(self, problem):
        from repro.linalg import batch_omp_matrix

        d, a = problem
        c0, s0 = batch_omp_matrix(d, a, 0.0, max_atoms=3)
        assert s0.converged_columns < s0.columns      # eps=0 with a cap
        assert np.all(np.diff(c0.indptr) == 3)
        c1, s1 = batch_omp_matrix(d, a, 1.0)     # the zero code meets it
        assert s1.converged_columns == s1.columns
        assert np.all(np.diff(c1.indptr) <= 1)
