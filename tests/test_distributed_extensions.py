"""Tests for the distributed extensions: ridge/elastic-net solvers,
distributed tuning, distributed evolving-data updates."""

import numpy as np
import pytest

from repro.baselines.dense import LocalDenseGramWorker
from repro.core import (
    CostModel,
    exd_transform,
    extend_transform,
    extend_transform_distributed,
    tune_dictionary_size,
    tune_dictionary_size_distributed,
)
from repro.data.subspaces import union_of_subspaces
from repro.solvers import distributed_elastic_net, distributed_ridge
from repro.solvers.elastic_net import elastic_net_gd
from repro.solvers.ridge import ridge_gd


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(101)
    a = rng.standard_normal((50, 40))
    x_true = np.zeros(40)
    x_true[[3, 17]] = [2.0, -1.0]
    y = a @ x_true
    return a, y


class TestDistributedRidgeElasticNet:
    def test_ridge_matches_serial(self, problem, small_cluster):
        a, y = problem

        def factory(comm):
            return LocalDenseGramWorker(comm, a)
        dist, spmd = distributed_ridge(small_cluster, factory, y, 0.5,
                                       lr=0.3, max_iter=120, tol=0.0)
        serial = ridge_gd(lambda v: a.T @ (a @ v), a.T @ y, 40, 0.5,
                          lr=0.3, max_iter=120, tol=0.0)
        assert np.allclose(dist.x, serial.x, atol=1e-8)
        assert spmd.simulated_time > 0

    def test_elastic_net_matches_serial(self, problem, small_cluster):
        a, y = problem

        def factory(comm):
            return LocalDenseGramWorker(comm, a)
        dist, _ = distributed_elastic_net(small_cluster, factory, y,
                                          1e-3, 0.1, lr=0.3,
                                          max_iter=120, tol=0.0)
        serial = elastic_net_gd(lambda v: a.T @ (a @ v), a.T @ y, 40,
                                1e-3, 0.1, lr=0.3, max_iter=120, tol=0.0)
        assert np.allclose(dist.x, serial.x, atol=1e-8)

    def test_negative_penalties_rejected(self, problem, small_cluster):
        a, y = problem

        def factory(comm):
            return LocalDenseGramWorker(comm, a)
        from repro.errors import ValidationError
        with pytest.raises(ValidationError):
            distributed_elastic_net(small_cluster, factory, y, -1.0, 0.1)


class TestDistributedTuning:
    @pytest.fixture(scope="class")
    def data(self):
        a, _ = union_of_subspaces(40, 400, n_subspaces=4, dim=3,
                                  noise=0.01, seed=21)
        return a

    def test_matches_serial_tuner(self, data, small_cluster):
        model = CostModel(small_cluster)
        serial = tune_dictionary_size(data, 0.1, model, seed=0,
                                      candidates=[40, 80, 160])
        dist, spmd = tune_dictionary_size_distributed(
            data, 0.1, model, seed=0, candidates=[40, 80, 160])
        assert dist.best_size == serial.best_size
        assert [r[0] for r in dist.table] == [r[0] for r in serial.table]
        # Same dictionaries drawn per candidate and trial, so the same
        # α, predicted nnz and cost on every row.
        assert dist.table == serial.table
        assert dist.subset_columns == serial.subset_columns
        assert spmd.simulated_time > 0

    def test_infeasible_raises(self, rng, small_cluster):
        a = rng.standard_normal((30, 60))
        model = CostModel(small_cluster)
        from repro.errors import TuningError
        with pytest.raises(TuningError):
            tune_dictionary_size_distributed(a, 0.001, model,
                                             candidates=[2, 3], seed=0)

    def test_default_candidates(self, data, small_cluster):
        model = CostModel(small_cluster)
        dist, _ = tune_dictionary_size_distributed(
            data, 0.15, model, seed=0, subset_fraction=0.4)
        assert len(dist.table) >= 2


class TestDistributedEvolve:
    @pytest.fixture(scope="class")
    def base(self):
        a, model = union_of_subspaces(24, 120, n_subspaces=2, dim=2,
                                      noise=0.0, seed=31)
        t, _ = exd_transform(a, 40, 0.05, seed=0)
        return a, model, t

    def test_matches_serial_update(self, base, small_cluster, rng):
        a, model, t = base
        new_cols = np.stack(
            [model.bases[i % 2] @ rng.standard_normal(2)
             for i in range(12)], axis=1)
        serial = extend_transform(t, new_cols, seed=1)
        dist, spmd = extend_transform_distributed(t, new_cols,
                                                  small_cluster, seed=1)
        assert dist.appended_columns == serial.appended_columns
        assert dist.transform.coefficients.allclose(
            serial.transform.coefficients)
        assert spmd.simulated_time > 0
        assert spmd.total_flops > 0

    def test_growth_path(self, base, small_cluster):
        a, _, t = base
        novel, _ = union_of_subspaces(24, 10, n_subspaces=1, dim=3,
                                      noise=0.0, seed=77)
        dist, _ = extend_transform_distributed(t, novel, small_cluster,
                                               seed=2)
        assert dist.dictionary_grew
        combined = np.concatenate([a, novel], axis=1)
        assert dist.transform.transformation_error(combined) <= 0.05 + 1e-6
