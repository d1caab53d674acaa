"""Subspace clustering tests."""

import numpy as np
import pytest

from repro.apps import (
    clustering_accuracy,
    code_affinity,
    kmeans,
    spectral_embedding,
    subspace_cluster,
)
from repro.core import exd_transform
from repro.data import union_of_subspaces
from repro.errors import ValidationError


@pytest.fixture(scope="module")
def clustered_data():
    a, model = union_of_subspaces(40, 240, n_subspaces=3, dim=3,
                                  noise=0.01, seed=11)
    return a, model


class TestCodeAffinity:
    def test_within_subspace_affinity_dominates(self, clustered_data):
        """Sec. V-B: codes select same-subspace atoms, so within-cluster
        affinity must exceed cross-cluster affinity on average."""
        a, model = clustered_data
        t, _ = exd_transform(a, 60, 0.05, seed=0)
        w = code_affinity(t)
        same = model.labels[:, None] == model.labels[None, :]
        np.fill_diagonal(same, False)
        within = w[same].mean()
        across = w[~same & ~np.eye(len(model.labels), dtype=bool)].mean()
        assert within > 5 * across

    def test_symmetric_nonnegative_zero_diag(self, clustered_data):
        a, _ = clustered_data
        t, _ = exd_transform(a, 60, 0.05, seed=0)
        w = code_affinity(t)
        assert np.allclose(w, w.T)
        assert np.all(w >= 0)
        assert np.all(np.diag(w) == 0)


class TestSpectralEmbedding:
    def test_rows_unit_or_zero_norm(self, clustered_data):
        a, _ = clustered_data
        t, _ = exd_transform(a, 60, 0.05, seed=0)
        emb = spectral_embedding(code_affinity(t), 3, seed=0)
        assert emb.shape == (a.shape[1], 3)
        norms = np.linalg.norm(emb, axis=1)
        # Isolated columns (zero affinity degree) stay at the origin;
        # every connected column is projected onto the unit sphere.
        connected = norms > 1e-8
        assert np.allclose(norms[connected], 1.0, atol=1e-6)
        assert connected.mean() > 0.9

    def test_validation(self):
        with pytest.raises(ValidationError):
            spectral_embedding(np.ones((3, 4)), 2)
        with pytest.raises(ValidationError):
            spectral_embedding(-np.ones((3, 3)), 2)
        with pytest.raises(ValidationError):
            spectral_embedding(np.ones((3, 3)), 5)


class TestKMeans:
    def test_separated_blobs(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(0, 0.1, (30, 2)),
                              rng.normal(5, 0.1, (30, 2))])
        labels = kmeans(pts, 2, seed=0)
        assert clustering_accuracy(labels,
                                   np.array([0] * 30 + [1] * 30)) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((40, 3))
        l1 = kmeans(pts, 3, seed=7)
        l2 = kmeans(pts, 3, seed=7)
        assert np.array_equal(l1, l2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            kmeans(np.ones(5), 2)
        with pytest.raises(ValidationError):
            kmeans(np.ones((3, 2)), 5)


class TestSubspaceCluster:
    def test_recovers_ground_truth(self, clustered_data):
        a, model = clustered_data
        res = subspace_cluster(a, 3, eps=0.05, seed=0)
        assert clustering_accuracy(res.labels, model.labels) > 0.9

    def test_noisier_data_still_good(self):
        a, model = union_of_subspaces(40, 180, n_subspaces=2, dim=3,
                                      noise=0.05, seed=13)
        res = subspace_cluster(a, 2, eps=0.1, seed=0)
        assert clustering_accuracy(res.labels, model.labels) > 0.85


class TestClusteringAccuracy:
    def test_perfect_and_permuted(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        assert clustering_accuracy(truth, truth) == 1.0
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_accuracy(permuted, truth) == 1.0

    def test_partial(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        assert clustering_accuracy(pred, truth) == 0.75

    def test_validation(self):
        with pytest.raises(ValidationError):
            clustering_accuracy([0, 1], [0, 1, 2])
        with pytest.raises(ValidationError):
            clustering_accuracy(np.arange(9), np.arange(9))

