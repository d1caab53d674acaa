"""Unit tests for the ExD transform (Alg. 1) and TransformedData."""

import multiprocessing

import numpy as np
import pytest

from repro.core import TransformedData, exd_transform, exd_transform_distributed
from repro.core.dictionary import Dictionary
from repro.errors import DictionaryError, ValidationError
from repro.platform import platform_by_name
from repro.sparse import CSCMatrix


class TestExdTransform:
    def test_error_bound_met(self, noisy_union_data):
        a, _ = noisy_union_data
        for eps in (0.05, 0.1, 0.3):
            t, stats = exd_transform(a, 60, eps, seed=0)
            assert stats.all_converged
            assert t.transformation_error(a) <= eps + 1e-9

    def test_zero_eps_full_dictionary_exact(self, union_data):
        a, _ = union_data
        t, stats = exd_transform(a, a.shape[1], 0.0, seed=0)
        assert stats.all_converged
        assert t.transformation_error(a) <= 1e-6

    def test_sparsity_tracks_subspace_dimension(self, union_data):
        a, model = union_data
        t, _ = exd_transform(a, 40, 0.01, seed=0)
        # Union of rank-2 subspaces: with a redundant dictionary the
        # average density must be close to 2 (Sec. V-B guarantee).
        assert t.alpha <= max(model.dims) + 1.0

    def test_alpha_decreases_with_size(self, noisy_union_data):
        a, _ = noisy_union_data
        alphas = []
        for l in (30, 60, 120):
            t, _ = exd_transform(a, l, 0.05, seed=3)
            alphas.append(t.alpha)
        assert alphas[0] >= alphas[-1]

    def test_normalization_rescales_correctly(self, union_data):
        a, _ = union_data
        scaled = a * np.linspace(0.1, 50, a.shape[1])
        t, _ = exd_transform(scaled, 40, 0.05, seed=0)
        assert t.transformation_error(scaled) <= 0.05 + 1e-9

    def test_strict_mode_raises_for_tiny_dictionary(self, union_data):
        a, _ = union_data
        with pytest.raises(DictionaryError):
            exd_transform(a, 1, 0.001, seed=0, strict=True)

    def test_nonstrict_flags_unconverged(self, union_data):
        a, _ = union_data
        _, stats = exd_transform(a, 1, 0.001, seed=0)
        assert not stats.all_converged

    def test_reuse_dictionary(self, union_data):
        a, _ = union_data
        t1, _ = exd_transform(a, 30, 0.05, seed=9)
        t2, _ = exd_transform(a, 30, 0.05, dictionary=t1.dictionary)
        assert np.array_equal(t1.dictionary.indices, t2.dictionary.indices)

    def test_dictionary_row_mismatch(self, union_data, rng):
        a, _ = union_data
        bad = Dictionary(rng.standard_normal((a.shape[0] + 1, 4)),
                         np.arange(4))
        with pytest.raises(ValidationError):
            exd_transform(a, 4, 0.1, dictionary=bad)

    def test_invalid_eps(self, union_data):
        a, _ = union_data
        with pytest.raises(ValidationError):
            exd_transform(a, 10, 1.5)


class TestExdDistributed:
    def test_matches_serial_with_same_seed(self, union_data, small_cluster):
        a, _ = union_data
        serial, _ = exd_transform(a, 30, 0.05, seed=4)
        dist, stats, spmd = exd_transform_distributed(a, 30, 0.05,
                                                      small_cluster, seed=4)
        assert np.array_equal(serial.dictionary.indices,
                              dist.dictionary.indices)
        assert dist.transformation_error(a) <= 0.05 + 1e-9
        assert dist.n == a.shape[1]
        assert spmd.simulated_time > 0
        assert stats.all_converged

    @pytest.mark.parametrize("backend", [
        "threads",
        pytest.param("processes", marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="process backend requires the fork start method"))])
    def test_bits_match_serial(self, backend):
        """Every rank normalises only its atoms and codes its column
        block as it is; the blocks of N=700 on 4 ranks start mid-panel."""
        from repro.data import salina_like

        a, _ = salina_like(n=700, seed=3)
        serial, serial_stats = exd_transform(a, 48, 0.1, seed=6)
        dist, stats, spmd = exd_transform_distributed(
            a, 48, 0.1, platform_by_name("1x4"), seed=6, backend=backend)
        assert spmd.backend == backend
        np.testing.assert_array_equal(dist.dictionary.atoms,
                                      serial.dictionary.atoms)
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(
                getattr(dist.coefficients, part),
                getattr(serial.coefficients, part))
        assert stats == serial_stats

    def test_preprocessing_flops_charged(self, union_data, small_cluster):
        a, _ = union_data
        _, _, spmd = exd_transform_distributed(a, 30, 0.05, small_cluster,
                                               seed=4)
        assert spmd.total_flops > 0

    def test_size_exceeding_columns_fast_fails(self, union_data,
                                               small_cluster):
        # Regression: L > N used to surface as a RankFailedError from
        # inside a rank thread; it must be a ValidationError up front.
        a, _ = union_data
        with pytest.raises(ValidationError,
                           match="distinct dictionary columns"):
            exd_transform_distributed(a, a.shape[1] + 1, 0.05,
                                      small_cluster, seed=4)

    @pytest.fixture()
    def no_ranks(self, monkeypatch):
        """Fail the test if any SPMD rank program is launched."""
        import repro.mpi.runtime as runtime

        def launched(*_args, **_kwargs):
            pytest.fail("a rank started before validation failed")

        monkeypatch.setattr(runtime, "run_spmd", launched)

    @pytest.fixture(scope="class")
    def store(self, union_data, tmp_path_factory):
        from repro.store import ColumnStore

        a, _ = union_data
        path = tmp_path_factory.mktemp("exd-dist") / "store"
        return ColumnStore.from_matrix(str(path), a, chunk_width=64)

    @pytest.mark.parametrize("max_atoms", [0, -3, 2.5])
    @pytest.mark.parametrize("source", ["array", "store"])
    def test_bad_max_atoms_fast_fails(self, union_data, store, small_cluster,
                                      no_ranks, max_atoms, source):
        # Regression: a bad cap used to raise RankFailedError from inside
        # a rank; the serial encode raises ValidationError.
        a = union_data[0] if source == "array" else store
        with pytest.raises(ValidationError, match="max_atoms"):
            exd_transform_distributed(a, 30, 0.05, small_cluster, seed=4,
                                      max_atoms=max_atoms)

    @pytest.mark.parametrize("width", [0, -5, 2.5, 16, 100])
    def test_bad_store_block_width_fast_fails(self, store, small_cluster,
                                              no_ranks, width):
        # The store branch follows StreamingEncoder's width rule: a
        # positive multiple of the 256-column encode panel.
        with pytest.raises(ValidationError, match="block_width"):
            exd_transform_distributed(store, 30, 0.05, small_cluster,
                                      seed=4, block_width=width)


class TestTransformedData:
    @pytest.fixture()
    def transform(self, union_data):
        a, _ = union_data
        t, _ = exd_transform(a, 30, 0.05, seed=0)
        return a, t

    def test_shape_aliases(self, transform):
        a, t = transform
        assert t.shape == a.shape
        assert t.m == a.shape[0] and t.n == a.shape[1]
        assert t.l == 30

    def test_memory_accounting(self, transform):
        _, t = transform
        assert t.memory_words == t.m * t.l + t.nnz
        per_node = t.memory_words_per_node(4)
        assert per_node >= t.m * t.l
        assert t.memory_words_per_node(1) >= per_node

    def test_invalid_p(self, transform):
        _, t = transform
        with pytest.raises(ValidationError):
            t.memory_words_per_node(0)

    def test_project_vector_adjoint(self, transform, rng):
        a, t = transform
        x = rng.standard_normal(t.n)
        y = rng.standard_normal(t.m)
        recon = t.reconstruct()
        assert np.allclose(t.project_vector(x), recon @ x, atol=1e-8)
        assert np.allclose(t.project_adjoint(y), recon.T @ y, atol=1e-8)

    def test_reconstruct_columns(self, transform):
        _, t = transform
        cols = [3, 7, 1]
        assert np.allclose(t.reconstruct_columns(cols),
                           t.reconstruct()[:, cols])

    def test_row_mismatch_rejected(self, rng):
        d = Dictionary(rng.standard_normal((5, 3)), np.arange(3))
        c = CSCMatrix.zeros((4, 10))  # wrong: 4 rows vs 3 atoms
        with pytest.raises(ValidationError):
            TransformedData(dictionary=d, coefficients=c, eps=0.1)
