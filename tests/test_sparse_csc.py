"""Unit tests for repro.sparse.csc."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sparse import CSCMatrix


@pytest.fixture()
def sample_dense():
    return np.array([
        [1.0, 0.0, 0.0, 2.0],
        [0.0, 0.0, 3.0, 0.0],
        [4.0, 5.0, 0.0, 0.0],
    ])


@pytest.fixture()
def sample_csc(sample_dense):
    return CSCMatrix.from_dense(sample_dense)


class TestConstruction:
    def test_from_dense_roundtrip(self, sample_dense, sample_csc):
        assert np.array_equal(sample_csc.to_dense(), sample_dense)
        assert sample_csc.nnz == 5
        assert sample_csc.shape == (3, 4)

    def test_from_dense_tolerance(self):
        c = CSCMatrix.from_dense([[1e-8, 1.0]], tol=1e-6)
        assert c.nnz == 1

    def test_zeros(self):
        z = CSCMatrix.zeros((3, 5))
        assert z.nnz == 0
        assert np.array_equal(z.to_dense(), np.zeros((3, 5)))

    def test_identity(self):
        i = CSCMatrix.identity(4)
        assert np.array_equal(i.to_dense(), np.eye(4))

    def test_validation_bad_indptr(self):
        with pytest.raises(ValidationError):
            CSCMatrix([1.0], [0], [0, 2], (2, 1))

    def test_validation_decreasing_indptr(self):
        with pytest.raises(ValidationError):
            CSCMatrix([1.0, 2.0], [0, 1], [0, 2, 1, 2], (2, 3))

    def test_validation_row_out_of_range(self):
        with pytest.raises(ValidationError):
            CSCMatrix([1.0], [5], [0, 1], (2, 1))

    def test_validation_unsorted_rows(self):
        with pytest.raises(ValidationError):
            CSCMatrix([1.0, 2.0], [1, 0], [0, 2], (2, 1))


class TestAccessors:
    def test_column(self, sample_csc, sample_dense):
        for j in range(4):
            assert np.array_equal(sample_csc.column(j), sample_dense[:, j])

    def test_column_out_of_range(self, sample_csc):
        with pytest.raises(ValidationError):
            sample_csc.column(4)

    def test_column_nnz(self, sample_csc):
        assert sample_csc.column_nnz().tolist() == [2, 1, 1, 1]

    def test_nbytes_positive(self, sample_csc):
        assert sample_csc.nbytes > 0

    def test_frobenius(self, sample_csc, sample_dense):
        assert sample_csc.frobenius_norm() == pytest.approx(
            np.linalg.norm(sample_dense))


class TestStructuralOps:
    def test_slice_columns(self, sample_csc, sample_dense):
        sub = sample_csc.slice_columns(1, 3)
        assert np.array_equal(sub.to_dense(), sample_dense[:, 1:3])

    def test_slice_columns_empty(self, sample_csc):
        sub = sample_csc.slice_columns(2, 2)
        assert sub.shape == (3, 0)

    def test_slice_bad_range(self, sample_csc):
        with pytest.raises(ValidationError):
            sample_csc.slice_columns(3, 1)

    def test_select_columns(self, sample_csc, sample_dense):
        sub = sample_csc.select_columns([3, 0])
        assert np.array_equal(sub.to_dense(), sample_dense[:, [3, 0]])

    def test_select_columns_out_of_range(self, sample_csc):
        with pytest.raises(ValidationError):
            sample_csc.select_columns([9])

    def test_hstack(self, sample_csc, sample_dense):
        both = sample_csc.hstack(sample_csc)
        assert np.array_equal(both.to_dense(),
                              np.concatenate([sample_dense] * 2, axis=1))

    def test_hstack_row_mismatch(self, sample_csc):
        with pytest.raises(ValidationError):
            sample_csc.hstack(CSCMatrix.zeros((5, 2)))

    def test_pad_rows(self, sample_csc, sample_dense):
        padded = sample_csc.pad_rows(5)
        expected = np.zeros((5, 4))
        expected[:3] = sample_dense
        assert np.array_equal(padded.to_dense(), expected)

    def test_pad_rows_shrink_rejected(self, sample_csc):
        with pytest.raises(ValidationError):
            sample_csc.pad_rows(2)

    def test_shift_rows(self, sample_csc, sample_dense):
        shifted = sample_csc.shift_rows(2)
        expected = np.zeros((5, 4))
        expected[2:] = sample_dense
        assert np.array_equal(shifted.to_dense(), expected)


class TestArithmetic:
    def test_matvec(self, sample_csc, sample_dense, rng):
        x = rng.standard_normal(4)
        assert np.allclose(sample_csc.matvec(x), sample_dense @ x)

    def test_rmatvec(self, sample_csc, sample_dense, rng):
        y = rng.standard_normal(3)
        assert np.allclose(sample_csc.rmatvec(y), sample_dense.T @ y)

    def test_matmul_vector(self, sample_csc, sample_dense, rng):
        x = rng.standard_normal(4)
        assert np.allclose(sample_csc @ x, sample_dense @ x)

    def test_matmul_matrix(self, sample_csc, sample_dense, rng):
        x = rng.standard_normal((4, 3))
        assert np.allclose(sample_csc @ x, sample_dense @ x)

    def test_to_scipy_matches(self, sample_csc, sample_dense):
        sp = sample_csc.to_scipy()
        assert np.array_equal(sp.toarray(), sample_dense)

    def test_allclose(self, sample_csc):
        assert sample_csc.allclose(sample_csc)
        assert not sample_csc.allclose(CSCMatrix.zeros(sample_csc.shape))
