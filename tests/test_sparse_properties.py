"""Hypothesis property tests for the sparse substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse import CSCMatrix, ColumnBuilder

SMALL_FLOATS = st.floats(min_value=-10, max_value=10, allow_nan=False,
                         allow_infinity=False, width=64)


def dense_matrices(max_rows=8, max_cols=8):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: arrays(np.float64, (r, c), elements=SMALL_FLOATS)))


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_from_dense_roundtrip(dense):
    c = CSCMatrix.from_dense(dense)
    assert np.array_equal(c.to_dense(), dense)
    assert c.nnz == int(np.count_nonzero(dense))


@settings(max_examples=60, deadline=None)
@given(dense_matrices(), st.integers(0, 2**32 - 1))
def test_matvec_matches_dense(dense, seed):
    c = CSCMatrix.from_dense(dense)
    x = np.random.default_rng(seed).standard_normal(dense.shape[1])
    assert np.allclose(c.matvec(x), dense @ x, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(dense_matrices(), st.integers(0, 2**32 - 1))
def test_rmatvec_matches_dense(dense, seed):
    c = CSCMatrix.from_dense(dense)
    y = np.random.default_rng(seed).standard_normal(dense.shape[0])
    assert np.allclose(c.rmatvec(y), dense.T @ y, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(dense_matrices(), dense_matrices())
def test_hstack_matches_concatenate(a, b):
    if a.shape[0] != b.shape[0]:
        b = np.resize(b, (a.shape[0], b.shape[1]))
    ca, cb = CSCMatrix.from_dense(a), CSCMatrix.from_dense(b)
    assert np.array_equal(ca.hstack(cb).to_dense(),
                          np.concatenate([a, b], axis=1))


@settings(max_examples=40, deadline=None)
@given(dense_matrices(), st.data())
def test_slice_columns_matches_numpy(dense, data):
    c = CSCMatrix.from_dense(dense)
    ncols = dense.shape[1]
    start = data.draw(st.integers(0, ncols))
    stop = data.draw(st.integers(start, ncols))
    assert np.array_equal(c.slice_columns(start, stop).to_dense(),
                          dense[:, start:stop])


@settings(max_examples=40, deadline=None)
@given(dense_matrices())
def test_builder_reproduces_matrix(dense):
    b = ColumnBuilder(nrows=dense.shape[0])
    for j in range(dense.shape[1]):
        b.add_dense_column(dense[:, j])
    assert np.array_equal(b.finalize().to_dense(), dense)
