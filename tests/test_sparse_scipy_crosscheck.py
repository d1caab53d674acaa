"""Cross-validation of our sparse kernels against scipy.sparse."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSCMatrix


def random_sparse(seed, max_dim=12, density=0.4):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, max_dim))
    n = int(rng.integers(1, max_dim))
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) > density] = 0.0
    return dense


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csc_matvec_matches_scipy(seed):
    dense = random_sparse(seed)
    ours = CSCMatrix.from_dense(dense)
    theirs = sp.csc_matrix(dense)
    x = np.random.default_rng(seed + 1).standard_normal(dense.shape[1])
    assert np.allclose(ours.matvec(x), theirs @ x, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csc_rmatvec_matches_scipy(seed):
    dense = random_sparse(seed)
    ours = CSCMatrix.from_dense(dense)
    theirs = sp.csc_matrix(dense)
    y = np.random.default_rng(seed + 2).standard_normal(dense.shape[0])
    assert np.allclose(ours.rmatvec(y), theirs.T @ y, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csc_structure_matches_scipy(seed):
    """Same canonical (sorted-indices) CSC arrays as scipy produces."""
    dense = random_sparse(seed)
    ours = CSCMatrix.from_dense(dense)
    theirs = sp.csc_matrix(dense)
    theirs.sort_indices()
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.allclose(ours.data, theirs.data)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_column_slice_matches_scipy(seed, data):
    dense = random_sparse(seed)
    ours = CSCMatrix.from_dense(dense)
    theirs = sp.csc_matrix(dense)
    n = dense.shape[1]
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    sliced = ours.slice_columns(start, stop)
    assert np.array_equal(sliced.to_dense(),
                          theirs[:, start:stop].toarray())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_to_scipy_roundtrip(seed):
    dense = random_sparse(seed)
    ours = CSCMatrix.from_dense(dense)
    back = ours.to_scipy().toarray()
    assert np.array_equal(back, dense)
