"""The coding contract: data columns are coded raw against unit atoms.

Eq. 1's stopping rule ``‖a − Dc‖₂ ≤ ε‖a‖₂`` is scale-invariant, so
every fit path codes a column at its own scale, exactly as a served
encode (:func:`~repro.linalg.parallel_omp.encode_columns`) does.  Column
``j`` of a fitted transform is therefore the served code of ``A[:, j]``
bit for bit, however the transform was fitted, and the in-memory fit
needs no normalised copy of ``A``.
"""

import multiprocessing
import tracemalloc

import numpy as np
import pytest

from repro.core import exd_transform, exd_transform_distributed
from repro.core.evolve import extend_transform
from repro.data.subspaces import union_of_subspaces
from repro.linalg.parallel_omp import encode_columns
from repro.platform import platform_by_name
from repro.store import ColumnStore

M, N, L, EPS, SEED = 32, 600, 24, 0.15, 5
ZERO_COL, SCALED_COL = 3, 7

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method")


@pytest.fixture(scope="module")
def data():
    """Union-of-subspaces columns plus a zero and a 1e3-scaled column."""
    a, _ = union_of_subspaces(M, N, n_subspaces=4, dim=3, noise=0.01,
                              seed=23)
    a[:, ZERO_COL] = 0.0
    a[:, SCALED_COL] *= 1e3
    return a


@pytest.fixture(scope="module")
def store(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "a.store"
    return ColumnStore.from_matrix(str(path), data, chunk_width=128)


def _assert_served_codes(dictionary, eps, columns, coefficients):
    """``encode_columns`` on ``columns`` returns ``coefficients``' columns."""
    served, _ = encode_columns(dictionary, columns, eps)
    assert len(served) == coefficients.shape[1] == columns.shape[1]
    for j, (support, coef, _converged) in enumerate(served):
        lo, hi = coefficients.indptr[j], coefficients.indptr[j + 1]
        np.testing.assert_array_equal(support, coefficients.indices[lo:hi],
                                      err_msg=f"support of column {j}")
        np.testing.assert_array_equal(coef, coefficients.data[lo:hi],
                                      err_msg=f"coefficients of column {j}")


def _fit(how, data, store):
    if how == "in-memory":
        return exd_transform(data, L, EPS, seed=SEED)[0]
    if how == "streamed":
        return exd_transform(store, L, EPS, seed=SEED, block_width=256)[0]
    source, backend = how.split("-")[1:]
    return exd_transform_distributed(
        data if source == "array" else store, L, EPS,
        platform_by_name("1x4"), seed=SEED, backend=backend)[0]


@pytest.mark.parametrize("how", [
    "in-memory",
    "streamed",
    "distributed-array-threads",
    "distributed-store-threads",
    pytest.param("distributed-array-processes", marks=needs_fork),
    pytest.param("distributed-store-processes", marks=needs_fork),
])
def test_served_code_equals_fitted_column(data, store, how):
    t = _fit(how, data, store)
    np.testing.assert_allclose(np.linalg.norm(t.dictionary.atoms, axis=0),
                               1.0, rtol=1e-12)
    assert t.coefficients.indptr[ZERO_COL + 1] == \
        t.coefficients.indptr[ZERO_COL]
    _assert_served_codes(t.dictionary, t.eps, data, t.coefficients)


@pytest.mark.parametrize("source", ["array", "store"])
def test_extend_appends_served_codes(data, tmp_path, source):
    """Phase 1 of an evolving-data update appends the served codes of
    the new columns (32 atoms represent all of them, so none is added)."""
    n_old = 400
    t, _ = exd_transform(data[:, :n_old], 32, EPS, seed=SEED)
    a_new = data[:, n_old:]
    if source == "store":
        a_new = ColumnStore.from_matrix(str(tmp_path / "new.store"), a_new,
                                        chunk_width=64)
    result = extend_transform(t, a_new, seed=SEED, block_width=256)
    assert not result.dictionary_grew
    appended = result.transform.coefficients
    new_block = appended.slice_columns(n_old, appended.shape[1])
    _assert_served_codes(t.dictionary, t.eps, data[:, n_old:], new_block)


def test_exd_transform_holds_no_second_copy_of_a():
    """The in-memory fit codes ``A`` in place: its peak allocation stays
    below one copy of ``A`` (a normalised copy alone would reach it)."""
    a, _ = union_of_subspaces(64, 4096, n_subspaces=4, dim=3, noise=0.01,
                              seed=31)
    tracemalloc.start()
    try:
        exd_transform(a, 32, 0.1, seed=1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes, f"peak {peak} B >= A's {a.nbytes} B"
