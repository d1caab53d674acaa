"""Conformance suite for the pluggable OMP kernel backends.

Every registered backend is held to the documented contract against the
numpy reference (:mod:`repro.linalg.kernels.numpy_ref`):

* **identical atom-selection sequences** on the golden cases,
* coefficients within ``COEF_RTOL`` / ``COEF_ATOL``, and
* **grouping invariance**: a column's bits do not depend on the other
  columns of the call or on its width.

Backends whose optional dependency is absent (numba in a bare
environment) are skipped with the backend's own ``unavailable_reason``
so the skip is self-explanatory in CI logs.  The suite also pins the
selection precedence (explicit arg > process default > environment
variable > ``numpy``) and the end-to-end invariant that serial,
parallel, streaming and serving paths agree under any one backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DictionaryError, KernelError
from repro.linalg import batch_omp_matrix
from repro.linalg.kernels import (
    COEF_ATOL,
    COEF_RTOL,
    OMP_BACKEND_ENV,
    OMPKernelBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    registered_backend_names,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.linalg.kernels.numpy_ref import NumpyBackend, batch_omp_column
from repro.linalg.omp import ENCODE_BLOCK_COLS


def _backend_or_skip(name: str) -> OMPKernelBackend:
    try:
        return get_backend(name)
    except KernelError as exc:
        pytest.skip(f"backend {name!r} unavailable: {exc}")


def _reference_panel(gram, dta, col_sq, eps, max_atoms):
    return [batch_omp_column(gram, dta[:, j], float(col_sq[j]), eps,
                             max_atoms)
            for j in range(dta.shape[1])]


def _golden_cases():
    """Deterministic (dictionary, signals, eps, max_atoms) cases.

    Well-conditioned by construction (random gaussian atoms, exact
    sparse combinations) so the argmax sequence has no ties a compiled
    backend could legitimately break differently.
    """
    cases = []
    rng = np.random.default_rng(42)
    for m, l, n, sparsity, eps, cap in [
        (20, 12, 9, 3, 0.0, None),
        (32, 24, 16, 4, 0.1, None),
        (16, 40, 11, 2, 0.05, None),     # overcomplete
        (24, 16, 8, 5, 0.0, 3),          # max_atoms cap binds
        (12, 8, 5, 2, 0.5, 1),
    ]:
        d = rng.standard_normal((m, l))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c = np.zeros((l, n))
        for j in range(n):
            support = rng.choice(l, size=sparsity, replace=False)
            c[support, j] = rng.standard_normal(sparsity)
        a = d @ c
        noise = 0.01 * rng.standard_normal(a.shape) if eps else 0.0
        cases.append((d, a + noise, eps, cap))
    return cases


def _panel_inputs(d, a):
    gram = d.T @ d
    dta = d.T @ a
    col_sq = np.einsum("ij,ij->j", a, a)
    return gram, dta, col_sq


@pytest.mark.parametrize("name", registered_backend_names())
class TestBackendConformance:
    """Contract: supports identical, coefficients within tolerance."""

    def test_golden_cases_match_reference(self, name):
        kernel = _backend_or_skip(name)
        for d, a, eps, cap in _golden_cases():
            gram, dta, col_sq = _panel_inputs(d, a)
            got = kernel.batch_omp_columns(gram, dta, col_sq, eps, cap)
            want = _reference_panel(gram, dta, col_sq, eps, cap)
            assert len(got) == len(want) == a.shape[1]
            for (gs, gc, gr, gi, gok), (ws, wc, wr, wi, wok) in \
                    zip(got, want):
                np.testing.assert_array_equal(
                    np.asarray(gs), np.asarray(ws),
                    err_msg=f"{name}: atom-selection sequence diverged")
                np.testing.assert_allclose(
                    np.asarray(gc), np.asarray(wc),
                    rtol=COEF_RTOL, atol=COEF_ATOL,
                    err_msg=f"{name}: coefficients out of tolerance")
                assert gi == wi
                assert bool(gok) == bool(wok)
                assert gr == pytest.approx(wr, rel=1e-6, abs=1e-12)

    def test_numpy_backend_is_bit_exact(self, name):
        if name != "numpy":
            pytest.skip("bit-exactness is the numpy backend's contract")
        kernel = _backend_or_skip(name)
        for d, a, eps, cap in _golden_cases():
            gram, dta, col_sq = _panel_inputs(d, a)
            got = kernel.batch_omp_columns(gram, dta, col_sq, eps, cap)
            want = _reference_panel(gram, dta, col_sq, eps, cap)
            for (gs, gc, gr, _, _), (ws, wc, wr, _, _) in zip(got, want):
                np.testing.assert_array_equal(gs, ws)
                np.testing.assert_array_equal(gc, wc)
                assert gr == wr

    def test_zero_columns(self, name):
        kernel = _backend_or_skip(name)
        rng = np.random.default_rng(0)
        d = rng.standard_normal((10, 6))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        a = np.zeros((10, 3))
        gram, dta, col_sq = _panel_inputs(d, a)
        for support, coef, res_sq, it, ok in kernel.batch_omp_columns(
                gram, dta, col_sq, 0.1, None):
            assert np.asarray(support).size == 0
            assert np.asarray(coef).size == 0
            assert res_sq == 0.0 and it == 0 and ok

    def test_dependent_atoms_are_banned(self, name):
        # A dictionary with a duplicated atom: once one copy is
        # selected, the other has zero Cholesky pivot and must be
        # banned, not selected (which would blow up the solve).
        kernel = _backend_or_skip(name)
        rng = np.random.default_rng(3)
        base = rng.standard_normal((12, 4))
        base /= np.linalg.norm(base, axis=0, keepdims=True)
        d = np.concatenate([base, base[:, :2]], axis=1)  # atoms 4,5 dup 0,1
        a = base @ np.array([[1.0], [0.5], [0.25], [0.1]])
        gram, dta, col_sq = _panel_inputs(d, a)
        results = kernel.batch_omp_columns(gram, dta, col_sq, 0.0, None)
        (support, coef, res_sq, it, ok), = results
        support = np.asarray(support)
        # never both copies of a duplicated atom
        assert not ({0, 4} <= set(support.tolist()))
        assert not ({1, 5} <= set(support.tolist()))
        want = _reference_panel(gram, dta, col_sq, 0.0, None)[0]
        np.testing.assert_array_equal(support, np.asarray(want[0]))
        np.testing.assert_allclose(np.asarray(coef), np.asarray(want[1]),
                                   rtol=COEF_RTOL, atol=COEF_ATOL)

    def test_max_atoms_cap(self, name):
        kernel = _backend_or_skip(name)
        d, a, _, _ = _golden_cases()[0]
        gram, dta, col_sq = _panel_inputs(d, a)
        for cap in (0, 1, 2):
            for support, _, _, it, _ in kernel.batch_omp_columns(
                    gram, dta, col_sq, 0.0, cap):
                assert np.asarray(support).size <= cap
                assert it <= cap

    def test_strict_failure_on_smallest_column(self, name):
        # End-to-end: under strict mode the orchestration layer raises
        # for the first failing column, whichever backend ran the panel.
        _backend_or_skip(name)
        d = np.array([[1.0], [0.0]])
        a = np.array([[1.0, 0.5], [1.0, 0.5]])
        with pytest.raises(DictionaryError) as exc:
            batch_omp_matrix(d, a, eps=0.01, strict=True, backend=name)
        assert "eps" in str(exc.value)


class TestSelectionPrecedence:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(OMP_BACKEND_ENV, raising=False)
        set_default_backend(None)
        assert default_backend_name() == "numpy"
        assert resolve_backend().name == "numpy"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(OMP_BACKEND_ENV, "numpy")
        set_default_backend(None)
        assert resolve_backend().name == "numpy"
        monkeypatch.setenv(OMP_BACKEND_ENV, "no-such-backend")
        with pytest.raises(KernelError):
            resolve_backend()

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(OMP_BACKEND_ENV, "no-such-backend")
        try:
            assert set_default_backend("numpy") == "numpy"
            assert resolve_backend().name == "numpy"
        finally:
            set_default_backend(None)

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(OMP_BACKEND_ENV, "no-such-backend")
        assert resolve_backend("numpy").name == "numpy"
        assert resolve_backend(NumpyBackend()).name == "numpy"

    def test_auto_degrades_to_numpy_without_warning(self, monkeypatch):
        monkeypatch.delenv(OMP_BACKEND_ENV, raising=False)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = resolve_backend("auto")
        assert isinstance(resolved, OMPKernelBackend)
        if "numba" in available_backends():
            assert resolved.name == "numba"
        else:
            assert resolved.name == "numpy"

    def test_unknown_name_raises_kernel_error(self):
        with pytest.raises(KernelError, match="unknown OMP kernel"):
            get_backend("no-such-backend")
        with pytest.raises(KernelError):
            resolve_backend("no-such-backend")
        with pytest.raises(KernelError):
            set_default_backend("no-such-backend")

    def test_unavailable_backend_reports_reason(self, monkeypatch):
        import repro.linalg.kernels as kernels

        class MissingDependency(OMPKernelBackend):
            name = "missing-dependency"

            @classmethod
            def available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "its module is not importable"

        monkeypatch.setattr(kernels, "_REGISTRY", dict(kernels._REGISTRY))
        register_backend(MissingDependency)
        with pytest.raises(KernelError, match="registered but unavailable: "
                                              "its module is not importable"):
            get_backend("missing-dependency")

    def test_bad_type_raises(self):
        with pytest.raises(KernelError):
            resolve_backend(42)

    def test_use_backend_restores_previous(self, monkeypatch):
        monkeypatch.delenv(OMP_BACKEND_ENV, raising=False)
        set_default_backend(None)
        with use_backend("numpy"):
            assert default_backend_name() == "numpy"
            with use_backend(None):      # no-op nesting
                assert default_backend_name() == "numpy"
        assert default_backend_name() == "numpy"  # env default
        try:
            set_default_backend("numpy")
            with use_backend("numpy"):
                pass
            assert default_backend_name() == "numpy"
        finally:
            set_default_backend(None)

    def test_register_rejects_reserved_names(self):
        with pytest.raises(KernelError):
            register_backend(type("Bad", (OMPKernelBackend,),
                                  {"name": "auto"}))


def _invariance_panel(n):
    """``(gram, dta, col_sq)`` for ``n`` columns that mix every loop path.

    Atoms 0-4 live on rows 0-5 and atoms 5-7 are exact copies of atoms
    0-2; atoms 8-17 live on rows 6-17; rows 18-23 are orthogonal to every
    atom.  Columns cycle through ten slots: 2-sparse in the second block
    (done in about two steps), 3-sparse anywhere, a first-block signal
    plus an orthogonal part (slot 6) and dense noise (slot 7) — both
    stragglers that can never meet ε: they select all 15 independent
    atoms and must ban the 3 copies before running out of atoms — and a
    zero column (slot 9).
    """
    rng = np.random.default_rng(23)
    m = 24
    first = np.zeros((m, 5))
    first[:6] = rng.standard_normal((6, 5))
    second = np.zeros((m, 10))
    second[6:18] = rng.standard_normal((12, 10))
    d = np.concatenate([first, first[:, :3], second], axis=1)
    d /= np.linalg.norm(d, axis=0, keepdims=True)
    a = np.zeros((m, n))
    for j in range(n):
        slot = j % 10
        if slot in (0, 2, 4, 8):
            a[:, j] = d[:, rng.choice(np.arange(8, 18), 2, replace=False)] \
                @ rng.standard_normal(2)
        elif slot in (1, 3, 5):
            a[:, j] = d[:, rng.choice(18, 3, replace=False)] \
                @ rng.standard_normal(3)
        elif slot == 6:
            a[:6, j] = rng.standard_normal(6)
            a[18:, j] = rng.standard_normal(6)
        elif slot == 7:
            a[:, j] = rng.standard_normal(m)
    a[:18] += 1e-3 * rng.standard_normal((18, n)) * (np.arange(n) % 10 != 9)
    return d.T @ d, d.T @ a, np.einsum("ij,ij->j", a, a)


def _same_result(got, want, where):
    gs, gc, gr, gi, gok = got
    ws, wc, wr, wi, wok = want
    gs, gc = np.asarray(gs), np.asarray(gc)
    assert gs.dtype == np.int64 and gc.dtype == np.float64, where
    np.testing.assert_array_equal(gs, ws, err_msg=where)
    assert gc.tobytes() == np.asarray(wc).tobytes(), where
    assert (gr, gi, bool(gok)) == (wr, wi, bool(wok)), where


@pytest.mark.parametrize("name", registered_backend_names())
class TestGroupingInvariance:
    """A column's result depends only on ``(G, its DᵀA column, ‖a‖²)``:
    not on its neighbours, the call's width or how many columns of the
    call are still running.  Coefficients are compared byte for byte.
    """

    N = 300   # wider than one 256-column panel

    @staticmethod
    def _run(kernel, panel, order, cap):
        gram, dta, col_sq = panel
        order = np.asarray(order)
        out = kernel.batch_omp_columns(gram, dta[:, order], col_sq[order],
                                       0.05, cap)
        return dict(zip(order.tolist(), out))

    def _groupings(self):
        from repro.linalg.kernels.numpy_ref import LOCKSTEP_MIN_COLS

        cols = np.arange(self.N)
        shuffled = np.random.default_rng(5).permutation(self.N)
        return {
            "alone": [[j] for j in cols],
            "width 3": np.array_split(cols, self.N // 3),
            f"width {LOCKSTEP_MIN_COLS - 1}":
                [cols[i:i + LOCKSTEP_MIN_COLS - 1]
                 for i in range(0, self.N, LOCKSTEP_MIN_COLS - 1)],
            f"width {LOCKSTEP_MIN_COLS}":
                [cols[i:i + LOCKSTEP_MIN_COLS]
                 for i in range(0, self.N, LOCKSTEP_MIN_COLS)],
            "reversed panel": [cols[::-1]],
            "other neighbours": [shuffled[:97], shuffled[97:]],
        }

    @pytest.mark.parametrize("cap", [None, 4])
    def test_every_grouping_gives_the_same_bits(self, name, cap):
        kernel = _backend_or_skip(name)
        panel = _invariance_panel(self.N)
        want = self._run(kernel, panel, np.arange(self.N), cap)
        iters = np.array([want[j][3] for j in range(self.N)])
        sizes = np.array([np.asarray(want[j][0]).size for j in range(self.N)])
        # The panel exercises what it claims to: zero columns, stragglers
        # far behind the median column, unequal supports, and (with no
        # cap) copies banned rather than selected; with the cap, it binds.
        assert all(want[j][3] == 0 and want[j][4]
                   for j in range(9, self.N, 10))
        assert np.unique(sizes).size >= 3
        for j in range(self.N):
            chosen = set(np.asarray(want[j][0]).tolist())
            assert not any({k, k + 5} <= chosen for k in range(3))
        straggler = [j for j in range(self.N) if j % 10 in (6, 7)]
        if cap is None:
            assert iters.max() >= 3 * np.median(iters[iters > 0])
            assert all(sizes[j] == 15 and not want[j][4] for j in straggler)
        else:
            assert all(iters[j] == cap and not want[j][4] for j in straggler)

        for label, groups in self._groupings().items():
            got = {}
            for group in groups:
                got.update(self._run(kernel, panel, group, cap))
            for j in range(self.N):
                _same_result(got[j], want[j], f"{name}, {label}, column {j}")

    def test_numpy_factor_split_gives_the_same_bits(self, name, monkeypatch):
        """A panel whose stacked Cholesky block outgrows its byte bound is
        finished in halves; the halves must reproduce the whole."""
        if name != "numpy":
            pytest.skip("the factor bound is the numpy kernel's")
        from repro.linalg.kernels import numpy_ref

        kernel = _backend_or_skip(name)
        panel = _invariance_panel(self.N)
        want = self._run(kernel, panel, np.arange(self.N), None)
        monkeypatch.setattr(numpy_ref, "FACTOR_BLOCK_BYTES", 4096)
        got = self._run(kernel, panel, np.arange(self.N), None)
        for j in range(self.N):
            _same_result(got[j], want[j], f"split, column {j}")


class TestLockstepOracle:
    """The numpy lockstep loop reproduces the per-column loop bit for bit
    when called directly — the backend routes narrow calls (most golden
    cases) to the per-column loop itself."""

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.1, 0.5])
    def test_matches_per_column_loop(self, eps):
        from repro.linalg.kernels.numpy_ref import lockstep_columns

        inputs = [(_panel_inputs(d, a), cap)
                  for d, a, _, cap in _golden_cases()]
        rng = np.random.default_rng(8)
        d = rng.standard_normal((20, 30))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        a = rng.standard_normal((20, 70))
        a[:, ::9] = 0.0
        inputs += [(_panel_inputs(d, a), None), (_panel_inputs(d, a), 3),
                   (_invariance_panel(40), None), (_invariance_panel(40), 4)]
        for (gram, dta, col_sq), cap in inputs:
            got = lockstep_columns(gram, dta, col_sq, eps, cap)
            want = _reference_panel(gram, dta, col_sq, eps, cap)
            for j, (g, w) in enumerate(zip(got, want)):
                _same_result(g, w, f"eps={eps}, cap={cap}, column {j}")


@pytest.mark.parametrize("name", registered_backend_names())
class TestEndToEndConsistency:
    """Serial, parallel, streaming and serve paths agree per backend."""

    def test_serial_vs_parallel_identical(self, name, union_data):
        _backend_or_skip(name)
        a, _ = union_data
        a = np.tile(a, 4)  # 640 columns: three panels, so workers fork
        rng = np.random.default_rng(9)
        d = rng.standard_normal((a.shape[0], 10))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c1, s1 = batch_omp_matrix(d, a, eps=0.4, backend=name)
        c2, s2 = batch_omp_matrix(d, a, eps=0.4, workers=2, backend=name)
        np.testing.assert_array_equal(c1.indptr, c2.indptr)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert s1.total_iterations == s2.total_iterations

    def test_streaming_matches_in_memory(self, name, union_data, tmp_path):
        _backend_or_skip(name)
        from repro.store import ColumnStore, StreamingEncoder

        a, _ = union_data
        store = ColumnStore.from_matrix(tmp_path / "store", a,
                                        chunk_width=37)
        t_mem, _ = __import__("repro.core", fromlist=["exd_transform"]) \
            .exd_transform(a, 10, 0.4, seed=3)
        enc = StreamingEncoder(store, 10, 0.4, seed=3, backend=name)
        t_str, _, _ = enc.run()
        assert enc.backend == name
        np.testing.assert_array_equal(t_mem.dictionary.atoms,
                                      t_str.dictionary.atoms)
        np.testing.assert_array_equal(t_mem.coefficients.indices,
                                      t_str.coefficients.indices)
        if name == "numpy":   # in-memory ref ran the process default
            np.testing.assert_array_equal(t_mem.coefficients.data,
                                          t_str.coefficients.data)
        else:
            np.testing.assert_allclose(t_mem.coefficients.data,
                                       t_str.coefficients.data,
                                       rtol=COEF_RTOL, atol=COEF_ATOL)

    def test_coefficients_meet_eps(self, name, union_data):
        kernel = _backend_or_skip(name)
        a, _ = union_data
        rng = np.random.default_rng(9)
        d = rng.standard_normal((a.shape[0], 12))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c, stats = batch_omp_matrix(d, a, eps=0.5, backend=kernel)
        if stats.converged_columns == stats.columns:
            err = np.linalg.norm(a - d @ c.toarray(), axis=0)
            norms = np.linalg.norm(a, axis=0)
            assert np.all(err <= 0.5 * norms + 1e-9)


@pytest.mark.parametrize("name", registered_backend_names())
class TestDictOperatorConformance:
    """Backends see identical (G, DᵀA) whether D arrives as a dense
    array or as a DictOperator whose factor chain is exact — so their
    outputs must be identical too, per backend.
    """

    @staticmethod
    def _exact_operator(m, seed=0):
        from repro.core.dictionary import Dictionary
        from repro.core.fastdict import FastDict, FastFactor

        rng = np.random.default_rng(seed)
        fd = FastDict((FastFactor.diagonal(0.5 + rng.random(m)),
                       FastFactor.permutation(rng.permutation(m))))
        dense = Dictionary(fd.atoms.copy(),
                           np.arange(m, dtype=np.int64))
        return fd, dense

    def test_operator_precompute_matches_dense(self, name):
        _backend_or_skip(name)
        fd, dense = self._exact_operator(24, seed=5)
        rng = np.random.default_rng(6)
        a = fd.atoms @ rng.standard_normal((24, 90))
        a += 0.05 * rng.standard_normal(a.shape)
        c1, s1 = batch_omp_matrix(dense.atoms, a, 0.3, backend=name)
        c2, s2 = batch_omp_matrix(fd, a, 0.3, backend=name)
        np.testing.assert_array_equal(c1.indptr, c2.indptr)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert s1.total_iterations == s2.total_iterations

    def test_operator_serial_vs_parallel(self, name):
        _backend_or_skip(name)
        fd, _ = self._exact_operator(24, seed=7)
        rng = np.random.default_rng(8)
        # Three panels: the workers run the operator's apply_t themselves.
        a = rng.standard_normal((24, 2 * ENCODE_BLOCK_COLS + 1))
        c1, _ = batch_omp_matrix(fd, a, 0.4, backend=name)
        c2, _ = batch_omp_matrix(fd, a, 0.4, workers=2, backend=name)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
