"""Conformance suite for the Batch-OMP kernel.

The kernel (:class:`~repro.linalg.kernels.numpy_ref.NumpyBackend`) is
held to its per-column oracle
(:func:`~repro.linalg.kernels.numpy_ref.batch_omp_column`) bit for bit,
and to **grouping invariance**: a column's bits do not depend on the
other columns of the call or on its width.  The suite also pins the
end-to-end invariant that serial, parallel, streaming and serving paths
agree, and the two things perfbench relies on: the kernel's name and a
class-level wrapper on ``batch_omp_columns`` seeing every panel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DictionaryError, ValidationError
from repro.linalg import batch_omp_matrix
from repro.linalg.kernels import resolve_backend
from repro.linalg.kernels.numpy_ref import batch_omp_column
from repro.linalg.omp import ENCODE_BLOCK_COLS

#: Every test of a class marked with this runs once, on the one kernel,
#: and its id names the kernel.
on_kernel = pytest.mark.parametrize("kernel", [resolve_backend()],
                                    ids=lambda k: k.name)


def _reference_panel(gram, dta, col_sq, eps, max_atoms):
    return [batch_omp_column(gram, dta[:, j], float(col_sq[j]), eps,
                             max_atoms)
            for j in range(dta.shape[1])]


def _golden_cases():
    """Deterministic (dictionary, signals, eps, max_atoms) cases.

    Well-conditioned by construction (random gaussian atoms, exact
    sparse combinations), so the argmax sequence has no near-ties.
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


@on_kernel
class TestBackendConformance:
    """Contract: the kernel reproduces its per-column oracle exactly."""

    @staticmethod
    def _golden_runs(kernel):
        for d, a, eps, cap in _golden_cases():
            gram, dta, col_sq = _panel_inputs(d, a)
            got = kernel.batch_omp_columns(gram, dta, col_sq, eps, cap)
            want = _reference_panel(gram, dta, col_sq, eps, cap)
            assert len(got) == len(want) == a.shape[1]
            for j, (g, w) in enumerate(zip(got, want)):
                yield g, w, f"eps={eps}, cap={cap}, column {j}"

    def test_golden_cases_match_reference(self, kernel):
        # The discrete half of the result: which atoms, in which order,
        # after how many iterations, and whether the column converged.
        for (gs, _, _, gi, gok), (ws, _, _, wi, wok), where in \
                self._golden_runs(kernel):
            gs = np.asarray(gs)
            assert gs.dtype == np.int64, where
            np.testing.assert_array_equal(
                gs, ws, err_msg=f"{where}: atom-selection sequence diverged")
            assert (gi, bool(gok)) == (wi, bool(wok)), where

    def test_numpy_backend_is_bit_exact(self, kernel):
        # The floating-point half: coefficients and residual, bit for bit.
        for (_, gc, gr, _, _), (_, wc, wr, _, _), where in \
                self._golden_runs(kernel):
            gc = np.asarray(gc)
            assert gc.dtype == np.float64, where
            assert gc.tobytes() == np.asarray(wc).tobytes(), where
            assert gr == wr, where

    def test_zero_columns(self, kernel):
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

    def test_dependent_atoms_are_banned(self, kernel):
        # A dictionary with a duplicated atom: once one copy is
        # selected, the other has zero Cholesky pivot and must be
        # banned, not selected (which would blow up the solve).
        rng = np.random.default_rng(3)
        base = rng.standard_normal((12, 4))
        base /= np.linalg.norm(base, axis=0, keepdims=True)
        d = np.concatenate([base, base[:, :2]], axis=1)  # atoms 4,5 dup 0,1
        a = base @ np.array([[1.0], [0.5], [0.25], [0.1]])
        gram, dta, col_sq = _panel_inputs(d, a)
        results = kernel.batch_omp_columns(gram, dta, col_sq, 0.0, None)
        (support, *_), = results
        support = np.asarray(support)
        # never both copies of a duplicated atom
        assert not ({0, 4} <= set(support.tolist()))
        assert not ({1, 5} <= set(support.tolist()))
        want = _reference_panel(gram, dta, col_sq, 0.0, None)[0]
        _same_result(results[0], want, "duplicated atoms")

    def test_max_atoms_cap(self, kernel):
        d, a, _, _ = _golden_cases()[0]
        gram, dta, col_sq = _panel_inputs(d, a)
        for cap in (0, 1, 2):
            for support, _, _, it, _ in kernel.batch_omp_columns(
                    gram, dta, col_sq, 0.0, cap):
                assert np.asarray(support).size <= cap
                assert it <= cap

    def test_strict_failure_on_smallest_column(self, kernel):
        # End-to-end: under strict mode the orchestration layer raises
        # for the first failing column of the kernel's panel.
        d = np.array([[1.0], [0.0]])
        a = np.array([[1.0, 0.5], [1.0, 0.5]])
        with pytest.raises(DictionaryError) as exc:
            batch_omp_matrix(d, a, eps=0.01, strict=True)
        assert "eps" in str(exc.value)


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


@on_kernel
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
    def test_every_grouping_gives_the_same_bits(self, kernel, cap):
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
                _same_result(got[j], want[j], f"{label}, column {j}")

    def test_numpy_factor_split_gives_the_same_bits(self, kernel,
                                                    monkeypatch):
        """A panel whose stacked Cholesky block outgrows its byte bound is
        finished in halves; the halves must reproduce the whole."""
        from repro.linalg.kernels import numpy_ref

        panel = _invariance_panel(self.N)
        want = self._run(kernel, panel, np.arange(self.N), None)
        monkeypatch.setattr(numpy_ref, "FACTOR_BLOCK_BYTES", 4096)
        got = self._run(kernel, panel, np.arange(self.N), None)
        for j in range(self.N):
            _same_result(got[j], want[j], f"split, column {j}")


class TestLockstepOracle:
    """The lockstep loop reproduces the per-column loop bit for bit when
    called directly — the kernel routes narrow calls (most golden cases)
    to the per-column loop itself."""

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


@on_kernel
class TestEndToEndConsistency:
    """Serial, parallel and streaming encodes agree bit for bit."""

    def test_serial_vs_parallel_identical(self, kernel, union_data):
        a, _ = union_data
        a = np.tile(a, 4)  # 640 columns: three panels, so workers fork
        rng = np.random.default_rng(9)
        d = rng.standard_normal((a.shape[0], 10))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c1, s1 = batch_omp_matrix(d, a, eps=0.4)
        c2, s2 = batch_omp_matrix(d, a, eps=0.4, workers=2)
        np.testing.assert_array_equal(c1.indptr, c2.indptr)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert s1.total_iterations == s2.total_iterations

    def test_streaming_matches_in_memory(self, kernel, union_data,
                                         tmp_path):
        from repro.store import ColumnStore, StreamingEncoder

        a, _ = union_data
        store = ColumnStore.from_matrix(tmp_path / "store", a,
                                        chunk_width=37)
        t_mem, _ = __import__("repro.core", fromlist=["exd_transform"]) \
            .exd_transform(a, 10, 0.4, seed=3)
        t_str, _, _ = StreamingEncoder(store, 10, 0.4, seed=3).run()
        np.testing.assert_array_equal(t_mem.dictionary.atoms,
                                      t_str.dictionary.atoms)
        np.testing.assert_array_equal(t_mem.coefficients.indices,
                                      t_str.coefficients.indices)
        np.testing.assert_array_equal(t_mem.coefficients.data,
                                      t_str.coefficients.data)

    def test_coefficients_meet_eps(self, kernel, union_data):
        a, _ = union_data
        rng = np.random.default_rng(9)
        d = rng.standard_normal((a.shape[0], 12))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c, stats = batch_omp_matrix(d, a, eps=0.5)
        if stats.converged_columns == stats.columns:
            err = np.linalg.norm(a - d @ c.toarray(), axis=0)
            norms = np.linalg.norm(a, axis=0)
            assert np.all(err <= 0.5 * norms + 1e-9)


@on_kernel
class TestDictOperatorConformance:
    """The kernel sees identical (G, DᵀA) whether D arrives as a dense
    array or as a DictOperator whose factor chain is exact — so its
    outputs must be identical too.
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

    def test_operator_precompute_matches_dense(self, kernel):
        fd, dense = self._exact_operator(24, seed=5)
        rng = np.random.default_rng(6)
        a = fd.atoms @ rng.standard_normal((24, 90))
        a += 0.05 * rng.standard_normal(a.shape)
        c1, s1 = batch_omp_matrix(dense.atoms, a, 0.3)
        c2, s2 = batch_omp_matrix(fd, a, 0.3)
        np.testing.assert_array_equal(c1.indptr, c2.indptr)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert s1.total_iterations == s2.total_iterations

    def test_operator_serial_vs_parallel(self, kernel):
        fd, _ = self._exact_operator(24, seed=7)
        rng = np.random.default_rng(8)
        # Three panels: the workers run the operator's apply_t themselves.
        a = rng.standard_normal((24, 2 * ENCODE_BLOCK_COLS + 1))
        c1, _ = batch_omp_matrix(fd, a, 0.4)
        c2, _ = batch_omp_matrix(fd, a, 0.4, workers=2)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)


class TestBenchmarkContract:
    """perfbench records ``resolve_backend(None).name`` in every run's
    fingerprint and traces the kernel by wrapping ``batch_omp_columns``
    on the kernel's class, so every encode must reach the kernel through
    that class attribute."""

    def test_fingerprint_names_the_one_kernel(self):
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend(None) is resolve_backend()

    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    def test_any_named_kernel_is_refused(self, backend):
        with pytest.raises(ValidationError):
            resolve_backend(backend)

    def test_class_wrapper_sees_every_panel(self, monkeypatch, tmp_path):
        from repro.linalg.parallel_omp import encode_columns
        from repro.store import ColumnStore, StreamingEncoder

        cls = type(resolve_backend(None))
        original = cls.batch_omp_columns
        seen = {"panels": 0, "columns": 0, "iterations": 0}

        def traced(self, gram, dta_panel, col_sq, eps, max_atoms):
            out = original(self, gram, dta_panel, col_sq, eps, max_atoms)
            seen["panels"] += 1
            seen["columns"] += dta_panel.shape[1]
            seen["iterations"] += sum(int(r[3]) for r in out)
            return out

        def check(n, iterations):
            assert seen == {"panels": -(-n // ENCODE_BLOCK_COLS),
                            "columns": n, "iterations": iterations}
            seen.update(panels=0, columns=0, iterations=0)

        monkeypatch.setattr(cls, "batch_omp_columns", traced)
        rng = np.random.default_rng(4)
        d = rng.standard_normal((16, 24))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        a = rng.standard_normal((16, 2 * ENCODE_BLOCK_COLS + 40))

        _, stats = batch_omp_matrix(d, a, 0.2)
        check(a.shape[1], stats.total_iterations)
        _, stats = encode_columns(d, a[:, :3], 0.2)
        check(3, stats.total_iterations)
        store = ColumnStore.from_matrix(tmp_path / "store", a,
                                        chunk_width=64)
        _, stats, _ = StreamingEncoder(store, 24, 0.2, seed=1).run()
        check(a.shape[1], stats.omp_iterations)
        assert stats.omp_iterations > 0
