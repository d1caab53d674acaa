"""FastDict: sparse-factor fast-transform dictionaries.

Covers the DictOperator thread end to end:

* factor/operator algebra (apply, apply_t, gram, nnz accounting,
  serialisation);
* the **exact-factorisation bit-identity contract**: when the factor
  chain multiplies out to exactly the dense atoms (scaled permutations),
  every encode path — serial, parallel, streaming, serving micro-batch —
  returns atom sequences and coefficients bitwise equal to the dense
  dictionary's;
* the **approximate-fit error bound**: encoding against a fitted
  ``D̂ = S₁…S_J`` with residual ``ρ = ‖D−D̂‖_F/‖D‖_F`` reconstructs the
  original data to ``ε + ρ·‖D̂C‖_F/‖A‖_F`` (triangle inequality), which
  the suite checks in its documented form;
* factored Eq. 2–4 cost-model terms;
* evolve-path growth of a factored base into a block operator;
* persistence (io v2, streaming checkpoints) and the serve registry.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.cost_model import (
    CostModel,
    memory_cost_per_node,
    runtime_cost,
)
from repro.core.dictionary import DictOperator, Dictionary
from repro.core.exd import exd_transform
from repro.core.fastdict import (
    BlockDictOperator,
    FastDict,
    FastDictConfig,
    FastFactor,
    as_fast_dict_config,
    fit_fast_dict,
    operator_from_arrays,
    operator_to_arrays,
)
from repro.core.gram import TransformedGramOperator
from repro.errors import ValidationError
from repro.linalg.norms import relative_frobenius_error
from repro.linalg.omp import batch_omp_matrix, blocked_dta
from repro.linalg.parallel_omp import encode_columns
from repro.platform import platform_by_name


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def exact_fastdict(m: int, seed: int = 0):
    """A FastDict whose factor product is *exactly* a dense dictionary.

    Uses a scaled permutation (diagonal × permutation): both factors
    apply through scatter + a single multiply per entry, which is
    bitwise equal to the dense GEMM of the materialised matrix.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    scales = 0.5 + rng.random(m)
    fd = FastDict((FastFactor.diagonal(scales),
                   FastFactor.permutation(perm)))
    dense = Dictionary(fd.atoms.copy(), np.arange(m, dtype=np.int64))
    return fd, dense


@pytest.fixture(scope="module")
def coherent_data():
    """Structured data whose sampled atoms factor well (M=48, N=700)."""
    rng = np.random.default_rng(5)
    base = rng.standard_normal((48, 10))
    a = base @ rng.standard_normal((10, 700))
    a += 0.02 * rng.standard_normal(a.shape)
    return a


# ----------------------------------------------------------------------
# factor / operator algebra
# ----------------------------------------------------------------------
class TestFastFactor:
    def test_permutation_and_diagonal_materialize(self):
        perm = np.array([2, 0, 3, 1])
        p = FastFactor.permutation(perm)
        mat = p.materialize()
        x = np.arange(4.0).reshape(4, 1)
        np.testing.assert_array_equal(p.apply(x), mat @ x)
        np.testing.assert_array_equal(p.apply_t(x), mat.T @ x)
        d = FastFactor.diagonal(np.array([2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(d.materialize(),
                                      np.diag([2.0, 3.0, 4.0]))

    def test_apply_matches_materialized_matrix(self, rng):
        fd = fit_fast_dict(
            Dictionary(rng.standard_normal((24, 36)),
                       np.arange(36, dtype=np.int64)),
            rc=0.7, seed=0)
        for f in fd.factors:
            mat = f.materialize()
            x = rng.standard_normal((f.shape[1], 3))
            np.testing.assert_allclose(f.apply(x), mat @ x,
                                       rtol=1e-12, atol=1e-12)
            y = rng.standard_normal((f.shape[0], 3))
            np.testing.assert_allclose(f.apply_t(y), mat.T @ y,
                                       rtol=1e-12, atol=1e-12)

    def test_nnz_counts_live_entries_only(self):
        fd, _ = exact_fastdict(8)
        for f in fd.factors:
            assert f.nnz == np.count_nonzero(f.padding_mask())
            assert f.nnz == 8  # permutation/diagonal: one per column

    def test_pickle_roundtrip(self, rng):
        fd, _ = exact_fastdict(12, seed=3)
        f = fd.factors[0]
        f2 = pickle.loads(pickle.dumps(f))
        x = rng.standard_normal((12, 2))
        np.testing.assert_array_equal(f.apply(x), f2.apply(x))


class TestFastDictOperator:
    def test_satisfies_dict_operator_protocol(self):
        fd, dense = exact_fastdict(6)
        assert isinstance(fd, DictOperator)
        assert isinstance(dense, DictOperator)

    def test_atoms_is_factor_product(self, rng):
        fd = fit_fast_dict(
            Dictionary(rng.standard_normal((16, 24)),
                       np.arange(24, dtype=np.int64)),
            rc=0.8, seed=1)
        prod = np.eye(24)
        for f in reversed(fd.factors):
            prod = f.apply(prod)
        np.testing.assert_array_equal(fd.atoms, prod)

    def test_apply_routes_through_factors(self, rng):
        fd, dense = exact_fastdict(10, seed=2)
        x = rng.standard_normal((10, 4))
        np.testing.assert_array_equal(fd.apply(x), dense.atoms @ x)
        np.testing.assert_array_equal(fd.apply_t(x), dense.atoms.T @ x)
        v = rng.standard_normal(10)
        assert fd.apply(v).shape == (10,)
        assert fd.apply_t(v).shape == (10,)

    def test_gram_is_cached_and_correct(self):
        fd, dense = exact_fastdict(9)
        g = fd.gram()
        assert fd.gram() is g
        np.testing.assert_allclose(g, dense.atoms.T @ dense.atoms,
                                   rtol=1e-12, atol=1e-12)

    def test_transform_nnz_below_dense(self, coherent_data):
        t, _ = exd_transform(coherent_data, 64, 0.2, seed=3,
                             fast_dict=0.5)
        fd = t.dictionary
        assert isinstance(fd, FastDict)
        assert fd.transform_nnz < fd.m * fd.size
        assert fd.relative_complexity == fd.transform_nnz / (fd.m * fd.size)
        assert fd.memory_words == fd.transform_nnz

    def test_arrays_roundtrip(self, rng):
        fd = fit_fast_dict(
            Dictionary(rng.standard_normal((20, 30)),
                       np.arange(30, dtype=np.int64)),
            rc=0.5, levels=3, seed=4)
        kind, arrays = operator_to_arrays(fd)
        assert kind == "fastdict"
        fd2 = operator_from_arrays(kind, arrays)
        np.testing.assert_array_equal(fd.atoms, fd2.atoms)
        assert fd2.levels == fd.levels
        assert fd2.transform_nnz == fd.transform_nnz
        assert fd2.residual == fd.residual
        fd3 = pickle.loads(pickle.dumps(fd))
        np.testing.assert_array_equal(fd.atoms, fd3.atoms)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            FastDictConfig(rc=0.0)
        with pytest.raises(ValidationError):
            FastDictConfig(rc=1.5)
        with pytest.raises(ValidationError):
            FastDictConfig(levels=1)
        with pytest.raises(ValidationError):
            FastDictConfig(iters=0)
        cfg = as_fast_dict_config(0.3)
        assert cfg.rc == 0.3 and cfg.levels == 2
        assert as_fast_dict_config(cfg) is cfg


# ----------------------------------------------------------------------
# exact factorisation => bit-identity on every encode path
# ----------------------------------------------------------------------
class TestExactBitIdentity:
    M = 48

    @pytest.fixture(scope="class")
    def payload(self):
        fd, dense = exact_fastdict(self.M, seed=9)
        rng = np.random.default_rng(10)
        a = fd.atoms @ rng.standard_normal((self.M, 700))
        a += 0.05 * rng.standard_normal(a.shape)
        return fd, dense, a

    def test_serial_encode_identical_to_dense(self, payload):
        fd, dense, a = payload
        c1, s1 = batch_omp_matrix(dense.atoms, a, 0.2)
        c2, s2 = batch_omp_matrix(fd, a, 0.2)
        np.testing.assert_array_equal(c1.indptr, c2.indptr)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert s1.total_iterations == s2.total_iterations
        # transform_nnz == M·L for a dense-equivalent op, but the exact
        # chain is sparser, so the factored FLOP ledger must be smaller.
        assert s2.flops < s1.flops

    def test_parallel_encode_identical(self, payload):
        fd, _, a = payload
        c1, s1 = batch_omp_matrix(fd, a, 0.2)
        c2, s2 = batch_omp_matrix(fd, a, 0.2, workers=2)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert s1.flops == s2.flops

    def test_streaming_encode_identical(self, payload, tmp_path):
        from repro.store import ColumnStore, StreamingEncoder

        fd, dense, a = payload
        store = ColumnStore.from_matrix(tmp_path / "store", a,
                                        chunk_width=96)
        t_mem, s_mem = exd_transform(a, fd.size, 0.2, seed=1,
                                     dictionary=fd)
        enc = StreamingEncoder(store, fd.size, 0.2, seed=1,
                               dictionary=fd)
        t_str, s_str, _ = enc.run()
        np.testing.assert_array_equal(t_mem.coefficients.indices,
                                      t_str.coefficients.indices)
        np.testing.assert_array_equal(t_mem.coefficients.data,
                                      t_str.coefficients.data)
        assert s_mem.flops == s_str.flops
        # ... and both match the dense-atom encode bit for bit.
        t_dense, _ = exd_transform(a, fd.size, 0.2, seed=1,
                                   dictionary=dense)
        np.testing.assert_array_equal(t_dense.coefficients.data,
                                      t_str.coefficients.data)

    def test_serving_micro_batch_identical(self, payload):
        fd, dense, a = payload
        cols = a[:, :7]
        res_fd, _ = encode_columns(fd, cols, 0.2)
        res_dense, _ = encode_columns(dense.atoms, cols, 0.2)
        for (s1, c1, k1), (s2, c2, k2) in zip(res_fd, res_dense):
            np.testing.assert_array_equal(s1, s2)
            np.testing.assert_array_equal(c1, c2)
            assert k1 == k2

    def test_blocked_dta_operator_matches_dense(self, payload):
        fd, dense, a = payload
        np.testing.assert_array_equal(blocked_dta(fd, a),
                                      blocked_dta(dense.atoms, a))


# ----------------------------------------------------------------------
# approximate fits: documented reconstruction-error bound
# ----------------------------------------------------------------------
class TestApproximateFit:
    def test_residual_definition(self, coherent_data):
        t, _ = exd_transform(coherent_data, 64, 0.2, seed=3,
                             fast_dict=0.6)
        fd = t.dictionary
        dense, _ = exd_transform(coherent_data, 64, 0.2, seed=3)
        rho = relative_frobenius_error(dense.dictionary.atoms, fd.atoms)
        assert fd.residual == pytest.approx(rho)
        assert t.meta["fastdict_residual"] == pytest.approx(rho)

    def test_reconstruction_error_bound(self, coherent_data):
        """``‖A − D̂C‖ ≤ ε·‖A‖`` per converged column (OMP contract
        against the factored dictionary itself) — the documented bound
        for encoding through an approximate fast transform.
        """
        eps = 0.2
        t, stats = exd_transform(coherent_data, 64, eps, seed=3,
                                 fast_dict=0.6)
        err = t.transformation_error(coherent_data)
        if stats.all_converged:
            assert err <= eps + 1e-9
        col_err = np.linalg.norm(
            coherent_data - t.reconstruct(), axis=0)
        col_norm = np.linalg.norm(coherent_data, axis=0)
        # per-column form on the converged columns
        c, st = batch_omp_matrix(t.dictionary, coherent_data /
                                 np.where(col_norm == 0, 1, col_norm),
                                 eps)
        ok = st.converged_mask
        assert np.all(col_err[ok] <= eps * col_norm[ok] * (1 + 1e-9))

    def test_residual_decreases_with_rc(self, coherent_data):
        dense, _ = exd_transform(coherent_data, 64, 0.2, seed=3)
        d = dense.dictionary
        residuals = [fit_fast_dict(d, rc=rc, seed=0).residual
                     for rc in (0.15, 0.4, 0.8)]
        # monotone up to small fit noise
        assert residuals[0] >= residuals[1] * 0.95
        assert residuals[1] >= residuals[2] * 0.95
        assert residuals[2] < 0.1  # generous budget factors tightly


class TestFitFastDict:
    def test_respects_budget(self, rng):
        m, l = 64, 96
        d = Dictionary(rng.standard_normal((m, l)),
                       np.arange(l, dtype=np.int64))
        fd = fit_fast_dict(d, rc=0.25, seed=0)
        assert fd.transform_nnz <= 0.35 * m * l
        fd2 = fit_fast_dict(d, rc=0.1, seed=0)
        assert fd2.transform_nnz < fd.transform_nnz

    def test_deterministic_given_seed(self, rng):
        d = Dictionary(rng.standard_normal((24, 30)),
                       np.arange(30, dtype=np.int64))
        fd1 = fit_fast_dict(d, rc=0.5, seed=7)
        fd2 = fit_fast_dict(d, rc=0.5, seed=7)
        np.testing.assert_array_equal(fd1.atoms, fd2.atoms)

    def test_multi_level_chain_dims(self, rng):
        m, l = 32, 48
        d = Dictionary(rng.standard_normal((m, l)),
                       np.arange(l, dtype=np.int64))
        fd = fit_fast_dict(d, rc=0.6, levels=3, seed=0)
        assert fd.levels == 3
        shapes = [f.shape for f in fd.factors]
        assert shapes[0][0] == m and shapes[-1][1] == l
        for left, right in zip(shapes, shapes[1:]):
            assert left[1] == right[0]
        assert np.isfinite(fd.residual)

    def test_rejects_bad_knobs(self, rng):
        d = Dictionary(rng.standard_normal((8, 12)),
                       np.arange(12, dtype=np.int64))
        with pytest.raises(ValidationError):
            fit_fast_dict(d, rc=0.0)
        with pytest.raises(ValidationError):
            fit_fast_dict(d, levels=1)


# ----------------------------------------------------------------------
# evolve-path growth: factored base + dense extension
# ----------------------------------------------------------------------
class TestBlockOperator:
    def test_concat_matches_dense_hstack(self, rng):
        fd, dense = exact_fastdict(16, seed=4)
        ext = Dictionary(rng.standard_normal((16, 5)),
                         np.full(5, -1, dtype=np.int64))
        block = fd.concat(ext)
        assert isinstance(block, BlockDictOperator)
        assert block.size == 21
        full = np.hstack([dense.atoms, ext.atoms])
        np.testing.assert_array_equal(block.atoms, full)
        x = rng.standard_normal(21)
        np.testing.assert_allclose(block.apply(x), full @ x,
                                   rtol=1e-12, atol=1e-12)
        y = rng.standard_normal(16)
        np.testing.assert_allclose(block.apply_t(y), full.T @ y,
                                   rtol=1e-12, atol=1e-12)
        # factored base keeps its sub-dense apply cost
        assert block.transform_nnz == fd.transform_nnz + 16 * 5

    def test_extend_transform_grows_factored_base(self, rng):
        base = rng.standard_normal((48, 8))
        a = base @ rng.standard_normal((8, 300))
        a += 0.01 * rng.standard_normal(a.shape)
        t, _ = exd_transform(a, 16, 0.2, seed=3, fast_dict=0.6)
        assert isinstance(t.dictionary, FastDict)
        from repro.core.evolve import extend_transform

        a_new = rng.standard_normal((48, 30))
        res = extend_transform(t, a_new, seed=5)
        assert res.dictionary_grew
        grown = res.transform.dictionary
        assert isinstance(grown, BlockDictOperator)
        assert grown.base is t.dictionary
        # a second growth extends the dense block, base stays factored
        res2 = extend_transform(res.transform,
                                rng.standard_normal((48, 10)), seed=6)
        if res2.dictionary_grew:
            assert isinstance(res2.transform.dictionary,
                              BlockDictOperator)
            assert res2.transform.dictionary.base is t.dictionary
        # the combined transform still reconstructs reasonably (the
        # approximate factorisation and L < M leave some unconverged
        # columns; structure, not tightness, is under test here)
        combined = np.hstack([a, a_new])
        err = res.transform.transformation_error(combined)
        assert np.isfinite(err) and err <= 0.5

    def test_block_arrays_roundtrip(self, rng):
        fd, _ = exact_fastdict(12, seed=8)
        ext = Dictionary(rng.standard_normal((12, 3)),
                         np.full(3, -1, dtype=np.int64))
        block = fd.concat(ext)
        kind, arrays = operator_to_arrays(block)
        assert kind == "block"
        block2 = operator_from_arrays(kind, arrays)
        np.testing.assert_array_equal(block.atoms, block2.atoms)
        assert block2.transform_nnz == block.transform_nnz


# ----------------------------------------------------------------------
# factored Eq. 2-4 terms and the RC-aware tuner
# ----------------------------------------------------------------------
class TestFactoredCostModel:
    def test_default_reproduces_dense(self):
        assert runtime_cost(100, 200, 5000, 4, 1.5) == \
            runtime_cost(100, 200, 5000, 4, 1.5, transform_nnz=100 * 200)
        assert memory_cost_per_node(100, 200, 5000, 1000, 4) == \
            memory_cost_per_node(100, 200, 5000, 1000, 4,
                                 transform_nnz=100 * 200)

    def test_factored_lowers_arithmetic_not_comm(self):
        m, l, nnz, p, rbf = 100, 200, 5000, 4, 1.5
        dense = runtime_cost(m, l, nnz, p, rbf)
        fast = runtime_cost(m, l, nnz, p, rbf, transform_nnz=m * l // 4)
        # the difference is exactly the arithmetic saving; the
        # min(M, L)·R_bf communication term is shape-bound and unchanged
        assert dense - fast == pytest.approx((m * l - m * l // 4) / p)

    def test_factored_memory(self):
        got = memory_cost_per_node(100, 200, 5000, 1000, 4,
                                   transform_nnz=3000)
        assert got == pytest.approx(3000 + (5000 + 1000) / 4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            runtime_cost(10, 10, 0, 1, 1.0, transform_nnz=-1)

    def test_cost_model_threads_transform_nnz(self):
        cm = CostModel(platform_by_name("2x8"))
        assert cm.time(100, 200, 5000, transform_nnz=4000) < \
            cm.time(100, 200, 5000)
        assert cm.objective("memory", 100, 200, 5000, 1000,
                            transform_nnz=4000) < \
            cm.objective("memory", 100, 200, 5000, 1000)
        assert cm.time_seconds(100, 200, 5000, transform_nnz=4000) < \
            cm.time_seconds(100, 200, 5000)


# ----------------------------------------------------------------------
# gram operator with a factored dictionary (case 2: L > M)
# ----------------------------------------------------------------------
class TestGramOperatorFactored:
    def test_case2_routes_through_operator(self, coherent_data):
        from repro.core.transform import TransformedData

        t, _ = exd_transform(coherent_data, 64, 0.2, seed=3,
                             fast_dict=0.5)
        assert t.l > t.m
        op = TransformedGramOperator(t, precompute_gram=False)
        x = np.random.default_rng(0).standard_normal(t.n)
        got = op(x)
        dense_atoms = t.dictionary.atoms
        want = t.coefficients.rmatvec(
            dense_atoms.T @ (dense_atoms @ t.coefficients.matvec(x)))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        # same transform with the dictionary densified: identical math,
        # but the ledger bills M·L instead of the factor nnz
        t_dense = TransformedData(
            dictionary=Dictionary(dense_atoms, t.dictionary.indices),
            coefficients=t.coefficients, eps=t.eps, method=t.method)
        op_dense = TransformedGramOperator(t_dense,
                                           precompute_gram=False)
        op_dense(x)
        assert op.flops < op_dense.flops

    def test_projection_through_operator(self, coherent_data):
        t, _ = exd_transform(coherent_data, 64, 0.2, seed=3,
                             fast_dict=0.5)
        x = np.random.default_rng(1).standard_normal(t.n)
        want = t.dictionary.atoms @ t.coefficients.matvec(x)
        np.testing.assert_allclose(t.project_vector(x), want,
                                   rtol=1e-9, atol=1e-9)
        y = np.random.default_rng(2).standard_normal(t.m)
        want_adj = t.coefficients.rmatvec(t.dictionary.atoms.T @ y)
        np.testing.assert_allclose(t.project_adjoint(y), want_adj,
                                   rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# persistence: io v2 and streaming checkpoints
# ----------------------------------------------------------------------
class TestPersistence:
    def test_save_load_fastdict_transform(self, coherent_data, tmp_path):
        from repro.core.io import load_transform, save_transform

        t, _ = exd_transform(coherent_data, 64, 0.2, seed=3,
                             fast_dict=0.6)
        path = save_transform(t, tmp_path / "fast")
        t2 = load_transform(path)
        assert isinstance(t2.dictionary, FastDict)
        np.testing.assert_array_equal(t.dictionary.atoms,
                                      t2.dictionary.atoms)
        np.testing.assert_array_equal(t.coefficients.data,
                                      t2.coefficients.data)
        assert t2.meta["fastdict_rc"] == t.meta["fastdict_rc"]
        assert t2.dictionary.transform_nnz == t.dictionary.transform_nnz

    def test_dense_transform_still_v1(self, coherent_data, tmp_path):
        import json

        from repro.core.io import save_transform

        t, _ = exd_transform(coherent_data, 64, 0.2, seed=3)
        path = save_transform(t, tmp_path / "dense")
        with np.load(path) as blob:
            header = json.loads(bytes(blob["header"]).decode("utf-8"))
        assert header["format_version"] == 1
        assert "dictionary_kind" not in header

    def test_streaming_matches_in_memory(self, coherent_data, tmp_path):
        from repro.store import ColumnStore, StreamingEncoder

        store = ColumnStore.from_matrix(tmp_path / "store",
                                        coherent_data, chunk_width=128)
        t_mem, s_mem = exd_transform(coherent_data, 64, 0.2, seed=7,
                                     fast_dict=0.6)
        t_str, s_str, _ = StreamingEncoder(store, 64, 0.2, seed=7,
                                           fast_dict=0.6).run()
        assert isinstance(t_str.dictionary, FastDict)
        np.testing.assert_array_equal(t_mem.coefficients.indices,
                                      t_str.coefficients.indices)
        np.testing.assert_array_equal(t_mem.coefficients.data,
                                      t_str.coefficients.data)
        assert s_mem.flops == s_str.flops
        assert t_mem.meta == t_str.meta

    def test_checkpoint_resume_identical(self, coherent_data, tmp_path):
        from repro.store import ColumnStore, StreamingEncoder

        store = ColumnStore.from_matrix(tmp_path / "store",
                                        coherent_data, chunk_width=128)
        ck = tmp_path / "ck"
        t1, _, _ = StreamingEncoder(store, 64, 0.2, seed=7,
                                    fast_dict=0.6,
                                    checkpoint_dir=ck).run()
        t2, _, rep = StreamingEncoder(store, 64, 0.2, seed=7,
                                      fast_dict=0.6,
                                      checkpoint_dir=ck).run(resume=True)
        assert rep.resumed and rep.blocks_encoded == 0
        assert isinstance(t2.dictionary, FastDict)
        np.testing.assert_array_equal(t1.dictionary.atoms,
                                      t2.dictionary.atoms)
        np.testing.assert_array_equal(t1.coefficients.data,
                                      t2.coefficients.data)

    def test_checkpoint_refuses_param_mismatch(self, coherent_data,
                                               tmp_path):
        from repro.errors import CheckpointError
        from repro.store import ColumnStore, StreamingEncoder

        store = ColumnStore.from_matrix(tmp_path / "store",
                                        coherent_data, chunk_width=128)
        ck = tmp_path / "ck"
        StreamingEncoder(store, 64, 0.2, seed=7, fast_dict=0.6,
                         checkpoint_dir=ck).run()
        with pytest.raises(CheckpointError, match="fast_dict"):
            StreamingEncoder(store, 64, 0.2, seed=7,
                             checkpoint_dir=ck).run(resume=True)


# ----------------------------------------------------------------------
# serve registry with a factored generation
# ----------------------------------------------------------------------
class TestServeFactored:
    def test_registry_hot_swap_dense_to_factored(self, coherent_data):
        from repro.serve.registry import DictionaryRegistry

        t_dense, _ = exd_transform(coherent_data, 64, 0.2, seed=3)
        t_fast, _ = exd_transform(coherent_data, 64, 0.2, seed=3,
                                  fast_dict=0.6)
        reg = DictionaryRegistry()
        g1 = reg.add_transform("acme", t_dense)
        d1 = g1.describe()
        assert d1["transform_nnz"] == t_dense.m * t_dense.l
        assert d1["relative_complexity"] == 1.0
        g2 = reg.add_transform("acme", t_fast)
        d2 = g2.describe()
        assert d2["transform_nnz"] < d1["transform_nnz"]
        assert d2["relative_complexity"] < 1.0
        # the default pointer swapped atomically to the factored gen
        assert reg.resolve("acme").number == g2.number
        # the factored generation's gram was warmed at load
        assert t_fast.dictionary.gram() is t_fast.dictionary.gram()

    def test_micro_batch_matches_bulk_encode(self, coherent_data):
        t, _ = exd_transform(coherent_data, 64, 0.2, seed=3,
                             fast_dict=0.6)
        cols = coherent_data[:, :5]
        results, _ = encode_columns(t.dictionary, cols, 0.2)
        c_full, _ = batch_omp_matrix(t.dictionary, cols, 0.2)
        dense_c = c_full.to_dense()
        for j, (support, coef, _ok) in enumerate(results):
            v = np.zeros(t.l)
            v[support] = coef
            np.testing.assert_array_equal(v, dense_c[:, j])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_transform_fast_dict_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core import load_transform

        out = tmp_path / "t.npz"
        assert main(["transform", "--dataset", "salina", "--n", "256",
                     "--size", "48", "--eps", "0.15",
                     "--fast-dict", "0.5", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "fast dictionary" in text
        t = load_transform(out)
        assert isinstance(t.dictionary, FastDict)
        assert t.dictionary.transform_nnz < t.m * t.l

    def test_fit_fast_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core import load_transform

        dense = tmp_path / "dense.npz"
        assert main(["transform", "--dataset", "salina", "--n", "256",
                     "--size", "48", "--eps", "0.15",
                     "--out", str(dense)]) == 0
        fast = tmp_path / "fast.npz"
        assert main(["fit-fast", "--transform", str(dense),
                     "--rc", "0.5", "--out", str(fast)]) == 0
        text = capsys.readouterr().out
        assert "modeled apply speedup" in text
        t = load_transform(fast)
        assert isinstance(t.dictionary, FastDict)

    def test_fast_dict_rejects_distributed(self, capsys):
        from repro.cli import main

        assert main(["transform", "--dataset", "salina", "--n", "128",
                     "--size", "32", "--fast-dict", "0.5",
                     "--distributed"]) == 1
        assert "--distributed" in capsys.readouterr().err
