"""Drift-aware online maintenance (``repro.online``): atom usage
statistics, Gram-staleness regression tests, the Mensch/Mairal
surrogate updater, drift detection, sketched tuning, and the end-to-end
maintainer."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import observability as obs
from repro.core import CostModel, exd_transform, tune_dictionary_size
from repro.core.dictionary import Dictionary, sample_dictionary
from repro.data.subspaces import union_of_subspaces
from repro.errors import ValidationError
from repro.linalg.omp import batch_omp_matrix
from repro.linalg.parallel_omp import GRAM_CACHE, cached_gram
from repro.online import (
    AlphaCurve,
    AtomStats,
    DriftConfig,
    DriftMonitor,
    MaintenanceConfig,
    OnlineMaintainer,
    OnlineUpdateConfig,
    OnlineUpdater,
    SketchConfig,
    fit_alpha_curve,
    sketch_store_columns,
    sparse_projection,
    tune_dictionary_size_sketched,
)
from repro.platform import platform_by_name
from repro.store import ColumnStore

M, N, L, EPS = 32, 220, 24, 0.2


@pytest.fixture(scope="module")
def data():
    a, _ = union_of_subspaces(M, N, n_subspaces=4, dim=3, noise=0.01,
                              seed=7)
    return a


@pytest.fixture(scope="module")
def dictionary(data):
    return sample_dictionary(data, L, seed=7)


@pytest.fixture(autouse=True)
def clean_gram_cache():
    GRAM_CACHE.clear()
    yield
    GRAM_CACHE.clear()


# ----------------------------------------------------------------------
# AtomStats: the accumulator itself
# ----------------------------------------------------------------------
class TestAtomStats:
    def test_record_matches_bincount(self, data, dictionary):
        c, _ = batch_omp_matrix(dictionary.atoms, data, EPS)
        stats = AtomStats(L)
        stats.record(c)
        expect_counts = np.bincount(c.indices, minlength=L)
        expect_abs = np.bincount(c.indices, weights=np.abs(c.data),
                                 minlength=L)
        np.testing.assert_array_equal(stats.counts, expect_counts)
        np.testing.assert_allclose(stats.abs_coef_sum, expect_abs)
        assert stats.columns == N
        assert stats.generation == 1
        used = np.unique(c.indices)
        assert (stats.last_used[used] == 1).all()

    def test_dead_atoms_and_reset(self):
        stats = AtomStats(4)
        stats.counts[:] = [0, 3, 1, 0]
        np.testing.assert_array_equal(stats.dead_atoms(), [0, 3])
        np.testing.assert_array_equal(stats.dead_atoms(min_count=2),
                                      [0, 2, 3])
        stats.abs_coef_sum[1] = 2.5
        stats.last_used[1] = 7
        stats.reset_atom(1)
        assert stats.counts[1] == 0
        assert stats.abs_coef_sum[1] == 0.0
        assert stats.last_used[1] == -1

    def test_summary_digest(self, data, dictionary):
        c, _ = batch_omp_matrix(dictionary.atoms, data, EPS)
        stats = AtomStats(L)
        stats.record(c)
        s = stats.summary(top_k=3)
        assert s["atoms"] == L and s["columns"] == N
        assert s["selections"] == int(stats.counts.sum()) == c.nnz
        assert len(s["top_atoms"]) <= 3
        top = s["top_atoms"][0]
        assert top["count"] == int(stats.counts.max())


# ----------------------------------------------------------------------
# Gram staleness: every atom mutation must invalidate deterministically
# ----------------------------------------------------------------------
class TestGramInvalidation:
    def test_invalidate_by_array_and_by_carrier(self, dictionary):
        cached_gram(dictionary.atoms)
        assert GRAM_CACHE.invalidate(dictionary.atoms) is True
        assert GRAM_CACHE.invalidate(dictionary.atoms) is False
        cached_gram(dictionary.atoms)
        # a Dictionary carrier resolves to its atoms array
        assert GRAM_CACHE.invalidate(dictionary) is True

    def test_refresh_never_serves_stale_gram(self, data, dictionary):
        """Regression: an in-place block-coordinate refresh must evict
        the cached G = DᵀD at mutation time — the next lookup recomputes
        from the new atoms."""
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        before = cached_gram(upd.atoms)
        np.testing.assert_allclose(before, upd.atoms.T @ upd.atoms)
        c, _ = batch_omp_matrix(upd.atoms, data, EPS)
        upd.observe(data, c)
        assert upd.refresh_atoms() > 0
        after = cached_gram(upd.atoms)
        np.testing.assert_allclose(after, upd.atoms.T @ upd.atoms)
        assert not np.array_equal(after, before)

    def test_evict_dead_never_serves_stale_gram(self, data, dictionary):
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        cached_gram(upd.atoms)
        replaced = upd.evict_dead(np.array([0, 1]), data[:, :2],
                                  source_indices=np.array([0, 1]))
        assert replaced == [0, 1]
        np.testing.assert_allclose(cached_gram(upd.atoms),
                                   upd.atoms.T @ upd.atoms)

    def test_encode_after_refresh_uses_new_atoms(self, data, dictionary):
        """End to end: encodes bracketing a refresh must each match a
        cold encode against the atoms of that moment (no torn Gram)."""
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        c0, _ = batch_omp_matrix(upd.atoms, data, EPS)
        upd.observe(data, c0)
        upd.refresh_atoms()
        c1, _ = batch_omp_matrix(upd.atoms, data, EPS)
        cold, _ = batch_omp_matrix(upd.atoms.copy(), data, EPS)
        np.testing.assert_array_equal(c1.data, cold.data)
        np.testing.assert_array_equal(c1.indices, cold.indices)


# ----------------------------------------------------------------------
# The surrogate updater
# ----------------------------------------------------------------------
class TestOnlineUpdater:
    def test_observe_accumulates_surrogates(self, data, dictionary):
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        c, _ = batch_omp_matrix(upd.atoms, data, EPS)
        dense = c.to_dense()
        upd.observe(data, c)
        np.testing.assert_allclose(upd.a_t, dense @ dense.T)
        np.testing.assert_allclose(upd.b_t, data @ dense.T)
        assert upd.minibatches == 1 and upd.columns_seen == N

    def test_forgetting_decays_history(self, data, dictionary):
        cfg = OnlineUpdateConfig(forgetting=0.5)
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices, config=cfg)
        c, _ = batch_omp_matrix(upd.atoms, data, EPS)
        dense = c.to_dense()
        upd.observe(data, c)
        upd.observe(data, c)
        np.testing.assert_allclose(upd.a_t, 1.5 * dense @ dense.T)

    def test_refresh_improves_surrogate_fit(self, data, dictionary):
        """One block-coordinate sweep must not increase the surrogate
        objective 0.5·tr(DᵀD A) − tr(DᵀB) (it exactly minimises each
        coordinate block, up to the norm re-projection)."""
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        c, _ = batch_omp_matrix(upd.atoms, data, EPS)
        upd.observe(data, c)

        def surrogate(d):
            return (0.5 * np.trace(d.T @ d @ upd.a_t)
                    - np.trace(d.T @ upd.b_t))
        before = surrogate(upd.atoms)
        upd.refresh_atoms()
        assert surrogate(upd.atoms) <= before + 1e-9

    def test_refresh_preserves_atom_norms(self, data, dictionary):
        """ExD atoms are data columns, not unit vectors: the refresh
        projects onto the incumbent norm scale."""
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        norms_before = np.linalg.norm(upd.atoms, axis=0)
        c, _ = batch_omp_matrix(upd.atoms, data, EPS)
        upd.observe(data, c)
        upd.refresh_atoms()
        np.testing.assert_allclose(np.linalg.norm(upd.atoms, axis=0),
                                   norms_before, rtol=1e-10)

    def test_unselected_atoms_untouched(self, data, dictionary):
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        c, _ = batch_omp_matrix(upd.atoms, data, EPS)
        upd.observe(data, c)
        dead = np.flatnonzero(np.diag(upd.a_t) <= 1e-12)
        frozen = upd.atoms[:, dead].copy()
        upd.refresh_atoms()
        np.testing.assert_array_equal(upd.atoms[:, dead], frozen)

    def test_rank_reseed_candidates_worst_first(self, data, dictionary):
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        c, _ = batch_omp_matrix(upd.atoms, data, EPS)
        order = upd.rank_reseed_candidates(data, c, 5)
        err = np.linalg.norm(data - upd.atoms @ c.to_dense(), axis=0)
        assert len(order) == 5
        np.testing.assert_allclose(err[order],
                                   np.sort(err, kind="stable")[::-1][:5])

    def test_snapshot_is_independent(self, dictionary):
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        snap = upd.snapshot_dictionary()
        assert isinstance(snap, Dictionary)
        assert snap.atoms is not upd.atoms
        upd.atoms[:, 0] = 0.0
        assert np.linalg.norm(snap.atoms[:, 0]) > 0

    def test_source_input_not_mutated(self, dictionary):
        original = dictionary.atoms.copy()
        upd = OnlineUpdater(atoms=dictionary.atoms,
                            indices=dictionary.indices)
        upd.atoms[:] = 0.0
        np.testing.assert_array_equal(dictionary.atoms, original)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OnlineUpdateConfig(forgetting=0.0)
        with pytest.raises(ValidationError):
            OnlineUpdateConfig(forgetting=1.5)


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
class TestDrift:
    def test_fit_alpha_curve_recovers_power_law(self):
        sizes = np.array([16, 32, 64, 128])
        alphas = 3.0 * sizes ** -0.5
        curve = fit_alpha_curve(list(zip(sizes, alphas)))
        assert curve.slope == pytest.approx(-0.5)
        for l, a in zip(sizes, alphas):
            assert curve.predict(int(l)) == pytest.approx(a)

    def test_fit_accepts_tuner_table_rows(self):
        table = [(16, 2.0, 440.0, 123.0), (64, 1.2, 264.0, 456.0)]
        curve = fit_alpha_curve(table)
        assert curve.sizes == (16, 64)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValidationError):
            fit_alpha_curve([(16, 2.0)])

    def test_predict_not_clamped_to_one(self):
        """α = nnz/N is mean atoms per column — legitimately > 1."""
        curve = fit_alpha_curve([(16, 3.0), (64, 2.0)])
        assert curve.predict(16) > 1.0

    def test_no_fire_on_matching_traffic(self):
        curve = fit_alpha_curve([(16, 2.0), (64, 1.0)])
        mon = DriftMonitor(curve, 16, eps=0.2)
        for _ in range(10):
            assert mon.observe(2.0, 0.1) is False
        assert mon.triggers == 0

    def test_fires_on_alpha_deviation(self):
        curve = fit_alpha_curve([(16, 2.0), (64, 1.0)])
        mon = DriftMonitor(curve, 16, eps=0.2,
                           config=DriftConfig(min_observations=3))
        fired = [mon.observe(3.0, 0.1) for _ in range(4)]
        assert fired[:2] == [False, False]  # min_observations gate
        assert fired[2] and fired[3]

    def test_fires_on_error_band(self):
        curve = fit_alpha_curve([(16, 2.0), (64, 1.0)])
        mon = DriftMonitor(curve, 16, eps=0.2,
                           config=DriftConfig(min_observations=1))
        assert mon.observe(2.0, 0.19) is False   # inside eps
        assert mon.observe(2.0, 0.9)             # way past eps·1.25

    def test_reset_and_rebase(self):
        curve = fit_alpha_curve([(16, 2.0), (64, 1.0)])
        mon = DriftMonitor(curve, 16, eps=0.2,
                           config=DriftConfig(min_observations=1))
        assert mon.observe(4.0, 0.1)
        mon.reset()
        assert mon.observations == 0 and not mon.fired
        new = fit_alpha_curve([(16, 4.0), (64, 2.0)])
        mon.rebase(new)
        assert mon.expected_alpha == pytest.approx(4.0)
        assert mon.observe(4.0, 0.1) is False

    def test_status_digest(self):
        curve = fit_alpha_curve([(16, 2.0), (64, 1.0)])
        mon = DriftMonitor(curve, 16, eps=0.2)
        mon.observe(2.2, 0.12)
        s = mon.status()
        assert s["l"] == 16 and s["observations"] == 1
        assert s["last"]["alpha"] == pytest.approx(2.2)
        assert s["error_band"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Sketched tuning
# ----------------------------------------------------------------------
class TestSketch:
    def test_projection_deterministic_and_shaped(self):
        r1 = sparse_projection(16, 64, seed=5)
        r2 = sparse_projection(16, 64, seed=5)
        np.testing.assert_array_equal(r1, r2)
        assert r1.shape == (16, 64)
        scale = np.sqrt(np.sqrt(64) / 16)
        values = np.unique(r1)
        assert set(np.round(values, 12)) <= \
            {round(-scale, 12), 0.0, round(scale, 12)}

    def test_projection_near_isometry(self):
        """E[RᵀR] = I: averaged over draws, sketched norms are unbiased."""
        m, k = 48, 32
        x = np.random.default_rng(0).standard_normal(m)
        est = np.mean([
            np.sum((sparse_projection(k, m, seed=s) @ x) ** 2)
            for s in range(200)])
        assert est == pytest.approx(np.sum(x ** 2), rel=0.15)

    def test_store_sampling_chunk_aligned(self, data, tmp_path):
        store = ColumnStore.from_matrix(tmp_path / "s", data,
                                        chunk_width=32)
        cols, idx = sketch_store_columns(store, 64, seed=3)
        assert cols.shape == (M, 64)
        np.testing.assert_array_equal(cols, data[:, idx])
        # chunk-aligned: the index set is a union of chunk ranges minus
        # a random trim, so consecutive runs cover whole chunks
        cols2, idx2 = sketch_store_columns(store, 64, seed=3)
        np.testing.assert_array_equal(idx, idx2)

    def test_dense_sampling(self, data):
        cols, idx = sketch_store_columns(data, 50, seed=1)
        assert cols.shape == (M, 50)
        np.testing.assert_array_equal(cols, data[:, idx])

    def test_sketched_pick_near_exact(self):
        """The Eq. 2 cost of the sketched choice stays within 10% of
        the exact tuner's best on the same candidate grid."""
        a, _ = union_of_subspaces(48, 600, n_subspaces=4, dim=3,
                                  noise=0.01, seed=3)
        model = CostModel(platform_by_name("2x8"))
        cand = [24, 36, 54, 80]
        exact = tune_dictionary_size(a, 0.25, model, candidates=cand,
                                     seed=3)
        sk = tune_dictionary_size_sketched(
            a, 0.25, model, candidates=cand, seed=3,
            sketch=SketchConfig(dim=24, columns=400))
        exact_cost = {int(l): c for l, _, _, c in exact.table}
        if sk.best_size not in exact_cost:
            # the exact sweep skipped the pick as dominated: measure it
            # alone, on the same subset and seed
            exact_cost[sk.best_size] = tune_dictionary_size(
                a, 0.25, model, candidates=[sk.best_size],
                seed=3).cost_of(sk.best_size)
        best = exact.cost_of(exact.best_size)
        assert exact_cost[sk.best_size] <= 1.10 * best
        assert sk.sketch_dim == 24

    def test_store_reads_fraction_of_exact(self, tmp_path):
        """Acceptance gate: the sketch reads ≤ 25% of the bytes the
        exact subset estimator touches on the same store."""
        a, _ = union_of_subspaces(48, 2000, n_subspaces=4, dim=3,
                                  noise=0.01, seed=3)
        store = ColumnStore.from_matrix(tmp_path / "s", a,
                                        chunk_width=128)
        model = CostModel(platform_by_name("2x8"))
        cand = [24, 36, 54, 80]
        with obs.observed():
            before = obs.REGISTRY.counter("store.bytes_read")
            tune_dictionary_size(store, 0.25, model, candidates=cand,
                                 seed=3)
            exact_bytes = obs.REGISTRY.counter("store.bytes_read") - before
            sk = tune_dictionary_size_sketched(
                store, 0.25, model, candidates=cand, seed=3,
                sketch=SketchConfig(dim=24, columns=400))
        assert exact_bytes > 0
        assert sk.bytes_read > 0
        assert sk.bytes_read <= 0.25 * exact_bytes
        assert sk.chunks_read < store.n_chunks

    def test_deterministic_in_seed(self, data):
        model = CostModel(platform_by_name("2x8"))
        kw = dict(candidates=[16, 24, 36], seed=11,
                  sketch=SketchConfig(dim=16, columns=120))
        r1 = tune_dictionary_size_sketched(data, 0.25, model, **kw)
        r2 = tune_dictionary_size_sketched(data, 0.25, model, **kw)
        assert r1.best_size == r2.best_size
        assert r1.table == r2.table

    def test_one_alpha_batch_per_wave(self, data, monkeypatch):
        """The sketched tuner runs the exact tuner's sweep: each wave
        of ``workers`` candidates goes out as one trial-parallel batch,
        and the dominated 36 is never encoded."""
        from repro.core import alpha

        batches = []
        real = alpha._run_alpha_tasks

        def spy(a, payloads, *args, **kw):
            batches.append(len(payloads))
            return real(a, payloads, *args, **kw)

        monkeypatch.setattr(alpha, "_run_alpha_tasks", spy)
        model = CostModel(platform_by_name("2x8"))
        res = tune_dictionary_size_sketched(
            data, 0.25, model, candidates=[16, 24, 36], seed=11, trials=2,
            workers=2, sketch=SketchConfig(dim=16, columns=120))
        assert batches == [2 * 2]
        assert [row[0] for row in res.table] == [16, 24]


# ----------------------------------------------------------------------
# The maintainer: end to end
# ----------------------------------------------------------------------
def _fit(data, seed=7):
    transform, _ = exd_transform(data, L, EPS, seed=seed)
    return transform


class TestMaintainer:
    def test_stationary_traffic_never_fires(self, data):
        mnt = OnlineMaintainer(data, _fit(data), seed=0,
                               config=MaintenanceConfig(batch=64))
        try:
            reports = mnt.run(5)
        finally:
            mnt.close()
        assert not any(r["drift_fired"] for r in reports)
        assert all(r["error"] <= EPS * 1.25 for r in reports)

    def test_drifted_traffic_fires_and_adapts(self, data):
        transform = _fit(data)
        # α(L) curve fitted on the ORIGINAL data's tuner table (the
        # production configuration); traffic then comes from different
        # subspaces entirely
        model = CostModel(platform_by_name("2x8"))
        curve = tune_dictionary_size(data, EPS, model,
                                     candidates=[16, 24, 36], seed=7)
        drifted, _ = union_of_subspaces(M, N, n_subspaces=4, dim=3,
                                        noise=0.01, seed=99)
        mnt = OnlineMaintainer(drifted, transform, curve=curve, seed=0,
                               config=MaintenanceConfig(batch=64))
        try:
            reports = mnt.run(6)
        finally:
            mnt.close()
        assert any(r["drift_fired"] for r in reports)
        # the refresh adapts the atoms: error trends down
        assert reports[-1]["error"] < reports[0]["error"]

    def test_deterministic_under_seed(self, data):
        def run():
            mnt = OnlineMaintainer(data, _fit(data), seed=5,
                                   config=MaintenanceConfig(batch=64))
            try:
                reports = mnt.run(3)
                return reports, mnt.updater.atoms.copy()
            finally:
                mnt.close()
        r1, atoms1 = run()
        r2, atoms2 = run()
        assert r1 == r2
        np.testing.assert_array_equal(atoms1, atoms2)

    def test_dead_atom_reseeded(self, data):
        transform = _fit(data)
        # poison one atom: a zero column is never selected by OMP
        transform.dictionary.atoms[:, 3] = 0.0
        cfg = MaintenanceConfig(batch=64, warmup_columns=64,
                                dead_min_count=1, max_reseed=4)
        mnt = OnlineMaintainer(data, transform, seed=0, config=cfg)
        try:
            reseeded = [j for r in mnt.run(4)
                        for j in r["atoms_reseeded"]]
            assert 3 in reseeded
            assert np.linalg.norm(mnt.updater.atoms[:, 3]) > 0
            assert mnt.stats.counts[3] >= 0
            # Re-seeds are unit atoms, as a fit's are, and the refresh
            # keeps them there.
            atoms = mnt.build_generation().dictionary.atoms
            np.testing.assert_allclose(np.linalg.norm(atoms, axis=0), 1.0,
                                       rtol=1e-12)
        finally:
            mnt.close()

    def test_fresh_data_biasing_sees_appended_columns(self, data,
                                                      tmp_path):
        store = ColumnStore.from_matrix(tmp_path / "s", data,
                                        chunk_width=64)
        mnt = OnlineMaintainer(store, _fit(data), seed=0,
                               config=MaintenanceConfig(batch=32,
                                                        fresh_bias=1.0))
        try:
            first = mnt.step()
            assert first["new_data"] is False
            fresh = np.random.default_rng(1).standard_normal((M, 40))
            store.append_columns(fresh)
            second = mnt.step()
            assert second["new_data"] is True
        finally:
            mnt.close()

    def test_build_generation_fresh_identity(self, data):
        mnt = OnlineMaintainer(data, _fit(data), seed=0)
        try:
            mnt.run(2)
            gen = mnt.build_generation()
        finally:
            mnt.close()
        assert gen.dictionary.atoms is not mnt.updater.atoms
        np.testing.assert_array_equal(gen.dictionary.atoms,
                                      mnt.updater.atoms)
        assert gen.meta["maintained"] is True
        assert gen.meta["maintenance_steps"] == 2
        assert gen.meta["coefficients_stale"] is True

    def test_retune_rebases_monitor(self, data):
        mnt = OnlineMaintainer(data, _fit(data), seed=0)
        try:
            mnt.run(1)
            model = CostModel(platform_by_name("2x8"))
            result = mnt.retune(model, candidates=[16, 24, 36],
                                sketch=SketchConfig(dim=16, columns=120))
            assert result.best_size in (16, 24, 36)
            assert mnt.consecutive_fired == 0
        finally:
            mnt.close()

    def test_status_shape(self, data):
        mnt = OnlineMaintainer(data, _fit(data), seed=0)
        try:
            s_first = mnt.run(1) and mnt.status()
            # self-calibration defers the monitor past the first step
            assert s_first["drift"] is None
            mnt.run(1)
            s = mnt.status()
        finally:
            mnt.close()
        assert s["steps"] == 2
        assert s["drift"]["observations"] == 1
        assert s["atom_usage"]["atoms"] == L
        assert s["updater"]["minibatches"] == 2

    @pytest.mark.parametrize("workers", [None, 2])
    def test_stats_record_exactly_the_step_encodes(self, monkeypatch,
                                                   workers):
        """The maintainer's AtomStats holds the codes of its own step
        encodes, once per step, and no other encode of its atoms.  A
        512-column batch forks at workers=2 and must record the counts
        of the serial encode."""
        import repro.online.maintainer as maintainer_mod

        wide, _ = union_of_subspaces(M, 1024, n_subspaces=4, dim=3,
                                     noise=0.01, seed=7)
        codes = []
        real = maintainer_mod.batch_omp_matrix

        def spy(atoms, x, eps, **kw):
            # serial codes of the step's inputs, taken before the step
            # refreshes the atoms in place
            codes.append(real(atoms.copy(), x, eps)[0])
            return real(atoms, x, eps, **kw)

        monkeypatch.setattr(maintainer_mod, "batch_omp_matrix", spy)
        transform = _fit(wide)
        transform.dictionary.atoms[:, 3] = 0.0  # dead, so re-seeded
        mnt = OnlineMaintainer(wide, transform, seed=0, workers=workers,
                               config=MaintenanceConfig(batch=512))
        reports = mnt.run(3)
        assert 3 in reports[0]["atoms_reseeded"]
        expect = AtomStats(L)
        for c, report in zip(codes, reports, strict=True):
            expect.record(c)
            for j in report["atoms_reseeded"]:
                expect.reset_atom(j)

        def assert_equal(stats):
            for field in ("counts", "abs_coef_sum", "last_used"):
                np.testing.assert_array_equal(getattr(stats, field),
                                              getattr(expect, field))
            assert (stats.columns, stats.generation) == (3 * 512, 3)

        assert_equal(mnt.stats)
        batch_omp_matrix(mnt.updater.atoms, wide, EPS, workers=workers)
        assert_equal(mnt.stats)

    @pytest.mark.parametrize("knob, value", [
        ("refresh_every", 0), ("retune_after", 0), ("batch", 0),
        ("warmup_columns", -1), ("dead_min_count", -1),
        ("max_reseed", -1), ("fresh_bias", 1.5)])
    def test_config_validation(self, knob, value):
        with pytest.raises(ValidationError, match=knob):
            MaintenanceConfig(**{knob: value})
        MaintenanceConfig(warmup_columns=0, dead_min_count=0,
                          max_reseed=0)

    def test_run_rejects_negative_steps(self, data):
        mnt = OnlineMaintainer(data, _fit(data), seed=0)
        try:
            with pytest.raises(ValidationError, match="steps"):
                mnt.run(-1)
            assert mnt.run(0) == []
        finally:
            mnt.close()

    def test_curve_from_tuning_result(self, data):
        model = CostModel(platform_by_name("2x8"))
        tuning = tune_dictionary_size(data, EPS, model,
                                      candidates=[16, 24, 36], seed=7)
        mnt = OnlineMaintainer(data, _fit(data), curve=tuning, seed=0)
        try:
            assert mnt.monitor is not None
            assert mnt.monitor.expected_alpha > 0
        finally:
            mnt.close()


class TestExtDictMaintain:
    def test_framework_entry_point(self, data):
        from repro.core import ExtDict

        ext = ExtDict(eps=EPS, size=L, seed=7).fit(data)
        mnt = ext.maintain(data)
        try:
            report = mnt.step()
            assert report["step"] == 1
        finally:
            mnt.close()

    def test_requires_data(self, data):
        from repro.core import ExtDict

        ext = ExtDict(eps=EPS, size=L, seed=7).fit(data)
        with pytest.raises(ValidationError):
            ext.maintain(None)


class TestLayering:
    def test_encode_engine_does_not_import_online(self):
        """The encode engine sits below repro.online: importing it in a
        fresh interpreter loads no repro.online module."""
        src = Path(repro.__file__).resolve().parents[1]
        script = ("import sys, repro.linalg.omp; print(sorted(m for m in "
                  "sys.modules if m.startswith('repro.online')))")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"
