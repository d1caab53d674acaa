"""Rank-sharded ColumnStore streaming for the distributed transform.

``ColumnStore.shard_plan`` is the single source of truth for who reads
what: it must deterministically cover ``[0, N)`` with contiguous,
chunk-aligned, non-overlapping ranges for every rank count.  On top of
it, the store-backed ``exd_transform_distributed`` must return
*bit-identical* coefficients to the serial streaming encode — on either
SPMD backend — because every rank replays the streaming encoder's exact
panel-aligned pipeline on its own shard.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.dictionary import sample_dictionary
from repro.core.exd import (
    exd_transform,
    exd_transform_distributed,
    normalize_columns,
)
from repro.errors import ValidationError
from repro.platform.presets import platform_by_name
from repro.store import ColumnStore
from repro.store.streaming import sample_store_dictionary

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((24, 1500))
    path = tmp_path_factory.mktemp("shard") / "store"
    return ColumnStore.from_matrix(str(path), a, chunk_width=97)


class TestShardPlan:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 16])
    def test_covers_contiguously(self, store, p):
        plan = store.shard_plan(p)
        assert len(plan) == p
        n = store.shape[1]
        cursor = 0
        for lo, hi in plan:
            assert lo == cursor
            assert hi >= lo
            cursor = hi
        assert cursor == n

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chunk_aligned(self, store, p):
        edges = {b[0] for b in store.chunk_bounds()} | {store.shape[1]}
        for lo, hi in store.shard_plan(p):
            assert lo in edges
            assert hi in edges

    def test_deterministic(self, store):
        assert store.shard_plan(4) == store.shard_plan(4)

    def test_more_ranks_than_chunks(self, store):
        chunks = len(store.chunk_bounds())
        plan = store.shard_plan(chunks + 5)
        nonempty = [s for s in plan if s[1] > s[0]]
        assert len(nonempty) == chunks
        assert sum(hi - lo for lo, hi in plan) == store.shape[1]

    def test_invalid_rank_count(self, store):
        with pytest.raises(ValidationError):
            store.shard_plan(0)


class TestSampleStoreDictionary:
    def test_matches_in_memory_sample(self, store):
        """The store sampler replays the in-memory sample of the
        normalised matrix bit for bit.  The store's 97-column chunks
        cut across the 256-column encode panels, and the sampled
        indices span every panel."""
        normalized, _ = normalize_columns(store.as_array())
        for size, seed in ((30, 5), (300, 1)):
            d = sample_store_dictionary(store, size, seed=seed)
            ref = sample_dictionary(normalized, size, seed=seed)
            assert np.unique(d.indices // 256).size == 6
            np.testing.assert_array_equal(d.indices, ref.indices)
            np.testing.assert_array_equal(d.atoms, ref.atoms)


class TestStoreDistributedTransform:
    def _assert_bit_identical(self, serial, candidate):
        t0, s0 = serial
        t1, s1 = candidate
        np.testing.assert_array_equal(t1.dictionary.atoms,
                                      t0.dictionary.atoms)
        np.testing.assert_array_equal(t1.coefficients.data,
                                      t0.coefficients.data)
        np.testing.assert_array_equal(t1.coefficients.indices,
                                      t0.coefficients.indices)
        np.testing.assert_array_equal(t1.coefficients.indptr,
                                      t0.coefficients.indptr)
        assert s1.columns == s0.columns
        assert s1.omp_iterations == s0.omp_iterations
        assert s1.flops == s0.flops

    def test_threads_matches_serial_streaming(self, store):
        serial = exd_transform(store, 40, 0.2, seed=11)
        t, s, res = exd_transform_distributed(
            store, 40, 0.2, platform_by_name("2x8"), seed=11,
            backend="threads")
        self._assert_bit_identical(serial, (t, s))
        assert res.backend == "threads"
        assert res.simulated_time > 0

    @needs_fork
    def test_processes_matches_threads_everywhere(self, store):
        cluster = platform_by_name("2x8")
        runs = {
            name: exd_transform_distributed(store, 40, 0.2, cluster,
                                            seed=11, backend=name)
            for name in ("threads", "processes")
        }
        tt, ts, tr = runs["threads"]
        pt, ps, pr = runs["processes"]
        self._assert_bit_identical((tt, ts), (pt, ps))
        assert (tr.traffic.snapshot() == pr.traffic.snapshot())
        assert tr.simulated_time == pr.simulated_time
        assert tr.simulated_energy == pr.simulated_energy
        assert tr.total_flops == pr.total_flops

    def test_block_width_does_not_change_bits(self, store):
        cluster = platform_by_name("1x4")
        t0, s0, _ = exd_transform_distributed(store, 40, 0.2, cluster,
                                              seed=11)
        t1, s1, _ = exd_transform_distributed(store, 40, 0.2, cluster,
                                              seed=11, block_width=256)
        self._assert_bit_identical((t0, s0), (t1, s1))

    def test_block_width_rejected_for_arrays(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 40))
        with pytest.raises(ValidationError):
            exd_transform_distributed(a, 8, 0.3, platform_by_name("1x4"),
                                      seed=0, block_width=16)

    def test_oversized_dictionary_rejected(self, store):
        with pytest.raises(ValidationError):
            exd_transform_distributed(store, store.shape[1] + 1, 0.2,
                                      platform_by_name("1x4"))

