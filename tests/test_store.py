"""Out-of-core column store + streaming encoder tests.

The load-bearing claim of ``repro.store`` is bit-identity: every
store-backed path (any block width, worker count, kill/resume point)
must reproduce the in-memory result exactly.  These tests pin that
down, plus the container's durability story (checksums, atomic
manifests, checkpoint refusal semantics) and the Eq. 4 memory budget.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from repro import observability as obs
from repro.core import (
    ExtDict,
    exd_transform,
    measure_alpha,
    tune_dictionary_size,
)
from repro.core.cost_model import CostModel
from repro.data.subspaces import union_of_subspaces
from repro.errors import ValidationError
from repro.platform import platform_by_name
from repro.store import (
    CheckpointError,
    ColumnStore,
    StreamingEncoder,
    check_matrix_or_store,
    is_column_store,
    plan_block_width,
    take_columns,
)

M, N, L, EPS = 32, 2100, 40, 0.1


@pytest.fixture(scope="module")
def data():
    a, _ = union_of_subspaces(M, N, n_subspaces=4, dim=3,
                              noise=0.01, seed=5)
    return a


@pytest.fixture()
def store(data, tmp_path):
    s = ColumnStore.from_matrix(tmp_path / "a.store", data, chunk_width=256)
    assert s.n_chunks >= 8  # the acceptance criterion's chunking floor
    return s


class TestColumnStore:
    def test_round_trip(self, data, store):
        assert store.shape == data.shape
        assert store.dtype == np.float64
        np.testing.assert_array_equal(store.as_array(), data)

    def test_open_rereads_manifest(self, data, store, tmp_path):
        again = ColumnStore.open(tmp_path / "a.store")
        assert again.shape == data.shape
        assert again.fingerprint() == store.fingerprint()

    def test_read_columns_scattered(self, data, store):
        cols = np.array([0, 1, 255, 256, 1024, N - 1, 7])
        np.testing.assert_array_equal(store.read_columns(cols),
                                      data[:, cols])

    def test_read_range(self, data, store):
        np.testing.assert_array_equal(store.read_range(100, 700),
                                      data[:, 100:700])

    def test_iter_blocks_covers_matrix(self, data, store):
        seen = []
        for lo, hi, block in store.iter_blocks(512):
            assert lo % 512 == 0
            np.testing.assert_array_equal(block, data[:, lo:hi])
            seen.append((lo, hi))
        assert seen[0][0] == 0 and seen[-1][1] == N

    def test_append_tops_up_partial_chunk(self, data, tmp_path, rng):
        s = ColumnStore.from_matrix(tmp_path / "p.store", data[:, :300],
                                    chunk_width=256)
        extra = rng.standard_normal((M, 100))
        s.append_columns(extra)
        assert s.shape == (M, 400)
        # 300 = 256 + 44; the 100 new columns top the partial chunk up
        # to 256 and leave one new chunk of 144.
        assert s.n_chunks == 2
        np.testing.assert_array_equal(
            s.as_array(), np.concatenate([data[:, :300], extra], axis=1))

    def test_verify_detects_corruption(self, store, tmp_path):
        assert store.verify()
        chunk = sorted((tmp_path / "a.store" / "chunks").iterdir())[2]
        blob = bytearray(chunk.read_bytes())
        blob[-1] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="checksum"):
            ColumnStore.open(tmp_path / "a.store").verify()

    def _chunk_file(self, store, index):
        return store.path / "chunks" / f"chunk-{index:06d}.npy"

    @pytest.mark.parametrize("damage, match", [
        (lambda p: os.truncate(p, p.stat().st_size - 8), "truncated"),
        (lambda p: p.unlink(), "missing chunk file"),
    ], ids=["truncated", "missing"])
    def test_damaged_chunk_after_cached_header(self, data, store, damage,
                                               match):
        """A chunk whose header an earlier read checked and cached still
        fails loudly when its payload is cut short or gone."""
        np.testing.assert_array_equal(store.read_range(256, 512),
                                      data[:, 256:512])
        damage(self._chunk_file(store, 1))
        with pytest.raises(ValidationError, match=match):
            store.read_range(256, 512)
        with pytest.raises(ValidationError, match=match):
            store.read_columns([300])

    @pytest.mark.parametrize("old, new, match", [
        (b"(32, 256)", b"(32, 255)", "shape"),
        (b"'<f8'", b"'<f4'", "float32"),
        (b"\x93NUMPY", b"\x93NUMPX", "corrupt"),
    ], ids=["shape", "dtype", "magic"])
    def test_verify_rereads_headers(self, store, old, new, match):
        """verify() parses every header from disk, not from the cache
        the reads filled; a store that has not read the chunk yet
        refuses it on its first read."""
        store.as_array()
        chunk = self._chunk_file(store, 2)
        blob = chunk.read_bytes()
        assert old in blob
        chunk.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(ValidationError, match=match):
            store.verify()
        with pytest.raises(ValidationError, match=match):
            ColumnStore.open(store.path).read_range(512, 768)

    def test_fingerprint_tracks_content(self, store, rng):
        before = store.fingerprint()
        store.append_columns(rng.standard_normal((M, 10)))
        assert store.fingerprint() != before

    def test_open_missing(self, tmp_path):
        with pytest.raises(ValidationError, match="no column store"):
            ColumnStore.open(tmp_path / "absent")

    def test_open_newer_format(self, store, tmp_path):
        manifest = tmp_path / "a.store" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["format_version"] = 999
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="newer than"):
            ColumnStore.open(tmp_path / "a.store")

    def test_adapters(self, data, store):
        assert is_column_store(store) and not is_column_store(data)
        assert check_matrix_or_store(store, "A") is store
        cols = [5, 300, 2000]
        np.testing.assert_array_equal(take_columns(store, cols),
                                      data[:, cols])
        np.testing.assert_array_equal(take_columns(data, cols),
                                      data[:, cols])

    def test_generation_counts_appends_monotonically(self, store, rng):
        """The append generation counter lets pollers (the online
        maintainer) detect new data without touching a chunk."""
        g0 = store.generation
        store.append_columns(rng.standard_normal((M, 10)))
        assert store.generation == g0 + 1
        store.append_columns(rng.standard_normal((M, 5)))
        assert store.generation == g0 + 2

    def test_generation_survives_reopen(self, store, tmp_path, rng):
        store.append_columns(rng.standard_normal((M, 10)))
        expect = store.generation
        again = ColumnStore.open(tmp_path / "a.store")
        assert again.generation == expect
        assert again.last_append_at == store.last_append_at

    def test_last_append_timestamp(self, store, rng):
        assert store.last_append_at is None or \
            isinstance(store.last_append_at, float)
        store.append_columns(rng.standard_normal((M, 3)))
        assert isinstance(store.last_append_at, float)
        assert store.last_append_at > 0

    def test_describe_digest(self, data, store, rng):
        d = store.describe()
        assert d["rows"] == M and d["columns"] == N
        assert d["chunk_width"] == 256
        assert d["n_chunks"] == store.n_chunks
        assert d["generation"] == store.generation
        assert d["dtype"] == "float64"
        store.append_columns(rng.standard_normal((M, 10)))
        d2 = store.describe()
        assert d2["columns"] == N + 10
        assert d2["generation"] == d["generation"] + 1

    def test_generation_does_not_perturb_fingerprint_keys(self, store):
        """fingerprint() hashes content-bearing manifest keys only;
        the bookkeeping keys ride along without breaking resume."""
        before = store.fingerprint()
        again = ColumnStore.open(store.path)
        assert again.fingerprint() == before


class TestCrashSafeAppend:
    """Regression suite for the append-rewrites-live-chunk bug.

    ``append_columns`` used to top up the trailing partial chunk by
    rewriting its live file in place *before* the manifest replace: a
    writer killed in that window left a chunk wider than its manifest
    entry (or a torn file), corrupting the previous store.  The fix
    writes the widened chunk to a new *generation* file name that only
    the new manifest references, so a kill at any instant leaves the old
    store fully intact; the next append garbage-collects the orphan.
    """

    def _make(self, tmp_path, rng, n=300):
        a = rng.standard_normal((M, n))
        s = ColumnStore.from_matrix(tmp_path / "k.store", a,
                                    chunk_width=256)
        return a, s

    def test_kill_between_chunk_write_and_manifest_replace(
            self, tmp_path, rng, monkeypatch):
        """The acceptance scenario: die after the widened-chunk write,
        before the manifest lands; the store must reopen clean."""
        import repro.store.column_store as cs

        a, s = self._make(tmp_path, rng)
        fingerprint = s.fingerprint()
        extra = rng.standard_normal((M, 100))

        def killed_write_json(path, payload):
            raise KeyboardInterrupt("killed before manifest replace")

        monkeypatch.setattr(cs, "_atomic_write_json", killed_write_json)
        with pytest.raises(KeyboardInterrupt):
            s.append_columns(extra)
        monkeypatch.undo()

        # the new-generation chunk file is on disk but orphaned
        chunk_dir = tmp_path / "k.store" / "chunks"
        orphans = [p for p in chunk_dir.iterdir()
                   if ".g" in p.name and p.suffix == ".npy"]
        assert orphans, "expected an orphaned new-generation chunk"

        # the killed store reopens cleanly as the *previous* store
        again = ColumnStore.open(tmp_path / "k.store")
        assert again.shape == (M, 300)
        assert again.fingerprint() == fingerprint
        assert again.verify()
        np.testing.assert_array_equal(again.as_array(), a)

        # the next append reclaims the orphan and lands consistently
        # (the reclaimed generation name may be legitimately re-used by
        # this very append, so assert no *unreferenced* file survives)
        extra2 = rng.standard_normal((M, 50))
        again.append_columns(extra2)
        assert again.verify()
        np.testing.assert_array_equal(
            again.as_array(), np.concatenate([a, extra2], axis=1))
        # a superseded generation becomes the next orphan; an explicit
        # GC pass (what the next append runs first) clears the dir
        again.collect_orphans()
        manifest = json.loads(
            (tmp_path / "k.store" / "manifest.json").read_text())
        referenced = {c["file"].split("/")[-1] for c in manifest["chunks"]}
        on_disk = {p.name for p in chunk_dir.iterdir()}
        assert on_disk == referenced, "orphans were not garbage-collected"

    def test_kill_during_chunk_write_leaves_tmp_orphan(
            self, tmp_path, rng, monkeypatch):
        """Die mid chunk write: only a ``.npy.tmp`` temporary leaks."""
        a, s = self._make(tmp_path, rng)
        extra = rng.standard_normal((M, 100))
        real_replace = os.replace
        calls = {"n": 0}

        def kill_first_replace(src, dst):
            calls["n"] += 1
            raise OSError("killed during chunk finalise")

        monkeypatch.setattr("repro.store.column_store.os.replace",
                            kill_first_replace)
        with pytest.raises(OSError, match="killed"):
            s.append_columns(extra)
        monkeypatch.undo()
        assert calls["n"] == 1

        again = ColumnStore.open(tmp_path / "k.store")
        assert again.verify()
        np.testing.assert_array_equal(again.as_array(), a)
        again.append_columns(extra)
        tmps = list((tmp_path / "k.store" / "chunks").glob("*.npy.tmp"))
        assert not tmps
        np.testing.assert_array_equal(
            again.as_array(), np.concatenate([a, extra], axis=1))
        assert real_replace is os.replace  # monkeypatch fully unwound

    def test_generation_filenames_never_rewrite_live_chunks(
            self, tmp_path, rng):
        """Successive partial-chunk top-ups write fresh file names."""
        a, s = self._make(tmp_path, rng, n=100)
        seen = set()
        for step in range(3):
            trailing = json.loads(
                (tmp_path / "k.store" / "manifest.json").read_text()
            )["chunks"][-1]["file"]
            assert trailing not in seen
            seen.add(trailing)
            s.append_columns(rng.standard_normal((M, 10)))
        assert s.verify()
        # gen counter climbed: chunk-000000.g001, .g002, ...
        trailing = json.loads(
            (tmp_path / "k.store" / "manifest.json").read_text()
        )["chunks"][-1]["file"]
        assert ".g003." in trailing

    def test_full_chunks_stay_generation_zero(self, tmp_path, rng):
        a = rng.standard_normal((M, 512))  # two exactly-full chunks
        s = ColumnStore.from_matrix(tmp_path / "k.store", a,
                                    chunk_width=256)
        s.append_columns(rng.standard_normal((M, 256)))
        names = [c["file"] for c in json.loads(
            (tmp_path / "k.store" / "manifest.json").read_text())["chunks"]]
        assert all(".g" not in n for n in names)

    def test_collect_orphans_counts_and_keeps_live_files(
            self, tmp_path, rng):
        a, s = self._make(tmp_path, rng)
        chunk_dir = tmp_path / "k.store" / "chunks"
        (chunk_dir / "chunk-000099.npy").write_bytes(b"junk")
        (chunk_dir / "chunk-000001.npy.tmp").write_bytes(b"junk")
        (chunk_dir / "notes.txt").write_text("keep me")  # not chunk-like
        assert s.collect_orphans() == 2
        assert (chunk_dir / "notes.txt").exists()
        assert s.verify()
        np.testing.assert_array_equal(s.as_array(), a)


class TestStreamingBitIdentity:
    """Store-backed exd_transform == in-memory, bit for bit."""

    @pytest.fixture(scope="class")
    def reference(self, data):
        return exd_transform(data, L, EPS, seed=2)

    @pytest.mark.parametrize("block_width", [256, 1024])
    def test_block_widths(self, data, store, reference, block_width):
        ref_t, ref_stats = reference
        t, stats = exd_transform(store, L, EPS, seed=2,
                                 block_width=block_width)
        np.testing.assert_array_equal(t.dictionary.atoms,
                                      ref_t.dictionary.atoms)
        np.testing.assert_array_equal(t.dictionary.indices,
                                      ref_t.dictionary.indices)
        np.testing.assert_array_equal(t.coefficients.data,
                                      ref_t.coefficients.data)
        np.testing.assert_array_equal(t.coefficients.indices,
                                      ref_t.coefficients.indices)
        np.testing.assert_array_equal(t.coefficients.indptr,
                                      ref_t.coefficients.indptr)
        assert stats == ref_stats

    def test_workers_parity(self, store, reference):
        ref_t, ref_stats = reference
        t, stats = exd_transform(store, L, EPS, seed=2, workers=2,
                                 block_width=512)
        np.testing.assert_array_equal(t.coefficients.data,
                                      ref_t.coefficients.data)
        assert stats == ref_stats

    def test_transformation_error_blockwise(self, data, store, reference):
        ref_t, _ = reference
        assert ref_t.transformation_error(store) == pytest.approx(
            ref_t.transformation_error(data), abs=1e-12)

    def test_streaming_knobs_require_store(self, data, tmp_path):
        with pytest.raises(ValidationError, match="require a ColumnStore"):
            exd_transform(data, L, EPS, seed=2,
                          checkpoint_dir=tmp_path / "ck")

    def test_misaligned_block_width_rejected(self, store):
        with pytest.raises(ValidationError, match="multiple of 256"):
            exd_transform(store, L, EPS, seed=2, block_width=300)


class TestCheckpointResume:
    def _encoder(self, store, ck, **kwargs):
        return StreamingEncoder(store, L, EPS, seed=2, checkpoint_dir=ck,
                                block_width=kwargs.pop("block_width", 256),
                                **kwargs)

    def test_full_resume_reads_nothing(self, store, tmp_path):
        ck = tmp_path / "ck"
        t1, s1, r1 = self._encoder(store, ck).run()
        assert r1.blocks_encoded == r1.blocks_total and not r1.resumed
        t2, s2, r2 = self._encoder(store, ck).run(resume=True)
        assert r2.resumed and r2.blocks_reused == r1.blocks_total
        assert r2.chunks_read == 0 and r2.bytes_read == 0
        np.testing.assert_array_equal(t1.coefficients.data,
                                      t2.coefficients.data)
        assert s1 == s2

    def test_report_counts_what_the_store_reads(self, store):
        """The report's reads equal the store's own counters over a run
        that samples its dictionary: whole chunks, in chunks and bytes."""
        with obs.observed():
            _, _, rep = StreamingEncoder(store, L, EPS, seed=2,
                                         block_width=512).run()
            chunks = obs.REGISTRY.counter("store.chunks_read")
            nbytes = obs.REGISTRY.counter("store.bytes_read")
        # the sampled atoms touch every chunk, then each block its own
        assert rep.chunks_read == chunks == 2 * store.n_chunks
        assert rep.bytes_read == nbytes == 2 * store.nbytes

    def test_partial_resume_reencodes_only_missing(self, store, tmp_path):
        ck = tmp_path / "ck"
        t1, _, r1 = self._encoder(store, ck).run()
        spills = sorted((ck / "blocks").iterdir())
        for victim in (spills[0], spills[3]):
            victim.unlink()
        with pytest.warns(UserWarning, match="re-encod"):
            t2, _, r2 = self._encoder(store, ck).run(resume=True)
        assert r2.blocks_encoded == 2
        assert r2.blocks_reused == r1.blocks_total - 2
        np.testing.assert_array_equal(t1.coefficients.data,
                                      t2.coefficients.data)
        np.testing.assert_array_equal(t1.coefficients.indptr,
                                      t2.coefficients.indptr)

    def test_fresh_run_refuses_existing_checkpoint(self, store, tmp_path):
        ck = tmp_path / "ck"
        self._encoder(store, ck).run()
        with pytest.raises(CheckpointError, match="resume=True"):
            self._encoder(store, ck).run()

    @pytest.mark.parametrize("max_atoms", [0, -3, 2.5])
    def test_bad_max_atoms_rejected_before_any_write(self, store, tmp_path,
                                                     max_atoms):
        """A checkpoint holding a cap the encode rejects could neither
        finish nor resume, so the constructor refuses it (as
        ``exd_transform`` does) before anything reaches the disk."""
        ck = tmp_path / "ck"
        with pytest.raises(ValidationError, match="max_atoms"):
            self._encoder(store, ck, max_atoms=max_atoms)
        assert not ck.exists()

    def test_param_mismatch_refused(self, store, tmp_path):
        ck = tmp_path / "ck"
        self._encoder(store, ck).run()
        bad = StreamingEncoder(store, L, 0.2, seed=2, checkpoint_dir=ck,
                               block_width=256)
        with pytest.raises(CheckpointError, match="eps"):
            bad.run(resume=True)

    def test_unnormalized_checkpoint_refused(self, store, tmp_path):
        """Atoms are always unit: a manifest recording ``normalize:
        false`` came from raw atoms, so resuming it would mix bits."""
        from repro.store.streaming import CHECKPOINT_NAME

        ck = tmp_path / "ck"
        self._encoder(store, ck).run()
        manifest = ck / CHECKPOINT_NAME
        doc = json.loads(manifest.read_text())
        assert doc["params"]["normalize"] is True
        doc["params"]["normalize"] = False
        manifest.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="normalize"):
            self._encoder(store, ck).run(resume=True)

    @pytest.mark.parametrize("version", [2, 3, 999])
    def test_other_format_version_refused(self, store, tmp_path, version):
        """v2 blocks were encoded by the LAPACK-order kernel and v3 blocks
        from normalised, rescaled columns, so resuming either would mix
        bits; a newer version is just as foreign."""
        from repro.store.streaming import CHECKPOINT_NAME

        ck = tmp_path / "ck"
        self._encoder(store, ck).run()
        manifest = ck / CHECKPOINT_NAME
        doc = json.loads(manifest.read_text())
        doc["format_version"] = version
        manifest.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="format_version"):
            self._encoder(store, ck).run(resume=True)

    def test_store_change_refused(self, store, tmp_path, rng):
        ck = tmp_path / "ck"
        self._encoder(store, ck).run()
        store.append_columns(rng.standard_normal((M, 5)))
        with pytest.raises(CheckpointError, match="fingerprint"):
            self._encoder(store, ck).run(resume=True)

    def test_unpinned_resume_adopts_checkpoint_width(self, store, tmp_path):
        """Regression: `--resume` without repeating the budget flag must
        adopt the checkpoint's block width, not fail on a mismatch."""
        ck = tmp_path / "ck"
        t1, _, r1 = self._encoder(store, ck, block_width=512).run()
        enc = StreamingEncoder(store, L, EPS, seed=2, checkpoint_dir=ck)
        t2, _, r2 = enc.run(resume=True)
        assert r2.block_width == 512
        assert r2.blocks_reused == r1.blocks_total
        np.testing.assert_array_equal(t1.coefficients.data,
                                      t2.coefficients.data)

    def test_pinned_resume_still_strict(self, store, tmp_path):
        ck = tmp_path / "ck"
        self._encoder(store, ck, block_width=512).run()
        with pytest.raises(CheckpointError, match="block_width"):
            self._encoder(store, ck, block_width=256).run(resume=True)

    def test_new_manifest_records_no_kernel(self, store, tmp_path):
        from repro.store.streaming import (
            CHECKPOINT_FORMAT_VERSION,
            CHECKPOINT_NAME,
        )

        ck = tmp_path / "ck"
        self._encoder(store, ck).run()
        doc = json.loads((ck / CHECKPOINT_NAME).read_text())
        assert doc["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert "backend" not in doc["params"]


class TestMemoryBudget:
    def test_plan_block_width_aligned(self):
        w = plan_block_width(M, L, 4 << 20, n=N)
        assert w % 256 == 0 and w > 0

    def test_tiny_budget_floors_with_warning(self):
        with pytest.warns(UserWarning, match="budget"):
            assert plan_block_width(M, L, 1024) == 256

    def test_peak_memory_tracks_budget(self, tmp_path):
        """Streaming keeps the working set near the planned budget
        instead of materialising A.  tracemalloc bounds are generous:
        allocator slack, the spill CSC triples and the final assembled
        C all ride on top of the planned block."""
        a, _ = union_of_subspaces(64, 4096, n_subspaces=4, dim=3,
                                  noise=0.01, seed=6)
        s = ColumnStore.from_matrix(tmp_path / "big.store", a,
                                    chunk_width=512)
        del a
        budget = 1 << 20
        enc = StreamingEncoder(s, 48, EPS, seed=0,
                               memory_budget_bytes=budget)
        tracemalloc.start()
        enc.run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        full = 64 * 4096 * 8  # 2 MiB: what in-memory would materialise
        assert peak < 4 * budget + full // 2


class TestSubsetReaders:
    """α estimation and the tuner read from disk, same answers."""

    def test_measure_alpha_parity(self, data, store):
        ref = measure_alpha(data, L, EPS, trials=2, seed=4)
        est = measure_alpha(store, L, EPS, trials=2, seed=4)
        assert est.values == ref.values
        assert est.feasible == ref.feasible

    def test_tuner_parity(self, data, store):
        model = CostModel(platform_by_name("1x4"))
        ref = tune_dictionary_size(data, EPS, model, seed=4,
                                   candidates=[24, 48, 96])
        got = tune_dictionary_size(store, EPS, model, seed=4,
                                   candidates=[24, 48, 96])
        assert got.best_size == ref.best_size
        assert got.table == ref.table


class TestFrameworkStore:
    def test_from_store_matches_dense_fit(self, data, store, tmp_path):
        dense = ExtDict(EPS, size=L, seed=2).fit(data)
        backed = ExtDict.from_store(store.path, eps=EPS, size=L, seed=2)
        np.testing.assert_array_equal(
            backed.transform_.dictionary.atoms,
            dense.transform_.dictionary.atoms)
        np.testing.assert_array_equal(
            backed.transform_.coefficients.data,
            dense.transform_.coefficients.data)
