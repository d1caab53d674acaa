"""Streaming ExD encode over a :class:`~repro.store.ColumnStore`.

The in-memory :func:`repro.core.exd.exd_transform` holds ``A`` (M·N)
and the growing coefficient arrays at once.  The streaming encoder
instead walks ``A`` in fixed-width column blocks read straight
from the store, so peak resident memory is the Eq. 4 footprint — the
dictionary ``D`` (M·L), its Gram matrix ``G = DᵀD`` (L²), and one
block's working set — rather than anything proportional to ``N``.

Bit-identity with the in-memory path is by construction, not luck:

* block widths are multiples of :data:`repro.linalg.omp.ENCODE_BLOCK_COLS`
  and start at column 0, so the blocked ``DᵀA`` / column-norm panels of
  every block coincide exactly with the panels the in-memory encode uses
  for the full matrix;
* data columns are coded as they are read, with no per-block
  preprocessing, and CSC assembly is a concatenation, which does not
  depend on how columns were grouped;
* dictionary sampling replays the exact RNG call sequence of
  :func:`repro.core.dictionary.sample_dictionary`, and the atoms'
  normalisation gives a column the same bits in any grouping.

:func:`encode_store_block` and :func:`assemble_blocks` are the one
block encode and the one block assembly; the distributed store
transform (:func:`repro.core.exd.exd_transform_distributed`) runs them
too, so its ranks produce the same bits.

With a ``checkpoint_dir`` the encoder spills every finished block's
coefficients to disk and atomically rewrites a checkpoint manifest, so a
run killed mid-encode resumes from the last completed block and still
produces the same bits.  The checkpoint records the store fingerprint
and every encode parameter; resuming against changed data or different
parameters raises :class:`~repro.errors.CheckpointError` instead of
silently mixing results.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import observability as obs
from repro.core.dictionary import Dictionary
from repro.core.exd import ExDStats, normalize_columns
from repro.core.fastdict import (
    as_fast_dict_config,
    fit_fast_dict,
    operator_from_arrays,
    operator_to_arrays,
)
from repro.core.transform import TransformedData
from repro.errors import CheckpointError, ValidationError
from repro.linalg.omp import (
    ENCODE_BLOCK_COLS,
    batch_omp_matrix,
    check_block_width,
    check_encode_args,
    encode_block_bounds,
)
from repro.sparse.csc import CSCMatrix
from repro.store.column_store import (
    ColumnStore,
    _atomic_write_json,
    check_matrix_or_store,
    fsync_dir,
)
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_positive_int

__all__ = [
    "CheckpointError",
    "StreamingEncoder",
    "StreamingReport",
    "plan_block_width",
    "sample_store_dictionary",
]

CHECKPOINT_NAME = "checkpoint.json"
DICTIONARY_NAME = "dictionary.npz"
BLOCK_DIR = "blocks"
# v2: trailing partial compute panels are now zero-padded to the fixed
# ENCODE_BLOCK_COLS width (see repro.linalg.omp), which changes the bits
# of a matrix's final partial block — v1 checkpoints must not be mixed
# with v2 blocks, so resuming one is refused.
# v3: the numpy kernel solves its triangular systems by sequential
# substitution instead of LAPACK; v2 blocks were encoded by the
# LAPACK-order kernel, so resuming one would mix bits and is refused.
# v4: data columns are coded raw against unit atoms; v3 blocks were
# coded from normalised columns and rescaled, so their coefficient bits
# differ (supports do not) and resuming one is refused.
CHECKPOINT_FORMAT_VERSION = 4

#: Block width used when neither ``block_width`` nor a byte budget is
#: given: four aligned compute panels per store read.
DEFAULT_STREAM_BLOCK = 4 * ENCODE_BLOCK_COLS


def plan_block_width(m: int, l: int, memory_budget_bytes: int,
                     *, n: int | None = None) -> int:
    """Largest aligned block width whose working set fits the budget.

    The budget covers the Eq. 4 per-processor footprint: the dictionary
    ``D`` (M·L words) plus its Gram matrix (L² words) are resident for
    the whole run, and each streamed block then costs one dense copy of
    its columns (the raw read, which is encoded as it is, M
    words/column) plus the Batch-OMP correlation state (``DᵀA`` column
    and the α scratch vector, 2·L words/column).

    The result is rounded *down* to a multiple of
    :data:`~repro.linalg.omp.ENCODE_BLOCK_COLS` so the streamed panels
    stay aligned with the in-memory encode.  A budget too small for even
    one panel falls back to one panel with a warning — below that the
    encode cannot preserve bit-identity.
    """
    m = check_positive_int(m, "m")
    l = check_positive_int(l, "l")
    memory_budget_bytes = check_positive_int(memory_budget_bytes,
                                             "memory_budget_bytes")
    itemsize = 8
    fixed = itemsize * (m * l + l * l)
    per_column = itemsize * (m + 2 * l + 8)
    width = max(memory_budget_bytes - fixed, 0) // per_column
    width = (width // ENCODE_BLOCK_COLS) * ENCODE_BLOCK_COLS
    if width < ENCODE_BLOCK_COLS:
        warnings.warn(
            f"memory budget {memory_budget_bytes} B is below the "
            f"fixed dictionary footprint plus one "
            f"{ENCODE_BLOCK_COLS}-column panel "
            f"(~{fixed + per_column * ENCODE_BLOCK_COLS} B); "
            f"using one panel per block anyway", stacklevel=2)
        width = ENCODE_BLOCK_COLS
    if n is not None and n > 0:
        cap = -(-int(n) // ENCODE_BLOCK_COLS) * ENCODE_BLOCK_COLS
        width = min(width, cap)
    return int(width)


@dataclass
class StreamingReport:
    """I/O and checkpoint accounting of one streaming encode."""

    block_width: int
    blocks_total: int
    blocks_encoded: int
    blocks_reused: int
    chunks_read: int
    bytes_read: int
    checkpoints_written: int
    resumed: bool


def _block_checksum(data: np.ndarray, indices: np.ndarray,
                    indptr: np.ndarray) -> str:
    crc = 0
    for arr in (data, indices, indptr):
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return f"{crc:08x}"


def _atomic_savez(path: Path, **arrays) -> None:
    tmp = path.with_suffix(".npz.tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


@dataclass
class _Block:
    """One finished block's coefficients and encode counts."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    iterations: int
    converged: int


def sample_store_dictionary(store: ColumnStore, size: int, *, seed=None,
                            count_read=None) -> Dictionary:
    """Replay ``sample_dictionary`` reading only the sampled columns.

    The sampled columns are scaled to unit atoms; they equal the
    in-memory ``exd_transform``'s atoms bit for bit,
    because ``normalize_columns`` gives a column the same bits whichever
    columns it is normalised with.  Shared by the streaming encoder and
    the distributed store transform (rank 0 samples, then broadcasts).
    ``count_read(cols)``, when given, observes the store read.
    """
    rng = as_generator(seed)
    idx = np.sort(rng.choice(store.shape[1], size=size, replace=False))
    raw = store.read_columns(idx)
    if count_read is not None:
        count_read(idx)
    return Dictionary(normalize_columns(raw)[0], idx)


def encode_store_block(store: ColumnStore, dictionary, gram: np.ndarray,
                       eps: float, lo: int, hi: int, *,
                       max_atoms: int | None = None, strict: bool = False,
                       workers: int | None = None,
                       count_read=None) -> tuple[_Block, int]:
    """Read columns ``[lo, hi)`` of ``store`` and code them as read.

    Returns the block and its Batch-OMP FLOPs.  ``lo`` must lie on an
    encode panel boundary, so the block's codes equal the in-memory
    encode's columns ``lo..hi-1`` bit for bit.  ``count_read(cols)``,
    when given, observes the store read.
    """
    raw = store.read_range(lo, hi)
    if count_read is not None:
        count_read(np.arange(lo, hi))
    c, st = batch_omp_matrix(dictionary, raw, eps, max_atoms=max_atoms,
                             strict=strict, gram=gram, workers=workers)
    return _Block(data=c.data, indices=c.indices, indptr=c.indptr,
                  iterations=st.total_iterations,
                  converged=st.converged_columns), st.flops


def assemble_blocks(dictionary, blocks: list[_Block],
                    n: int) -> tuple[CSCMatrix, ExDStats]:
    """Concatenate per-block CSC triples into the full ``C``.

    Identical to what the in-memory column builder produces: the
    per-column (indices, data) runs are bitwise equal, and the
    global ``indptr`` is the same prefix-sum of column counts.
    """
    l = dictionary.size
    c = CSCMatrix.hstack_all(
        CSCMatrix(b.data, b.indices, b.indptr,
                  (l, b.indptr.size - 1), check=False)
        for b in blocks)
    total_iters = sum(b.iterations for b in blocks)
    # Additive form of the in-memory FLOP model: the DᵀA term
    # 2·T·Σwᵢ telescopes to 2·T·N exactly, where T = transform_nnz
    # is the per-column Dᵀx cost (M·L dense, Σⱼ nnz(Sⱼ) factored).
    tnnz = dictionary.transform_nnz
    flops = 2 * tnnz * n + 4 * l * total_iters + 2 * c.nnz
    stats = ExDStats(
        columns=n,
        converged_columns=sum(b.converged for b in blocks),
        omp_iterations=total_iters,
        flops=int(flops))
    return c, stats


class StreamingEncoder:
    """Drive Batch-OMP over a store block-by-block under a byte budget.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ColumnStore` holding ``A``.
    size, eps, seed, max_atoms, strict, workers:
        Exactly the knobs of :func:`repro.core.exd.exd_transform`; the
        result is bit-identical to the in-memory call for every block
        width and worker count.
    dictionary:
        Reuse a pre-sampled dictionary instead of sampling one (no RNG
        draw happens in that case).
    memory_budget_bytes:
        Peak working-set budget; translated to a block width with
        :func:`plan_block_width`.
    block_width:
        Explicit block width (must be a positive multiple of
        :data:`~repro.linalg.omp.ENCODE_BLOCK_COLS`); overrides the
        budget when both are given.
    checkpoint_dir:
        Directory for the resumable state: ``checkpoint.json``, the
        sampled ``dictionary.npz`` and one ``blocks/block-NNNNNN.npz``
        per finished block.  ``None`` keeps everything in memory (the
        encode is still budget-bounded, just not resumable).
    fast_dict:
        Learn a sparse-factor fast transform
        (:class:`~repro.core.fastdict.FastDict`) of the sampled
        dictionary before encoding; a float is the relative-complexity
        budget ``RC``, or pass a
        :class:`~repro.core.fastdict.FastDictConfig`.  The fit happens
        once at run start (deterministic given ``seed``), the factored
        dictionary is checkpointed in its factor form, and resumes
        reload it without refitting — so resumed runs stay bit-identical.
        Ignored when an already-factored ``dictionary`` is passed in.
    """

    def __init__(self, store: ColumnStore, size: int, eps: float, *,
                 seed=None, max_atoms: int | None = None,
                 strict: bool = False,
                 workers: int | None = None,
                 dictionary: Dictionary | None = None,
                 memory_budget_bytes: int | None = None,
                 block_width: int | None = None,
                 checkpoint_dir=None,
                 fast_dict=None) -> None:
        self.store = check_matrix_or_store(store, "A")
        if not isinstance(store, ColumnStore):
            raise ValidationError(
                "StreamingEncoder needs a ColumnStore; use exd_transform "
                "directly for in-memory arrays")
        # Validated before anything is written: a checkpoint holding a
        # value the encode rejects could neither finish nor resume.
        self.eps, self.max_atoms = check_encode_args(eps, max_atoms)
        m, n = store.shape
        if dictionary is None:
            size = check_positive_int(size, "size")
            if size > n:
                raise ValidationError(
                    f"cannot sample {size} distinct dictionary columns "
                    f"from N={n} data columns")
        elif dictionary.m != m:
            raise ValidationError(
                f"dictionary rows {dictionary.m} != data rows {m}")
        else:
            size = dictionary.size
        self.size = int(size)
        self.seed = seed
        self.strict = bool(strict)
        self.workers = workers
        self.dictionary = dictionary
        if fast_dict is not None and dictionary is not None \
                and not isinstance(dictionary, Dictionary):
            fast_dict = None  # already factored; nothing to fit
        self.fast_dict = (None if fast_dict is None
                          else as_fast_dict_config(fast_dict))

        # _width_pinned: the caller chose (or budget-derived) the width,
        # so a resume must match it; an un-pinned default instead adopts
        # the width recorded in the checkpoint.
        self._width_pinned = (block_width is not None
                              or memory_budget_bytes is not None)
        if block_width is not None:
            self.block_width = check_block_width(block_width)
        elif memory_budget_bytes is not None:
            self.block_width = plan_block_width(m, self.size,
                                                memory_budget_bytes, n=n)
        else:
            self.block_width = DEFAULT_STREAM_BLOCK

        self.checkpoint_dir = (None if checkpoint_dir is None
                               else Path(checkpoint_dir))
        if self.checkpoint_dir is not None and seed is not None \
                and not isinstance(seed, (int, np.integer)):
            raise ValidationError(
                "checkpointed runs need an integer seed (or None) so the "
                "checkpoint can verify it on resume; got "
                f"{type(seed).__name__}")

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def _params(self) -> dict:
        seed = self.seed
        return {
            "size": self.size,
            "eps": float(self.eps),
            "seed": None if seed is None else int(seed),
            # Atoms are always unit; kept so v4 checkpoints resume.
            "normalize": True,
            "max_atoms": self.max_atoms,
            "strict": self.strict,
            "block_width": self.block_width,
            "fast_dict": (None if self.fast_dict is None else {
                "rc": float(self.fast_dict.rc),
                "levels": int(self.fast_dict.levels),
                "iters": int(self.fast_dict.iters),
            }),
            "rows": int(self.store.shape[0]),
            "columns": int(self.store.shape[1]),
        }

    def _block_path(self, index: int) -> Path:
        return self.checkpoint_dir / BLOCK_DIR / f"block-{index:06d}.npz"

    def _write_checkpoint(self, entries: dict[int, dict],
                          status: str) -> None:
        payload = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "store_fingerprint": self.store.fingerprint(),
            "params": self._params(),
            "blocks": [entries[i] for i in sorted(entries)],
            "status": status,
        }
        _atomic_write_json(self.checkpoint_dir / CHECKPOINT_NAME, payload)
        self._checkpoints_written += 1
        obs.inc("store.checkpoints_written")

    def _save_dictionary(self, dictionary) -> None:
        if isinstance(dictionary, Dictionary):
            _atomic_savez(self.checkpoint_dir / DICTIONARY_NAME,
                          atoms=dictionary.atoms,
                          indices=dictionary.indices)
            return
        # Factored dictionary: persist the factor chain itself so a
        # resume reconstructs the identical operator without refitting.
        kind, arrays = operator_to_arrays(dictionary)
        _atomic_savez(self.checkpoint_dir / DICTIONARY_NAME,
                      dictionary_kind=np.asarray(kind), **arrays)

    def _load_dictionary(self):
        path = self.checkpoint_dir / DICTIONARY_NAME
        if not path.exists():
            raise CheckpointError(
                f"checkpoint at {self.checkpoint_dir} has no "
                f"{DICTIONARY_NAME}; remove the directory and rerun")
        try:
            with np.load(path, allow_pickle=False) as npz:
                if "dictionary_kind" in npz.files:
                    kind = str(npz["dictionary_kind"])
                    arrays = {k: npz[k] for k in npz.files
                              if k != "dictionary_kind"}
                    return operator_from_arrays(kind, arrays)
                return Dictionary(npz["atoms"], npz["indices"])
        except (ValueError, OSError, KeyError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint dictionary {path}: {exc}") from exc

    def _load_checkpoint(self, resume: bool):
        """Return ``(dictionary, completed_entries)`` or fresh-run None.

        ``completed_entries`` only contains blocks whose spill files
        exist and pass their checksums — anything else is silently
        re-encoded.
        """
        if self.checkpoint_dir is None:
            return None
        path = self.checkpoint_dir / CHECKPOINT_NAME
        if not path.exists():
            return None
        if not resume:
            raise CheckpointError(
                f"{self.checkpoint_dir} already holds a checkpoint; pass "
                f"resume=True to continue it or remove the directory for "
                f"a fresh run")
        try:
            with open(path, encoding="utf-8") as fh:
                state = json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint manifest {path}: {exc}") from exc
        version = state.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has format_version {version!r}, "
                f"expected {CHECKPOINT_FORMAT_VERSION}")
        if state.get("store_fingerprint") != self.store.fingerprint():
            raise CheckpointError(
                f"checkpoint {path} was written against different store "
                f"contents (fingerprint mismatch); the data changed "
                f"since the run started")
        params = state.get("params", {})
        ck_width = params.get("block_width")
        if not self._width_pinned and isinstance(ck_width, int) \
                and ck_width > 0 and ck_width % ENCODE_BLOCK_COLS == 0:
            self.block_width = ck_width
        mine = self._params()
        mismatched = sorted(k for k in mine if params.get(k) != mine[k])
        if mismatched:
            detail = ", ".join(
                f"{k}: checkpoint {params.get(k)!r} != requested "
                f"{mine[k]!r}" for k in mismatched)
            raise CheckpointError(
                f"checkpoint {path} parameters do not match this run "
                f"({detail})")
        dictionary = self._load_dictionary()
        # With fast_dict configured, the checkpoint holds the *fitted*
        # operator, not the dense source that was passed in — the fit
        # provenance is pinned by the params check (rc/levels/iters and
        # seed) instead of an atom comparison.
        fitted_resume = (self.fast_dict is not None
                         and self.dictionary is not None
                         and isinstance(self.dictionary, Dictionary)
                         and not isinstance(dictionary, Dictionary))
        if self.dictionary is not None and not fitted_resume \
                and not np.array_equal(
                    self.dictionary.atoms, dictionary.atoms):
            raise CheckpointError(
                f"checkpoint {path} was written with a different "
                f"dictionary than the one passed in")
        # Spill files are validated lazily by the encode loop — a
        # missing or corrupt one is simply re-encoded.
        completed = {int(e["index"]): e for e in state.get("blocks", [])}
        return dictionary, completed

    def _load_block(self, entry: dict) -> _Block | None:
        """Load a spilled block, returning None if missing or corrupt."""
        path = self.checkpoint_dir / BLOCK_DIR / entry["file"]
        if not path.exists():
            warnings.warn(
                f"checkpoint block {path} is missing; re-encoding it",
                stacklevel=2)
            return None
        try:
            with np.load(path, allow_pickle=False) as npz:
                block = _Block(
                    data=np.asarray(npz["data"], dtype=np.float64),
                    indices=np.asarray(npz["indices"], dtype=np.int64),
                    indptr=np.asarray(npz["indptr"], dtype=np.int64),
                    iterations=int(npz["iterations"]),
                    converged=int(npz["converged"]))
        except (ValueError, OSError, KeyError) as exc:
            warnings.warn(
                f"checkpoint block {path} is unreadable ({exc}); "
                f"re-encoding it", stacklevel=2)
            return None
        got = _block_checksum(block.data, block.indices, block.indptr)
        if got != entry.get("checksum"):
            warnings.warn(
                f"checkpoint block {path} fails its checksum; "
                f"re-encoding it", stacklevel=2)
            return None
        return block

    def _spill_block(self, index: int, lo: int, hi: int,
                     block: _Block, entries: dict[int, dict]) -> None:
        path = self._block_path(index)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_savez(path, data=block.data, indices=block.indices,
                      indptr=block.indptr,
                      iterations=np.int64(block.iterations),
                      converged=np.int64(block.converged))
        entries[index] = {
            "index": index,
            "start": lo,
            "stop": hi,
            "file": path.name,
            "checksum": _block_checksum(block.data, block.indices,
                                        block.indptr),
            "iterations": block.iterations,
            "converged": block.converged,
            "nnz": int(block.data.size),
        }
        self._write_checkpoint(entries, "in_progress")

    # ------------------------------------------------------------------
    # dictionary sampling from disk
    # ------------------------------------------------------------------
    def _sample_dictionary(self) -> Dictionary:
        return sample_store_dictionary(
            self.store, self.size, seed=self.seed,
            count_read=self._count_read)

    def _count_read(self, cols: np.ndarray) -> None:
        """Account one store read of columns ``cols``.

        The store reads every chunk that holds a requested column whole,
        so this counts those chunks and all of their bytes, as the
        ``store.chunks_read`` and ``store.bytes_read`` counters do.
        """
        bounds = self.store.chunk_bounds()
        starts = [start for start, _ in bounds]
        touched = np.unique(np.searchsorted(starts, cols, side="right") - 1)
        width = sum(bounds[i][1] - bounds[i][0] for i in touched.tolist())
        self._chunks_read += touched.size
        self._bytes_read += width * self.store.shape[0] \
            * self.store.dtype.itemsize

    # ------------------------------------------------------------------
    # the encode loop
    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False) \
            -> tuple[TransformedData, ExDStats, StreamingReport]:
        """Encode the store; returns ``(transform, stats, report)``.

        ``transform`` and ``stats`` are bit-identical to
        ``exd_transform(store.as_array(), ...)`` with the same
        parameters.  With ``resume=True`` and a populated
        ``checkpoint_dir``, completed blocks are loaded from their spill
        files instead of re-encoded; without a checkpoint on disk,
        ``resume=True`` degrades to a fresh run.
        """
        self._bytes_read = 0
        self._chunks_read = 0
        self._checkpoints_written = 0
        n = self.store.shape[1]
        entries: dict[int, dict] = {}
        resumed = False

        with obs.span("store.stream_encode"):
            # _load_checkpoint may adopt the checkpoint's block width (an
            # un-pinned run resuming a budget-planned one), so the block
            # bounds are derived only afterwards.
            state = self._load_checkpoint(resume)
            width = self.block_width
            bounds = encode_block_bounds(n, width)
            if state is not None:
                dictionary, entries = state
                resumed = True
            elif self.dictionary is not None:
                dictionary = self.dictionary
            else:
                dictionary = self._sample_dictionary()
            if not resumed and self.fast_dict is not None \
                    and isinstance(dictionary, Dictionary):
                cfg = self.fast_dict
                dictionary = fit_fast_dict(
                    dictionary, rc=cfg.rc, levels=cfg.levels,
                    iters=cfg.iters, seed=derive_seed(self.seed, 11))
            if self.checkpoint_dir is not None and not resumed:
                self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
                self._save_dictionary(dictionary)
                self._write_checkpoint(entries, "in_progress")

            gram = dictionary.gram()
            blocks: list[_Block] = []
            encoded = reused = 0
            for index, (lo, hi) in enumerate(bounds):
                entry = entries.get(index)
                if entry is not None:
                    block = self._load_block(entry)
                    if block is not None:
                        blocks.append(block)
                        reused += 1
                        obs.inc("store.blocks_reused")
                        continue
                    del entries[index]
                block, _flops = encode_store_block(
                    self.store, dictionary, gram, self.eps, lo, hi,
                    max_atoms=self.max_atoms, strict=self.strict,
                    workers=self.workers, count_read=self._count_read)
                if self.checkpoint_dir is not None:
                    self._spill_block(index, lo, hi, block, entries)
                blocks.append(block)
                encoded += 1
                obs.inc("store.blocks_encoded")
            if self.checkpoint_dir is not None:
                self._write_checkpoint(entries, "complete")

            c, stats = assemble_blocks(dictionary, blocks, n)
        meta = {"normalized": True}
        if not isinstance(dictionary, Dictionary):
            meta["fastdict_rc"] = float(dictionary.relative_complexity)
            meta["fastdict_residual"] = float(getattr(dictionary,
                                                      "residual", 0.0))
        transform = TransformedData(dictionary=dictionary, coefficients=c,
                                    eps=self.eps, method="exd",
                                    meta=meta)
        obs.inc("exd.transforms")
        obs.observe("exd.alpha", transform.alpha)
        report = StreamingReport(
            block_width=width, blocks_total=len(bounds),
            blocks_encoded=encoded, blocks_reused=reused,
            chunks_read=self._chunks_read, bytes_read=self._bytes_read,
            checkpoints_written=self._checkpoints_written,
            resumed=resumed)
        return transform, stats, report
