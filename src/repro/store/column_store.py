"""On-disk, column-chunked matrix container.

Layout of a store directory::

    store/
      manifest.json        # schema, dtype, shape, chunk width, chunks
      chunks/
        chunk-000000.npy   # (M, w) C-contiguous array, w <= chunk_width
        chunk-000001.npy
        ...

The manifest is the source of truth: every chunk entry records its file
name, first column, width and a CRC-32 checksum of the raw array bytes.
Manifest updates are atomic (written to a temp file, fsynced, then
``os.replace`` + directory fsync) and chunk files are fully written
before the manifest references them.  A chunk file referenced by the
current manifest is **never rewritten in place**: topping up the
trailing partial chunk writes a new *generation* of that chunk under a
fresh file name that only the new manifest references, so a writer
killed at any instant leaves either the old consistent store or the new
one — never a chunk wider than its manifest entry.  Orphan files from
interrupted appends are garbage-collected by the next append.

Reads are whole-chunk: a chunk file's ``.npy`` header is parsed and
checked on its first read through a store instance, and every read is
then one ``numpy.fromfile`` of the whole chunk, with no memory map.
Random access via :meth:`ColumnStore.read_columns` touches only the
chunks that hold the requested columns, which is what lets α estimation
and the tuner sample a few hundred columns out of a matrix that never
fits in memory.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path

import numpy as np

from repro import observability as obs
from repro.errors import ValidationError
from repro.utils.validation import check_matrix, check_positive_int

__all__ = [
    "ColumnStore",
    "check_matrix_or_store",
    "is_column_store",
    "matrix_shape",
    "take_columns",
]

MANIFEST_NAME = "manifest.json"
CHUNK_DIR = "chunks"
STORE_FORMAT_VERSION = 1
DEFAULT_CHUNK_WIDTH = 256


def _crc32(arr: np.ndarray) -> str:
    """CRC-32 of the array's raw bytes, as zero-padded hex."""
    return f"{zlib.crc32(np.ascontiguousarray(arr).tobytes()):08x}"


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (durability of renames within).

    ``os.replace`` makes a rename atomic but not durable: on power loss
    the directory entry can be lost, resurrecting the old file.  Opening
    the directory and fsyncing its fd flushes the rename; platforms that
    cannot fsync a directory (or open one with ``O_RDONLY``) are
    tolerated silently — they offer no stronger primitive anyway.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write JSON durably: temp file + fsync + atomic rename + dir fsync."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


class ColumnStore:
    """A matrix stored on disk as column chunks, opened by directory.

    Use the classmethod constructors: :meth:`create` (empty store, grown
    with :meth:`append_columns`), :meth:`from_matrix` (chunk an existing
    array) or :meth:`open` (attach to a store on disk).  Instances hold
    no file handles between calls; every read reads just the chunks it
    needs, each whole.
    """

    def __init__(self, path, manifest: dict) -> None:
        self.path = Path(path)
        self._manifest = manifest
        # chunk file name -> payload offset (see _read_chunk)
        self._offsets: dict[str, int] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path, m: int, *, chunk_width: int = DEFAULT_CHUNK_WIDTH,
               dtype: str = "float64", attrs: dict | None = None,
               exist_ok: bool = False) -> "ColumnStore":
        """Create an empty store for ``(m, 0)`` data at ``path``."""
        m = check_positive_int(m, "m")
        chunk_width = check_positive_int(chunk_width, "chunk_width")
        np.dtype(dtype)  # validates the name early
        path = Path(path)
        if path.exists():
            if not exist_ok or (path / MANIFEST_NAME).exists():
                raise ValidationError(
                    f"refusing to create a column store at existing path "
                    f"{path}")
        (path / CHUNK_DIR).mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "dtype": str(np.dtype(dtype)),
            "rows": int(m),
            "columns": 0,
            "chunk_width": int(chunk_width),
            "chunks": [],
            "attrs": dict(attrs or {}),
            "generation": 0,
            "last_append_at": None,
        }
        _atomic_write_json(path / MANIFEST_NAME, manifest)
        return cls(path, manifest)

    @classmethod
    def from_matrix(cls, path, a, *, chunk_width: int = DEFAULT_CHUNK_WIDTH,
                    dtype: str = "float64",
                    attrs: dict | None = None) -> "ColumnStore":
        """Chunk a dense matrix into a new store (validates finiteness)."""
        a = check_matrix(a, "A", dtype=np.dtype(dtype))
        store = cls.create(path, a.shape[0], chunk_width=chunk_width,
                           dtype=dtype, attrs=attrs)
        store.append_columns(a)
        return store

    @classmethod
    def open(cls, path) -> "ColumnStore":
        """Attach to an existing store directory, validating its manifest."""
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise ValidationError(
                f"no column store at {path} (missing {MANIFEST_NAME})")
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            raise ValidationError(
                f"corrupt column-store manifest at {manifest_path}: "
                f"{exc}") from exc
        version = manifest.get("format_version")
        if not isinstance(version, int) or version < 1:
            raise ValidationError(
                f"{manifest_path} is not a column-store manifest "
                f"(format_version={version!r})")
        if version > STORE_FORMAT_VERSION:
            raise ValidationError(
                f"column store {path} uses format_version {version}, "
                f"newer than the latest supported "
                f"({STORE_FORMAT_VERSION}); upgrade repro to read it")
        for key in ("dtype", "rows", "columns", "chunk_width", "chunks"):
            if key not in manifest:
                raise ValidationError(
                    f"column-store manifest {manifest_path} is missing "
                    f"required key {key!r}")
        return cls(path, manifest)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(M, N)`` of the stored matrix."""
        return (int(self._manifest["rows"]), int(self._manifest["columns"]))

    @property
    def ndim(self) -> int:
        """Always 2 — a store is a matrix."""
        return 2

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the stored chunks."""
        return np.dtype(self._manifest["dtype"])

    @property
    def chunk_width(self) -> int:
        """Maximum columns per chunk (the last chunk may be narrower)."""
        return int(self._manifest["chunk_width"])

    @property
    def n_chunks(self) -> int:
        """Number of chunk files."""
        return len(self._manifest["chunks"])

    @property
    def attrs(self) -> dict:
        """User metadata recorded at creation (dataset provenance etc.)."""
        return dict(self._manifest.get("attrs", {}))

    @property
    def nbytes(self) -> int:
        """Total payload bytes across chunks."""
        m = self.shape[0]
        return sum(int(c["columns"]) * m * self.dtype.itemsize
                   for c in self._manifest["chunks"])

    @property
    def generation(self) -> int:
        """Append counter: +1 on every successful ``append_columns``.

        Monotonically increasing, persisted in the manifest; stores
        written before this key existed read as generation 0.
        """
        return int(self._manifest.get("generation", 0))

    @property
    def last_append_at(self) -> float | None:
        """Unix timestamp of the last append (``None`` if never)."""
        value = self._manifest.get("last_append_at")
        return None if value is None else float(value)

    def describe(self) -> dict:
        """One JSON-ready snapshot of the store's metadata.

        What the drift monitor (and ``repro info``/``maintain``) polls
        to decide whether new data arrived — no chunk is touched.
        """
        m, n = self.shape
        return {
            "path": str(self.path),
            "format_version": int(self._manifest["format_version"]),
            "rows": m,
            "columns": n,
            "dtype": str(self.dtype),
            "chunk_width": self.chunk_width,
            "n_chunks": self.n_chunks,
            "nbytes": self.nbytes,
            "generation": self.generation,
            "last_append_at": self.last_append_at,
            "attrs": self.attrs,
        }

    def chunk_bounds(self) -> list[tuple[int, int]]:
        """``[start, stop)`` column range of every chunk, in order."""
        return [(int(c["start"]), int(c["start"]) + int(c["columns"]))
                for c in self._manifest["chunks"]]

    def fingerprint(self) -> str:
        """Stable content fingerprint (shape, dtype and chunk checksums).

        Checkpoints record this to refuse resuming against a store whose
        contents changed (including appends) since the run started.
        """
        parts = [str(self.shape), str(self.dtype),
                 str(self.chunk_width)]
        parts += [c["checksum"] for c in self._manifest["chunks"]]
        return f"{zlib.crc32('|'.join(parts).encode('utf-8')):08x}"

    def __repr__(self) -> str:
        m, n = self.shape
        return (f"ColumnStore(path={str(self.path)!r}, shape=({m}, {n}), "
                f"chunks={self.n_chunks}, chunk_width={self.chunk_width})")

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _chunk_path(self, index: int, generation: int = 0) -> Path:
        name = (f"chunk-{index:06d}.npy" if generation == 0
                else f"chunk-{index:06d}.g{generation:03d}.npy")
        return self.path / CHUNK_DIR / name

    @staticmethod
    def _chunk_generation(entry: dict) -> int:
        """Generation counter encoded in a manifest entry's file name."""
        stem = Path(entry["file"]).name
        parts = stem.split(".")
        if len(parts) == 3 and parts[1].startswith("g"):
            try:
                return int(parts[1][1:])
            except ValueError:
                return 0
        return 0

    def _write_chunk(self, index: int, arr: np.ndarray,
                     generation: int = 0) -> dict:
        """Write one chunk file atomically; return its manifest entry.

        ``generation`` > 0 writes a *new generation* of an existing
        chunk under a fresh file name: the live chunk file a current
        manifest references is never rewritten in place, so a crash at
        any point between this write and the manifest replace leaves
        the old store fully consistent (the new file is just an orphan
        until the manifest lands).
        """
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        final = self._chunk_path(index, generation)
        tmp = final.with_suffix(".npy.tmp")
        with open(tmp, "wb") as fh:
            np.save(fh, arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        fsync_dir(final.parent)
        return {"file": f"{CHUNK_DIR}/{final.name}",
                "start": 0,  # caller fixes up
                "columns": int(arr.shape[1]),
                "checksum": _crc32(arr)}

    def collect_orphans(self) -> int:
        """Delete chunk-directory files the manifest does not reference.

        Interrupted appends can leave ``*.npy.tmp`` temporaries and
        superseded (or never-referenced) chunk generations behind; they
        are harmless for correctness but waste disk.  Returns the number
        of files removed.  Called automatically by
        :meth:`append_columns`.
        """
        referenced = {Path(c["file"]).name for c in self._manifest["chunks"]}
        removed = 0
        chunk_dir = self.path / CHUNK_DIR
        if not chunk_dir.is_dir():
            return 0
        for entry in sorted(chunk_dir.iterdir()):
            if not entry.is_file() or entry.name in referenced:
                continue
            if not (entry.name.endswith(".npy")
                    or entry.name.endswith(".npy.tmp")):
                continue
            try:
                entry.unlink()
                removed += 1
            except OSError:
                continue  # best effort; retried on the next append
        if removed:
            fsync_dir(chunk_dir)
            obs.inc("store.orphans_collected", removed)
        return removed

    def append_columns(self, a_new) -> int:
        """Append a block of columns; returns the new total column count.

        The last partial chunk (if any) is topped up to ``chunk_width``
        by writing a *new generation* of that chunk under a fresh file
        name; further columns land in fresh chunks.  The manifest is
        replaced atomically only after every touched chunk file is fully
        on disk and no referenced file was modified, so a writer killed
        at any instant leaves either the previous consistent store or
        the new one — readers (and checkpoint fingerprints) never
        observe a half-appended store.  Orphans from a previously killed
        append are reclaimed first.
        """
        a_new = check_matrix(a_new, "A_new", dtype=self.dtype)
        m = self.shape[0]
        if a_new.shape[0] != m:
            raise ValidationError(
                f"appended columns have {a_new.shape[0]} rows, store "
                f"holds {m}")
        self.collect_orphans()
        width = self.chunk_width
        chunks = [dict(c) for c in self._manifest["chunks"]]
        pending = a_new
        appended = a_new.shape[1]

        # Top up the trailing partial chunk first — into a new
        # generation file, never over the live one.
        if chunks and int(chunks[-1]["columns"]) < width:
            last = chunks[-1]
            take = min(width - int(last["columns"]), pending.shape[1])
            old = self._read_chunk(len(chunks) - 1)
            merged = np.concatenate([old, pending[:, :take]], axis=1)
            entry = self._write_chunk(
                len(chunks) - 1, merged,
                generation=self._chunk_generation(last) + 1)
            entry["start"] = int(last["start"])
            chunks[-1] = entry
            self._offsets.pop(last["file"], None)
            pending = pending[:, take:]

        start = self.shape[1] + (appended - pending.shape[1])
        while pending.shape[1]:
            take = min(width, pending.shape[1])
            entry = self._write_chunk(len(chunks), pending[:, :take])
            entry["start"] = start
            chunks.append(entry)
            start += take
            pending = pending[:, take:]

        manifest = dict(self._manifest)
        manifest["chunks"] = chunks
        manifest["columns"] = int(self._manifest["columns"]) + appended
        # Monotone append generation + wall-clock stamp: the drift
        # monitor asks "how much new data since the last refresh"
        # through describe() without scanning chunks.  Pre-generation
        # manifests read as generation 0 (missing keys default), and
        # fingerprint() ignores both keys so checkpoints stay valid.
        manifest["generation"] = \
            int(self._manifest.get("generation", 0)) + 1
        manifest["last_append_at"] = time.time()
        _atomic_write_json(self.path / MANIFEST_NAME, manifest)
        self._manifest = manifest
        obs.inc("store.columns_appended", appended)
        return manifest["columns"]

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _chunk_offset(self, entry: dict) -> int:
        """Parse a chunk file's ``.npy`` header from disk and check it.

        Checks the magic string and format version, C order, the store's
        dtype and the manifest entry's shape; returns the byte offset of
        the payload.
        """
        path = self.path / entry["file"]
        try:
            with open(path, "rb") as fh:
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    header = np.lib.format.read_array_header_1_0(fh)
                elif version == (2, 0):
                    header = np.lib.format.read_array_header_2_0(fh)
                else:
                    raise ValueError(
                        f"unsupported .npy format version {version}")
                offset = fh.tell()
        except FileNotFoundError:
            raise self._missing(entry) from None
        except (ValueError, OSError) as exc:
            raise ValidationError(
                f"corrupt chunk file {path}: {exc}") from exc
        shape, fortran, dtype = header
        want = (self.shape[0], int(entry["columns"]))
        if shape != want:
            raise ValidationError(
                f"chunk file {path} has shape {shape}, manifest says {want}")
        if fortran or dtype != self.dtype:
            raise ValidationError(
                f"chunk file {path} holds {'Fortran' if fortran else 'C'}"
                f"-order {dtype} data; the store reads C-order "
                f"{self.dtype}")
        return offset

    def _missing(self, entry: dict) -> ValidationError:
        return ValidationError(
            f"column store {self.path} is missing chunk file "
            f"{entry['file']}")

    def _read_payload(self, entry: dict, offset: int) -> np.ndarray:
        """The whole chunk of ``entry``, read from byte ``offset`` on."""
        path = self.path / entry["file"]
        shape = (self.shape[0], int(entry["columns"]))
        count = shape[0] * shape[1]
        try:
            arr = np.fromfile(path, dtype=self.dtype, count=count,
                              offset=offset)
        except FileNotFoundError:
            raise self._missing(entry) from None
        except (ValueError, OSError) as exc:
            raise ValidationError(
                f"corrupt chunk file {path}: {exc}") from exc
        if arr.size != count:
            raise ValidationError(
                f"chunk file {path} is truncated: {arr.size} of {count} "
                f"values")
        obs.inc("store.chunks_read")
        obs.inc("store.bytes_read", arr.nbytes)
        return arr.reshape(shape)

    def _read_chunk(self, index: int) -> np.ndarray:
        """Chunk ``index`` as a fresh array: one whole-chunk read.

        Each file's header is parsed and checked once per store
        instance.  Caching its payload offset by file name is sound
        because a chunk file the manifest references is never rewritten
        under its name (a top-up writes a new generation file instead).
        """
        entry = self._manifest["chunks"][index]
        offset = self._offsets.get(entry["file"])
        if offset is None:
            offset = self._offsets[entry["file"]] = \
                self._chunk_offset(entry)
        return self._read_payload(entry, offset)

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Contiguous columns ``[lo, hi)`` as a fresh C-contiguous array.

        Only the chunks overlapping the range are opened.
        """
        m, n = self.shape
        if not (0 <= lo <= hi <= n):
            raise ValidationError(
                f"invalid column range [{lo}, {hi}) for N={n}")
        out = np.empty((m, hi - lo), dtype=self.dtype)
        for index, (start, stop) in enumerate(self.chunk_bounds()):
            if stop <= lo or start >= hi:
                continue
            arr = self._read_chunk(index)
            a, b = max(lo, start), min(hi, stop)
            out[:, a - lo:b - lo] = arr[:, a - start:b - start]
        return out

    def read_columns(self, cols) -> np.ndarray:
        """Gather an arbitrary column subset (chunks opened at most once).

        Equivalent to ``A[:, cols]`` on the dense matrix — duplicate and
        unsorted indices are honoured in order.
        """
        cols = np.asarray(cols, dtype=np.int64)
        if cols.ndim != 1:
            raise ValidationError("cols must be 1-D")
        m, n = self.shape
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValidationError(
                f"column index out of range [0, {n})")
        out = np.empty((m, cols.size), dtype=self.dtype)
        bounds = self.chunk_bounds()
        starts = np.asarray([b[0] for b in bounds], dtype=np.int64)
        owner = (np.searchsorted(starts, cols, side="right") - 1
                 if cols.size else np.empty(0, dtype=np.int64))
        for index in np.unique(owner):
            arr = self._read_chunk(int(index))
            mask = owner == index
            out[:, mask] = arr[:, cols[mask] - starts[index]]
        return out

    def shard_plan(self, p: int) -> list[tuple[int, int]]:
        """Deterministic contiguous chunk partition for ``p`` ranks.

        Returns one half-open column range ``(lo, hi)`` per rank,
        chunk-aligned and covering ``[0, N)`` in rank order.  A pure
        function of the manifest's chunk boundaries and ``p``: every
        process derives the identical plan from the same manifest, so
        SPMD ranks agree on column ownership without communicating.
        Ranks beyond the chunk count receive empty ranges.
        """
        p = check_positive_int(p, "p")
        bounds = self.chunk_bounds()
        c = len(bounds)
        n = self.shape[1]
        plan: list[tuple[int, int]] = []
        for r in range(p):
            lo_c = r * c // p
            hi_c = (r + 1) * c // p
            if lo_c == hi_c:
                edge = bounds[lo_c][0] if lo_c < c else n
                plan.append((edge, edge))
            else:
                plan.append((bounds[lo_c][0], bounds[hi_c - 1][1]))
        return plan

    def iter_blocks(self, width: int):
        """Yield ``(lo, hi, array)`` over fixed-width column blocks.

        Blocks start at multiples of ``width`` from column 0 and the
        arrays are fresh C-contiguous copies — the read pattern of the
        streaming encoder.
        """
        width = check_positive_int(width, "width")
        n = self.shape[1]
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            yield lo, hi, self.read_range(lo, hi)

    def as_array(self) -> np.ndarray:
        """Materialise the full matrix densely (tests / small stores)."""
        return self.read_range(0, self.shape[1])

    def verify(self) -> bool:
        """Check every chunk file against its manifest checksum.

        Every header is parsed and checked from disk again, whatever
        earlier reads cached.  Returns ``True`` when all chunks are
        intact; raises :class:`~repro.errors.ValidationError` naming the
        first corrupt or missing chunk otherwise.
        """
        for entry in self._manifest["chunks"]:
            arr = self._read_payload(entry, self._chunk_offset(entry))
            got = _crc32(arr)
            if got != entry["checksum"]:
                raise ValidationError(
                    f"chunk {entry['file']} of {self.path} fails its "
                    f"checksum (manifest {entry['checksum']}, file {got})")
        return True


# ----------------------------------------------------------------------
# ndarray-or-store adapters used by the core entry points
# ----------------------------------------------------------------------
def is_column_store(obj) -> bool:
    """Whether ``obj`` is a :class:`ColumnStore`."""
    return isinstance(obj, ColumnStore)


def matrix_shape(a) -> tuple[int, int]:
    """``(M, N)`` of an ndarray-like or a :class:`ColumnStore`."""
    return tuple(int(s) for s in a.shape)


def take_columns(a, cols) -> np.ndarray:
    """``A[:, cols]`` as a dense array, for ndarray or store input."""
    if is_column_store(a):
        return a.read_columns(np.asarray(cols, dtype=np.int64))
    return a[:, np.asarray(cols, dtype=np.int64)]


def check_matrix_or_store(a, name: str = "A"):
    """Validate ``a`` as a data matrix; stores pass through unchanged.

    ndarray-likes get the usual :func:`check_matrix` treatment (dtype,
    2-D, finiteness); a :class:`ColumnStore` is accepted as-is — its
    chunks were finiteness-checked when written.
    """
    if is_column_store(a):
        if a.shape[0] == 0 or a.shape[1] == 0:
            raise ValidationError(
                f"{name} must be non-empty, got store shape {a.shape}")
        if a.dtype != np.float64:
            raise ValidationError(
                f"{name} must hold float64 data for encoding, got store "
                f"dtype {a.dtype}")
        return a
    return check_matrix(a, name)
