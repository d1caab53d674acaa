"""Out-of-core column store + streaming ExD pipeline.

The paper's memory model (Eq. 4) and evolving-data path (Sec. V-E) both
assume ``A`` arrives in column blocks and never has to exist as one
dense in-memory array.  This package supplies that storage layer:

* :class:`~repro.store.column_store.ColumnStore` — an on-disk,
  column-chunked matrix container with a JSON manifest (dtype, shape,
  chunk width, per-chunk checksums), append-only column growth for
  evolving data, and random access that only touches the chunks it
  needs, each read whole (no memory map).
* :class:`~repro.store.streaming.StreamingEncoder` — drives Batch-OMP
  chunk-by-chunk under a byte budget derived from Eq. 4, spilling
  encoded ``C`` blocks to disk and writing a checkpoint manifest after
  each block so a killed run resumes from the last completed block
  bit-identically.

Store-backed matrices flow through the existing stack:
``exd_transform`` / ``extend_transform`` accept a ``ColumnStore``
directly, α estimation and the tuner read only their sampled subset
columns from disk, ``ExtDict.from_store`` runs the whole framework
without materialising ``A``, and the CLI grows ``ingest`` and
``transform --store/--resume``.

Bit-identity with the in-memory path is engineered, not hoped for: BLAS
products are *not* column-wise reproducible across matrix widths, so
every encode path evaluates ``DᵀA`` and the column norms over the same
fixed, absolutely-aligned column panels
(:data:`repro.linalg.omp.ENCODE_BLOCK_COLS`).  See ``docs/store.md``.
"""

from repro.store.column_store import (
    ColumnStore,
    check_matrix_or_store,
    is_column_store,
    matrix_shape,
    take_columns,
)
from repro.store.streaming import (
    CheckpointError,
    StreamingEncoder,
    StreamingReport,
    plan_block_width,
    sample_store_dictionary,
)

__all__ = [
    "CheckpointError",
    "ColumnStore",
    "StreamingEncoder",
    "StreamingReport",
    "check_matrix_or_store",
    "is_column_store",
    "matrix_shape",
    "plan_block_width",
    "sample_store_dictionary",
    "take_columns",
]
