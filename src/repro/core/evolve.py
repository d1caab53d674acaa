"""Evolving-data updates (Sec. V-E, Fig. 3).

When new columns ``A_new`` arrive:

1. sparse-code them against the *existing* dictionary (OMP, step 3 of
   Alg. 1).  If every column meets ε, simply append the codes;
2. otherwise run ExD on the unrepresentable remainder to get
   ``(D_new, C_new)`` and form the zero-padded block structure

   ::

        D' = [D  D_new]          C' = [ C   C_app      0   ]
                                      [ 0     0      C_new ]

   so the whole updated dataset satisfies ``A' ≈ D'C'`` without
   re-transforming the original columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dictionary import Dictionary
from repro.core.exd import exd_transform
from repro.core.transform import TransformedData
from repro.errors import ValidationError
from repro.linalg.omp import (
    ENCODE_BLOCK_COLS,
    batch_omp_matrix,
    check_block_width,
)
from repro.sparse.csc import CSCMatrix
from repro.utils.validation import check_matrix


@dataclass
class ExtendResult:
    """Outcome of one evolving-data update.

    Attributes
    ----------
    transform:
        The updated transform covering ``[A, A_new]``.
    appended_columns:
        New columns representable by the old dictionary.
    extended_columns:
        New columns that required dictionary growth.
    dictionary_grew:
        Whether ``D_new`` atoms were added.
    """

    transform: TransformedData
    appended_columns: int
    extended_columns: int
    dictionary_grew: bool


def _stream_new_column_codes(transform: TransformedData, store,
                             *, workers, block_width):
    """Phase-1 coding of store-backed new columns, block by block.

    Blocks are aligned to ``A_new``'s own first column in
    :data:`~repro.linalg.omp.ENCODE_BLOCK_COLS` panels — the same
    partition the one-shot in-memory coding uses internally — so the
    returned codes and ε verdicts are bit-identical to feeding the
    dense ``store.as_array()`` through :func:`batch_omp_matrix`.
    """
    width = 4 * ENCODE_BLOCK_COLS if block_width is None \
        else check_block_width(block_width)
    gram = transform.dictionary.gram()
    parts, masks = [], []
    for _lo, _hi, raw in store.iter_blocks(width):
        c_blk, st = batch_omp_matrix(transform.dictionary, raw,
                                     transform.eps, gram=gram,
                                     workers=workers)
        parts.append(c_blk)
        masks.append(st.converged_mask)
    return CSCMatrix.hstack_all(parts), np.concatenate(masks)


def extend_transform(transform: TransformedData, a_new, *, seed=None,
                     new_dictionary_size: int | None = None,
                     workers: int | None = None,
                     block_width: int | None = None) -> ExtendResult:
    """Incorporate new columns into an existing ExD transform.

    Parameters
    ----------
    transform:
        The current ``A ≈ DC`` (must be an ExD-style sparse transform).
        The dictionary may be any ``DictOperator``: a factored
        :class:`~repro.core.fastdict.FastDict` base grows into a
        ``[FastDict | dense C]`` block operator, keeping the factored
        apply for the base atoms.
    a_new:
        New columns, shape ``(M, N_new)`` — a dense array or a
        :class:`~repro.store.ColumnStore` (the new columns are then
        streamed from disk; the result is bit-identical to the dense
        path).
    new_dictionary_size:
        Dictionary size for the fallback ExD run on unrepresentable
        columns; defaults to ``min(L, N_fail)`` where N_fail is their
        count.
    workers:
        Column-parallel Batch-OMP worker count for the phase-1 coding
        (and the fallback ExD run); output is identical to serial.
    block_width:
        Streaming block width for a store-backed ``a_new`` (multiple of
        :data:`~repro.linalg.omp.ENCODE_BLOCK_COLS`); ignored for dense
        input.
    """
    from repro.store.column_store import is_column_store, take_columns

    streamed = is_column_store(a_new)
    if not streamed:
        a_new = check_matrix(a_new, "A_new")
    if a_new.shape[0] != transform.m:
        raise ValidationError(
            f"A_new has {a_new.shape[0]} rows, transform expects "
            f"{transform.m}")
    eps = transform.eps

    # Phase 1: code the new columns against the existing dictionary.
    # The per-column ε verdicts come straight from Batch-OMP — a dense
    # O(M·N·L) re-reconstruction would be redundant, and its different
    # numerical floor could disagree with the solver at tight eps.
    if streamed:
        codes, col_ok = _stream_new_column_codes(
            transform, a_new, workers=workers, block_width=block_width)
    else:
        codes, stats = batch_omp_matrix(transform.dictionary, a_new,
                                        eps, workers=workers)
        col_ok = stats.converged_mask
    ok_idx = np.nonzero(col_ok)[0]
    fail_idx = np.nonzero(~col_ok)[0]

    if fail_idx.size == 0:
        appended = transform.coefficients.hstack(codes)
        updated = TransformedData(dictionary=transform.dictionary,
                                  coefficients=appended, eps=eps,
                                  method=transform.method,
                                  meta=dict(transform.meta))
        return ExtendResult(transform=updated,
                            appended_columns=int(ok_idx.size),
                            extended_columns=0, dictionary_grew=False)

    # Phase 2: the remainder spans new structure — run ExD on it and
    # zero-pad (Fig. 3).  The remainder is gathered densely: by
    # assumption it is the small unrepresentable tail, not the dataset.
    remainder = take_columns(a_new, fail_idx)
    l_new = new_dictionary_size or min(transform.l, remainder.shape[1])
    l_new = min(l_new, remainder.shape[1])
    sub_transform, _ = exd_transform(remainder, l_new, eps, seed=seed,
                                     workers=workers)
    new_atoms = Dictionary(sub_transform.dictionary.atoms,
                           np.full(sub_transform.l, -1, dtype=np.int64))
    grown = transform.dictionary.concat(new_atoms)

    # Rebuild the new-column block preserving the original column order:
    # representable columns keep their old-dictionary codes (zero-padded
    # below); unrepresentable ones take their D_new codes shifted below
    # the old atoms (Fig. 3's block structure).
    from repro.sparse.builder import ColumnBuilder
    builder = ColumnBuilder(nrows=grown.size)
    fail_pos = {int(j): k for k, j in enumerate(fail_idx)}
    sub_c = sub_transform.coefficients
    for j in range(a_new.shape[1]):
        if col_ok[j]:
            lo, hi = codes.indptr[j], codes.indptr[j + 1]
            builder.add_column(codes.indices[lo:hi], codes.data[lo:hi])
        else:
            k = fail_pos[j]
            lo, hi = sub_c.indptr[k], sub_c.indptr[k + 1]
            builder.add_column(sub_c.indices[lo:hi] + transform.l,
                               sub_c.data[lo:hi])
    new_block = builder.finalize()
    combined = transform.coefficients.pad_rows(grown.size).hstack(new_block)
    updated = TransformedData(dictionary=grown, coefficients=combined,
                              eps=eps, method=transform.method,
                              meta=dict(transform.meta))
    return ExtendResult(transform=updated,
                        appended_columns=int(ok_idx.size),
                        extended_columns=int(fail_idx.size),
                        dictionary_grew=True)
