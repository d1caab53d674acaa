"""Algorithm 1 — the ExD projection.

Given a data matrix ``A``, a tolerance ``ε`` and a dictionary size ``L``:

0. rank 0 draws a random index set ``I`` of size ``L`` and broadcasts it;
1. every rank loads ``D = A[:, I]`` and scales its atoms to unit norm;
2. every rank loads its column block ``A_i``;
3. every rank sparse-codes its block with (Batch-)OMP.

Only the atoms are normalised.  The greedy step compares ``|dⱼᵀr|``, so
it needs unit atoms, but Eq. 1's stopping rule ``‖a − Dc‖₂ ≤ ε‖a‖₂`` is
scale-invariant, so each data column is coded at its own scale and its
code is ``C[:, j]`` directly — the same bits a served encode of that
column returns.

:func:`exd_transform` is the serial entry point (also used per-rank);
:func:`exd_transform_distributed` executes the SPMD version on the MPI
emulator, charging the virtual clocks with the Batch-OMP FLOP model so
preprocessing overhead (Table II) can be simulated per platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.core.dictionary import Dictionary, sample_dictionary
from repro.core.transform import TransformedData
from repro.errors import ValidationError
from repro.linalg.omp import (
    batch_omp_matrix,
    blocked_column_norms,
    check_block_width,
    check_encode_args,
    encode_block_bounds,
)
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_fraction, check_matrix, check_positive_int


@dataclass
class ExDStats:
    """Bookkeeping from one ExD run."""

    columns: int
    converged_columns: int
    omp_iterations: int
    flops: int

    @property
    def all_converged(self) -> bool:
        """Whether every column met the ε criterion (L ≥ L_min)."""
        return self.converged_columns == self.columns


def normalize_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale columns to unit ℓ2 norm; zero columns stay zero.

    Returns the normalised matrix and the original norms.  The norms use
    the encode engine's blocked reduction
    (:func:`repro.linalg.omp.blocked_column_norms`), which sums each
    column on its own, so a column gets the same bits whichever columns
    it is normalised with: the ``L`` sampled atoms, normalised alone by
    the in-memory fit, the store sampler and the ranks of Algorithm 1,
    get the bits they would get inside the whole matrix.
    """
    norms = blocked_column_norms(np.asarray(a, dtype=np.float64))
    safe = np.where(norms > 0, norms, 1.0)
    return a / safe, norms


def exd_transform(a, size: int, eps: float, *, seed=None,
                  max_atoms: int | None = None, strict: bool = False,
                  dictionary: Dictionary | None = None,
                  workers: int | None = None,
                  memory_budget_bytes: int | None = None,
                  block_width: int | None = None,
                  checkpoint_dir=None, resume: bool = False,
                  fast_dict=None) \
        -> tuple[TransformedData, ExDStats]:
    """Serial ExD: sample ``D`` and sparse-code every column of ``A``.

    Parameters
    ----------
    a:
        Data matrix ``(M, N)`` — a dense array, or a
        :class:`~repro.store.ColumnStore` to encode out-of-core (the
        result is bit-identical to passing ``store.as_array()``).
    size:
        Dictionary size L (the tunable redundancy knob).
    eps:
        Relative transformation error tolerance of Eq. 1.
    dictionary:
        Reuse a pre-sampled dictionary instead of sampling one (used by
        the SPMD driver, where rank 0's sample is shared).  May be any
        ``DictOperator`` — passing a fitted
        :class:`~repro.core.fastdict.FastDict` encodes through the
        factor chain.
    fast_dict:
        Learn a sparse-factor fast transform of the sampled dictionary
        before encoding (see :mod:`repro.core.fastdict`): a float is
        the relative-complexity budget ``RC``, or pass a full
        :class:`~repro.core.fastdict.FastDictConfig`.  Ignored when an
        explicit already-factored ``dictionary`` is supplied; the fit
        is deterministic given ``seed``.
    strict:
        Propagate :class:`~repro.errors.DictionaryError` when a column
        cannot meet ``eps`` (the ``L < L_min`` regime); otherwise the
        result carries ``stats.all_converged == False``.
    workers:
        Column-parallel Batch-OMP worker count (``None`` = serial,
        ``-1`` = all cores); the coefficients are bit-identical to the
        serial encode for every value.
    memory_budget_bytes, block_width, checkpoint_dir, resume:
        Out-of-core knobs, only meaningful for a
        :class:`~repro.store.ColumnStore` input (see
        :class:`~repro.store.StreamingEncoder`); passing any of them
        with an in-memory array raises
        :class:`~repro.errors.ValidationError`.
    """
    from repro.store.column_store import is_column_store

    if is_column_store(a):
        from repro.store.streaming import StreamingEncoder

        encoder = StreamingEncoder(
            a, size, eps, seed=seed,
            max_atoms=max_atoms, strict=strict, workers=workers,
            dictionary=dictionary,
            memory_budget_bytes=memory_budget_bytes,
            block_width=block_width, checkpoint_dir=checkpoint_dir,
            fast_dict=fast_dict)
        transform, stats, _report = encoder.run(resume=resume)
        return transform, stats
    if (memory_budget_bytes is not None or block_width is not None
            or checkpoint_dir is not None or resume):
        raise ValidationError(
            "memory_budget_bytes/block_width/checkpoint_dir/resume "
            "require a ColumnStore input; in-memory arrays are encoded "
            "in one pass")
    a = check_matrix(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    with obs.span("exd.transform"):
        if dictionary is None:
            size = check_positive_int(size, "size")
            dictionary = sample_dictionary(a, size, seed=seed)
            dictionary = Dictionary(normalize_columns(dictionary.atoms)[0],
                                    dictionary.indices)
        elif dictionary.m != a.shape[0]:
            raise ValidationError(
                f"dictionary rows {dictionary.m} != data rows {a.shape[0]}")
        if fast_dict is not None and isinstance(dictionary, Dictionary):
            from repro.core.fastdict import as_fast_dict_config, fit_fast_dict
            cfg = as_fast_dict_config(fast_dict)
            dictionary = fit_fast_dict(dictionary, rc=cfg.rc,
                                       levels=cfg.levels, iters=cfg.iters,
                                       seed=derive_seed(seed, 11))

        c, omp_stats = batch_omp_matrix(dictionary, a, eps,
                                        max_atoms=max_atoms, strict=strict,
                                        workers=workers)
    stats = ExDStats(columns=omp_stats.columns,
                     converged_columns=omp_stats.converged_columns,
                     omp_iterations=omp_stats.total_iterations,
                     flops=omp_stats.flops)
    meta = {"normalized": True}
    if not isinstance(dictionary, Dictionary):
        meta["fastdict_rc"] = float(dictionary.relative_complexity)
        meta["fastdict_residual"] = float(getattr(dictionary, "residual",
                                                  0.0))
    transform = TransformedData(dictionary=dictionary, coefficients=c,
                                eps=eps, method="exd", meta=meta)
    obs.inc("exd.transforms")
    obs.observe("exd.alpha", transform.alpha)
    return transform, stats


def _exd_rank_program(comm, a, size, eps, seed, max_atoms):
    """SPMD body of Algorithm 1 (one rank)."""
    rank, p = comm.Get_rank(), comm.Get_size()
    m, n = a.shape
    # Defence in depth for direct run_spmd callers: the public driver
    # validates this before launching ranks (fast fail, no rank thread).
    if size > n:
        raise ValidationError(
            f"cannot sample {size} distinct dictionary columns from "
            f"N={n} data columns")
    # Step 0: rank 0 samples the index set and broadcasts it.
    if rank == 0:
        rng = as_generator(seed)
        idx = np.sort(rng.choice(n, size=size, replace=False))
    else:
        idx = None
    idx = comm.bcast(idx, root=0)
    # Step 1-2: every rank loads D and its column block.
    lo = rank * n // p
    hi = (rank + 1) * n // p
    atoms, _ = normalize_columns(a[:, idx])
    dictionary = Dictionary(np.ascontiguousarray(atoms), idx)
    # Step 3: local Batch-OMP; FLOPs billed to this rank's clock.
    c_local, stats = batch_omp_matrix(dictionary, a[:, lo:hi], eps,
                                      max_atoms=max_atoms)
    comm.charge_flops(stats.flops)
    # Assemble the full C on rank 0 (evaluation convenience; the
    # execution phase keeps C distributed).
    blocks = comm.gather((c_local, stats), root=0)
    if rank != 0:
        return None
    full = blocks[0][0]
    for blk, _ in blocks[1:]:
        full = full.hstack(blk)
    agg = ExDStats(
        columns=sum(s.columns for _, s in blocks),
        converged_columns=sum(s.converged_columns for _, s in blocks),
        omp_iterations=sum(s.total_iterations for _, s in blocks),
        flops=sum(s.flops for _, s in blocks),
    )
    return TransformedData(dictionary=dictionary, coefficients=full,
                           eps=eps, method="exd",
                           meta={"normalized": True}), agg


def _exd_store_rank_program(comm, store, size, eps, seed, max_atoms,
                            block_width):
    """SPMD body of Algorithm 1 over a ColumnStore (one rank).

    Rank 0 samples the dictionary from disk (reading only the sampled
    columns, as the streaming encoder does) and broadcasts it; column
    blocks are then partitioned by the store's deterministic
    ``shard_plan``, so each rank streams (roughly) only its chunk
    partition from disk.
    Each block is read and encoded by the function the streaming
    encoder uses (:func:`~repro.store.streaming.encode_store_block`),
    at the same block boundaries, and rank 0 assembles the blocks as it
    does (:func:`~repro.store.streaming.assemble_blocks`), which makes
    the transform bit-identical to the serial streaming encode — on
    either MPI backend.
    """
    from repro.store.streaming import (
        DEFAULT_STREAM_BLOCK,
        _Block,
        assemble_blocks,
        encode_store_block,
        sample_store_dictionary,
    )

    rank, p = comm.Get_rank(), comm.Get_size()
    m, n = store.shape
    if rank == 0:
        d = sample_store_dictionary(store, size, seed=seed)
        payload = (d.atoms, d.indices)
    else:
        payload = None
    atoms, idx = comm.bcast(payload, root=0)
    dictionary = Dictionary(atoms, idx)
    gram = dictionary.gram()

    width = block_width if block_width is not None else DEFAULT_STREAM_BLOCK
    bounds = encode_block_bounds(n, width)
    plan = store.shard_plan(p)
    # A block belongs to the rank whose shard contains its first column
    # (shards are contiguous and cover [0, N), so this is total and
    # agreed on by every rank without communication).
    mine = [i for i, (lo, _hi) in enumerate(bounds)
            if plan[rank][0] <= lo < plan[rank][1]]

    local = []
    flops = 0
    for index in mine:
        block, block_flops = encode_store_block(
            store, dictionary, gram, eps, *bounds[index],
            max_atoms=max_atoms)
        flops += block_flops
        local.append((index, block.data, block.indices, block.indptr,
                      block.iterations, block.converged))
    comm.charge_flops(flops)

    gathered = comm.gather((local, flops), root=0)
    if rank != 0:
        return None
    pieces = sorted((blk for part, _f in gathered for blk in part),
                    key=lambda b: b[0])
    full, agg = assemble_blocks(dictionary,
                                [_Block(*b[1:]) for b in pieces], n)
    return TransformedData(dictionary=dictionary, coefficients=full,
                           eps=eps, method="exd",
                           meta={"normalized": True}), agg


def exd_transform_distributed(a, size: int, eps: float, cluster, *,
                              seed=None, max_atoms: int | None = None,
                              block_width: int | None = None,
                              backend: str | None = None):
    """Run Algorithm 1 on the emulated cluster.

    Returns ``(transform, stats, spmd_result)`` where ``spmd_result``
    carries the simulated preprocessing time/energy for the platform.
    Each rank encodes its columns serially: on more than one rank the
    ranks are threads or daemonic processes, neither of which can fork
    workers of its own.

    ``a`` may be a :class:`~repro.store.ColumnStore`: each rank then
    streams only its ``shard_plan`` partition of the chunks from disk
    (``block_width`` tunes the read granularity, as in the streaming
    encoder) and the result is bit-identical to the serial streaming
    encode.  ``backend`` selects the SPMD execution backend
    (``"threads"``/``"processes"``/``"auto"``; see
    :func:`repro.mpi.run_spmd`).
    """
    from repro.mpi.runtime import run_spmd
    from repro.store.column_store import is_column_store, matrix_shape

    # Every argument a rank would reject is checked here, so a bad value
    # raises ValidationError before any rank starts.
    eps, max_atoms = check_encode_args(eps, max_atoms)
    if is_column_store(a):
        size = check_positive_int(size, "size")
        if block_width is not None:
            block_width = check_block_width(block_width)
        n = matrix_shape(a)[1]
        if size > n:
            raise ValidationError(
                f"cannot sample {size} distinct dictionary columns from "
                f"N={n} data columns")
        with obs.span("exd.transform_distributed"):
            result = run_spmd(0, _exd_store_rank_program, a, size, eps,
                              seed, max_atoms, block_width,
                              cluster=cluster, backend=backend)
        transform, stats = result.returns[0]
        return transform, stats, result
    if block_width is not None:
        raise ValidationError(
            "block_width requires a ColumnStore input; in-memory arrays "
            "are encoded in one pass per rank")
    a = check_matrix(a, "A")
    size = check_positive_int(size, "size")
    if size > a.shape[1]:
        # Fail fast with the serial path's clear error instead of dying
        # inside a rank thread with an opaque RankFailedError.
        raise ValidationError(
            f"cannot sample {size} distinct dictionary columns from "
            f"N={a.shape[1]} data columns")
    with obs.span("exd.transform_distributed"):
        result = run_spmd(0, _exd_rank_program, a, size, eps, seed,
                          max_atoms, cluster=cluster, backend=backend)
    transform, stats = result.returns[0]
    return transform, stats, result
