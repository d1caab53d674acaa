"""Shared-memory parallel Batch-OMP encoding engine.

ExD preprocessing sparse-codes every column of ``A`` independently
(Alg. 1 step 3), which makes the encode embarrassingly parallel over
columns — the paper distributes exactly this step across ranks, and
RankMap / Mensch et al. report near-linear scaling for column-wise
sparse coding.  This module provides the single-host analogue:

* :func:`parallel_batch_omp_matrix` — a worker-pool chunked column
  scheduler over the Batch-OMP kernel.  The parent computes ``G = DᵀD``
  and ``DᵀA`` once (one BLAS-3 product each); workers inherit them via
  fork-time copy-on-write pages, so nothing heavy is pickled.  Chunks
  are merged **in column order**, which makes the CSC output and the
  :class:`~repro.linalg.omp.BatchOMPStats` bit-identical to the serial
  path for every worker count and chunk size.
* :class:`GramCache` / :func:`cached_gram` — a process-wide LRU cache of
  ``DᵀD`` keyed on dictionary identity, so tuner trials (and evolving
  updates) that reuse a dictionary stop recomputing the Gram matrix.
* :func:`fork_map` — the generic deterministic fork-pool map the engine
  is built on, reused by the trial-parallel α estimators and the dense
  baselines.

Workers are plain ``fork`` processes.  When forking is unsafe or
unavailable — non-fork platforms, daemonic workers (no nested pools), or
a multi-threaded parent such as the MPI emulator's rank threads — the
engine degrades to in-process chunked execution, which returns the very
same bits; ``workers`` is therefore always safe to pass.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.errors import DictionaryError, ValidationError
from repro.online.stats import record_encode

__all__ = [
    "GramCache",
    "cached_gram",
    "encode_columns",
    "fork_map",
    "parallel_batch_omp_matrix",
    "parallel_least_squares",
    "resolve_workers",
]


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` knob to an effective worker count.

    ``None``, ``0`` and ``1`` mean serial; a negative value means "all
    available cores" (CPU affinity-aware); any other positive integer is
    taken literally.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        try:
            return max(len(os.sched_getaffinity(0)), 1)
        except (AttributeError, OSError):
            return os.cpu_count() or 1
    return max(workers, 1)


# ----------------------------------------------------------------------
# Process-wide Gram cache
# ----------------------------------------------------------------------
class GramCache:
    """LRU cache of ``DᵀD`` keyed on the identity of the atom array.

    The key is ``id(d)`` guarded by a weak reference, so a recycled id
    (new array at an old address) can never alias a stale entry, and
    entries die with their dictionary.  Hits additionally check a
    content fingerprint, so in-place mutation of a cached array (K-SVD
    rewrites atoms between sweeps) invalidates its entry instead of
    serving a stale Gram; the hash costs ``O(M·L)`` per lookup against
    the ``O(M·L²)`` recompute it saves.

    Bounded by entry count and by per-entry size (grams larger than
    ``max_bytes`` are returned but not retained).
    """

    def __init__(self, max_entries: int = 8,
                 max_bytes: int = 1 << 28) -> None:
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        # RLock: the weakref eviction callback can fire re-entrantly
        # while the cache lock is already held (e.g. a del inside get()
        # drops the last strong reference).
        self._lock = threading.RLock()
        self._entries: OrderedDict[int, tuple] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached Gram matrix (and reset the hit counters)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def _evict(self, key: int) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def invalidate(self, d) -> bool:
        """Explicitly drop the cached Gram for ``d`` (if present).

        ``d`` is the atom array itself or anything carrying one in an
        ``atoms`` attribute (a ``Dictionary``/``DictOperator``); the key
        matches :meth:`get`'s.  The content-fingerprint check already
        protects lookups against in-place mutation, but online atom
        updates call this at every mutation so a stale ``G = DᵀD`` is
        *deterministically* gone the moment the atoms change — not
        merely detectable on the next hit.  Returns whether an entry
        was actually evicted.
        """
        atoms = getattr(d, "atoms", d)
        with self._lock:
            dropped = self._entries.pop(id(atoms), None) is not None
        if dropped:
            obs.inc("gram_cache.invalidations")
        return dropped

    @staticmethod
    def _fingerprint(d: np.ndarray) -> int:
        return hash(d.tobytes())

    def get(self, d: np.ndarray) -> np.ndarray:
        """Return ``d.T @ d``, cached across calls with the same array."""
        key = id(d)
        fp = self._fingerprint(d)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                ref, cached_fp, gram = entry
                if ref() is d and cached_fp == fp:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    obs.inc("gram_cache.hits")
                    return gram
                del self._entries[key]
        gram = d.T @ d
        obs.inc("gram_cache.misses")
        with self._lock:
            self.misses += 1
            if gram.nbytes <= self.max_bytes:
                try:
                    ref = weakref.ref(d, lambda _r, k=key: self._evict(k))
                except TypeError:
                    return gram  # non-weakref-able input; don't retain
                self._entries[key] = (ref, fp, gram)
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        return gram


#: The process-wide cache used by ``batch_omp_matrix`` (serial and
#: parallel paths alike) whenever no explicit ``gram`` is supplied.
GRAM_CACHE = GramCache()


def cached_gram(d: np.ndarray) -> np.ndarray:
    """``DᵀD`` through the process-wide :data:`GRAM_CACHE`."""
    return GRAM_CACHE.get(d)


# ----------------------------------------------------------------------
# Generic deterministic fork-pool map
# ----------------------------------------------------------------------
# Workers read the payload-independent state from this module global,
# which they inherit at fork time (copy-on-write; nothing is pickled).
_FORK_SHARED = None
# Guards the set-global -> fork window against concurrent fork_map calls.
_FORK_LOCK = threading.Lock()


def _can_fork() -> bool:
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    if multiprocessing.current_process().daemon:
        return False  # pool workers cannot spawn nested pools
    # fork() from a multi-threaded parent (e.g. the MPI emulator's rank
    # threads) can deadlock the child on locks held by other threads.
    if threading.active_count() > 1:
        return False
    return True


def _fork_invoke(task):
    fn, payload = task
    return fn(_FORK_SHARED, payload)


def _pinned_backend_name() -> str | None:
    """The concrete kernel name the parent resolves *right now*.

    Fork workers snapshot env/config at fork time, but the in-process
    fallback runs task-by-task in the parent — if something mutates
    ``REPRO_OMP_BACKEND`` mid-map, later tasks would silently resolve a
    different kernel than earlier ones (and than the fork path).  Both
    paths therefore run under one backend pinned here, before the first
    task.  An unresolvable default (env naming an unknown/unavailable
    backend) is left unpinned so the task itself raises the usual
    KernelError instead of the map call.
    """
    from repro.errors import KernelError
    from repro.linalg.kernels import resolve_backend

    try:
        return resolve_backend(None).name
    except KernelError:
        return None


def fork_map(fn, payloads, shared, workers: int) -> list:
    """Map ``fn(shared, payload)`` over ``payloads``, in payload order.

    ``fn`` must be a module-level function (pickled by reference);
    ``shared`` is handed to workers through fork-time inheritance and is
    never pickled.  Falls back to an in-process loop — same results,
    same order — whenever forking is unsafe (see :func:`_can_fork`).
    The kernel backend the parent resolves at entry is pinned for the
    whole map on both paths (see :func:`_pinned_backend_name`).
    """
    from repro.linalg.kernels import use_backend

    payloads = list(payloads)
    workers = min(int(workers), len(payloads))
    pinned = _pinned_backend_name()
    if workers <= 1 or not _can_fork():
        with use_backend(pinned):
            return [fn(shared, p) for p in payloads]
    global _FORK_SHARED
    ctx = multiprocessing.get_context("fork")
    with _FORK_LOCK:
        _FORK_SHARED = shared
        try:
            # Workers fork while the pinned default is installed and
            # inherit it for their whole lifetime.
            with use_backend(pinned):
                pool = ctx.Pool(processes=workers)
        finally:
            _FORK_SHARED = None
    try:
        return pool.map(_fork_invoke, [(fn, p) for p in payloads],
                        chunksize=1)
    finally:
        pool.close()
        pool.join()


# ----------------------------------------------------------------------
# The parallel encode engine
# ----------------------------------------------------------------------
@dataclass
class _EncodeShared:
    """Fork-inherited state of one parallel encode call."""

    gram: np.ndarray      # DᵀD, (L, L)
    dta: np.ndarray       # DᵀA, (L, N)
    col_sq: np.ndarray    # per-column ‖a_j‖², blocked schedule
    eps: float
    max_atoms: int | None
    strict: bool
    backend: str = "numpy"   # concrete kernel name, resolved pre-fork


def _encode_chunk(shared: _EncodeShared, bounds: tuple[int, int]):
    """Code columns ``[lo, hi)``; returns arrays ready for ordered merge.

    The per-column computation runs through exactly the kernel backend
    the parent resolved (same kernel, same ``‖a‖²`` dot, same row order
    as the serial path's bulk append), which is what makes the merged
    output bit-identical — workers never re-resolve config/env, they
    inherit the concrete backend name in ``shared``.
    """
    from repro.linalg.kernels import get_backend
    from repro.sparse.builder import stack_columns

    kernel = get_backend(shared.backend)
    lo, hi = bounds
    results = kernel.batch_omp_columns(
        shared.gram, shared.dta[:, lo:hi], shared.col_sq[lo:hi],
        shared.eps, shared.max_atoms)
    converged = np.fromiter((r[4] for r in results), dtype=bool,
                            count=hi - lo)
    if shared.strict and not converged.all():
        # Serial raises at the first failing column; report it so the
        # parent can raise deterministically for the smallest j.
        off = int(np.argmin(converged))
        return ("error", lo + off, float(results[off][2]),
                float(shared.col_sq[lo + off]))
    iterations = np.fromiter((r[3] for r in results), dtype=np.int64,
                             count=hi - lo)
    data, indices, col_nnz = stack_columns(
        [r[0] for r in results], [r[1] for r in results],
        shared.gram.shape[0])
    # Worker-side metric deltas: a forked child cannot write into the
    # parent's registry, so counts travel back with the chunk result and
    # the parent merges them (repro.observability cross-process merge).
    metric_deltas = {"omp.columns_encoded": hi - lo,
                     "omp.converged_columns": int(converged.sum()),
                     "omp.iterations": int(iterations.sum())}
    return ("ok", data, indices, col_nnz, iterations, converged,
            metric_deltas)


def default_chunk_size(n: int, workers: int) -> int:
    """Columns per task: ~4 tasks per worker for load balance."""
    return max(1, -(-n // (max(workers, 1) * 4)))


def parallel_batch_omp_matrix(d, a, eps: float, *,
                              max_atoms: int | None = None,
                              strict: bool = False,
                              gram: np.ndarray | None = None,
                              workers: int | None = None,
                              chunk_size: int | None = None,
                              backend=None):
    """Sparse-code every column of ``a`` with a chunked worker pool.

    Drop-in replacement for the serial ``batch_omp_matrix`` loop: the
    returned ``(CSCMatrix, BatchOMPStats)`` pair is bit-identical to the
    serial path regardless of ``workers`` and ``chunk_size`` — chunks
    are merged in column order, every chunk runs the identical kernel on
    the identical precomputed ``G``/``DᵀA``, and the stats are reduced
    from per-column integers.  Normally reached through
    ``batch_omp_matrix(..., workers=...)`` rather than called directly.
    """
    from repro.linalg.kernels import resolve_backend
    from repro.linalg.omp import (
        BatchOMPStats,
        blocked_column_squares,
        blocked_dta,
        check_encode_args,
        is_dict_operator,
    )

    op = d if is_dict_operator(d) else None
    if op is None:
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 2:
            raise ValidationError(f"dictionary must be 2-D, got {d.ndim}-D")
        m, l = d.shape
        transform_nnz = m * l
    else:
        # DictOperator (dense Dictionary / FastDict / block operator):
        # only the parent touches it — workers receive the precomputed
        # G/DᵀA panels, never the operator itself.
        m, l = op.m, op.size
        transform_nnz = op.transform_nnz
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != m:
        raise ValidationError(
            f"incompatible shapes: D({m}, {l}), A{a.shape}")
    eps, max_atoms = check_encode_args(eps, max_atoms)
    n = a.shape[1]
    nworkers = resolve_workers(workers)
    # Resolve config/env to a concrete kernel up front so every fork
    # worker runs the same backend the parent chose, and pay any JIT
    # compilation before forking — children then inherit the compiled
    # code copy-on-write instead of recompiling it per worker.
    kernel = resolve_backend(backend)
    kernel.warmup()
    with obs.span("omp.encode"):
        if gram is None:
            gram = op.gram() if op is not None else cached_gram(d)
        # Same aligned-panel schedule as the serial path (see
        # repro.linalg.omp.ENCODE_BLOCK_COLS): serial, parallel and
        # store-streaming encodes all see bit-identical G/DᵀA/‖a_j‖².
        dta_all = blocked_dta(d, a)
        col_sq = blocked_column_squares(a)
        if chunk_size is None:
            chunk_size = default_chunk_size(n, nworkers)
        chunk_size = max(int(chunk_size), 1)
        chunks = [(lo, min(lo + chunk_size, n))
                  for lo in range(0, n, chunk_size)]
        obs.inc("pool.chunks", len(chunks))
        obs.set_gauge("pool.workers", nworkers)
        obs.set_gauge("pool.chunk_size", chunk_size)
        shared = _EncodeShared(gram=gram, dta=dta_all, col_sq=col_sq,
                               eps=eps, max_atoms=max_atoms, strict=strict,
                               backend=kernel.name)
        parts = fork_map(_encode_chunk, chunks, shared, nworkers)

    failures = [p for p in parts if p[0] == "error"]
    if failures:
        _, j, res_sq, a_sq = min(failures, key=lambda p: p[1])
        target_sq = (eps * float(np.sqrt(a_sq))) ** 2
        raise DictionaryError(
            f"Batch-OMP could not reach eps={eps} with {l} atoms "
            f"(residual {np.sqrt(res_sq):.3e} > "
            f"target {np.sqrt(target_sq):.3e})")

    data = np.concatenate([p[1] for p in parts]) if parts else \
        np.empty(0, dtype=np.float64)
    indices = np.concatenate([p[2] for p in parts]) if parts else \
        np.empty(0, dtype=np.int64)
    col_nnz = np.concatenate([p[3] for p in parts]) if parts else \
        np.empty(0, dtype=np.int64)
    iterations = np.concatenate([p[4] for p in parts]) if parts else \
        np.empty(0, dtype=np.int64)
    converged = np.concatenate([p[5] for p in parts]) if parts else \
        np.empty(0, dtype=bool)

    from repro.sparse.csc import CSCMatrix
    indptr = np.concatenate(([0], np.cumsum(col_nnz))).astype(np.int64)
    c = CSCMatrix(data, indices, indptr, (l, n), check=False)
    total_iters = int(iterations.sum())
    flops = 2 * transform_nnz * n + 4 * l * total_iters + 2 * c.nnz
    stats = BatchOMPStats(columns=n,
                          converged_columns=int(converged.sum()),
                          total_iterations=total_iters, flops=int(flops),
                          converged_mask=converged)
    for p in parts:
        obs.merge_counters(p[6])
    obs.merge_counters({"omp.flops": stats.flops})
    # Parent-side atom-usage recording: the merged CSC already contains
    # every worker's selections in column order, so recording here IS
    # the cross-worker counter merge (same pattern as metric_deltas).
    record_encode(op if op is not None else d, c)
    return c, stats


# ----------------------------------------------------------------------
# Shared-G micro-batch encode (the serving daemon's kernel)
# ----------------------------------------------------------------------
def encode_columns(d, columns, eps: float, *,
                   gram: np.ndarray | None = None,
                   max_atoms: int | None = None,
                   workers: int | None = None,
                   backend=None):
    """Sparse-code a stack of columns against ``d``, sharing one ``G``.

    ``d`` may be a dense array or any ``DictOperator`` (the serving
    registry hands the generation's dictionary object straight through,
    so a factored ``FastDict`` tenant pays the factored ``DᵀA`` cost).
    ``columns`` is ``(M, k)`` — typically a micro-batch of coalesced
    single-column requests.  One call amortises the ``DᵀA`` product (and
    the Gram lookup) across the whole batch, which is exactly what makes
    Batch-OMP fast; thanks to the fixed-width padded compute panels of
    :func:`~repro.linalg.omp.blocked_dta`, each column's code is
    bit-identical to encoding it alone, in any other batch, or inside a
    full ``batch_omp_matrix`` run — coalescing never changes answers.

    Returns ``(results, stats)`` where ``results`` is a list of
    ``(support, coefficients, converged)`` triples in column order
    (support index-sorted, as in the CSC output) and ``stats`` the usual
    :class:`~repro.linalg.omp.BatchOMPStats`.
    """
    from repro.linalg.omp import batch_omp_matrix

    columns = np.asarray(columns, dtype=np.float64)
    if columns.ndim != 2:
        raise ValidationError(
            f"columns must be 2-D (M, k), got {columns.ndim}-D")
    c, stats = batch_omp_matrix(d, columns, eps, max_atoms=max_atoms,
                                gram=gram, workers=workers,
                                backend=backend)
    results = []
    for j in range(columns.shape[1]):
        lo, hi = int(c.indptr[j]), int(c.indptr[j + 1])
        results.append((c.indices[lo:hi], c.data[lo:hi],
                        bool(stats.converged_mask[j])))
    return results, stats


# ----------------------------------------------------------------------
# Chunked dense least squares (RCSS / oASIS baselines)
# ----------------------------------------------------------------------
def _lstsq_chunk(shared, bounds):
    from repro.linalg.pseudo_inverse import least_squares_coefficients

    d, a = shared
    lo, hi = bounds
    return least_squares_coefficients(d, a[:, lo:hi])


def parallel_least_squares(d, a, *, workers: int | None = None,
                           chunk_size: int | None = None) -> np.ndarray:
    """Dense ``C = argmin_C ‖A − DC‖_F`` with column-chunked workers.

    Serial (``workers=None``) keeps the baselines' historical single
    ``lstsq`` call; with workers each chunk solves against the same
    ``D`` and the results are concatenated in column order.
    """
    from repro.linalg.pseudo_inverse import least_squares_coefficients

    d = np.asarray(d, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if d.ndim != 2 or a.ndim != 2 or d.shape[0] != a.shape[0]:
        raise ValidationError(
            f"incompatible shapes: D{d.shape}, A{a.shape}")
    n = a.shape[1]
    nworkers = resolve_workers(workers)
    if nworkers <= 1 or n < 2:
        return least_squares_coefficients(d, a)
    if chunk_size is None:
        chunk_size = max(1, -(-n // nworkers))
    chunks = [(lo, min(lo + int(chunk_size), n))
              for lo in range(0, n, int(chunk_size))]
    parts = fork_map(_lstsq_chunk, chunks, (d, a), nworkers)
    return np.concatenate(parts, axis=1)
