"""Host parallelism and shared state for the Batch-OMP encodes.

ExD preprocessing sparse-codes every column of ``A`` independently
(Alg. 1 step 3), which makes the encode embarrassingly parallel over
columns — the paper distributes exactly this step across ranks, and
RankMap / Mensch et al. report near-linear scaling for column-wise
sparse coding.  This module provides the single-host machinery:

* :func:`fork_map` — the deterministic fork map every host-parallel
  path is built on: the column-parallel encode of
  :func:`~repro.linalg.omp.batch_omp_matrix` (one task per fixed-width
  panel, each worker computing its own ``DᵀA`` panels), the
  trial-parallel α estimators (the tuner's candidate sweep is one map
  per wave of candidates) and the dense baselines.  The caller runs
  one interleaved share of the payloads itself and forks one daemonic
  worker per other share; workers inherit the function, the shared
  state and the payloads at fork time (copy-on-write, nothing is
  pickled on the way in) and send their results back in one pipe
  message each, together with the counters, histograms and spans
  they recorded.  Results come back in
  payload order, and a failing task raises in the caller exactly as a
  serial loop would.
* :func:`encode_columns` — the serving daemon's micro-batch encode.
* :class:`GramCache` / :func:`cached_gram` — a process-wide LRU cache of
  ``DᵀD`` keyed on dictionary identity, so tuner trials (and evolving
  updates) that reuse a dictionary stop recomputing the Gram matrix.

Workers are plain ``fork`` processes, forked per map (a fork costs a few
milliseconds; the α estimators batch their trials so one map covers a
whole sweep).  When forking is unsafe or unavailable — non-fork
platforms, a daemonic process such as a ``fork_map`` worker or an SPMD
rank process (no nested forks), or a multi-threaded parent such as the
MPI emulator's rank threads or the serve daemon's encode thread — the
map degrades to an in-process loop, which returns the very same
results; ``workers`` is therefore always safe to pass.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from collections import OrderedDict

import numpy as np

from repro import observability as obs
from repro.errors import ValidationError, portable_exc

__all__ = [
    "GramCache",
    "cached_gram",
    "encode_columns",
    "fork_map",
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


#: The process-wide cache used by ``batch_omp_matrix`` (at every worker
#: count) whenever no explicit ``gram`` is supplied.
GRAM_CACHE = GramCache()


def cached_gram(d: np.ndarray) -> np.ndarray:
    """``DᵀD`` through the process-wide :data:`GRAM_CACHE`."""
    return GRAM_CACHE.get(d)


# ----------------------------------------------------------------------
# Generic deterministic fork map
# ----------------------------------------------------------------------
def _can_fork() -> bool:
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    if multiprocessing.current_process().daemon:
        return False  # fork_map workers are daemonic: no nested forks
    # fork() from a multi-threaded parent (e.g. the MPI emulator's rank
    # threads) can deadlock the child on locks held by other threads.
    if threading.active_count() > 1:
        return False
    return True


def _pinned_backend_name() -> str | None:
    """The concrete kernel name the parent resolves *right now*.

    Fork workers snapshot env/config at fork time, but the parent's own
    share (and the in-process fallback) runs task-by-task in the parent —
    if something mutates ``REPRO_OMP_BACKEND`` mid-map, later tasks would
    silently resolve a different kernel than earlier ones (and than the
    workers).  Every task therefore runs under one backend pinned here,
    before the first task.  An unresolvable default (env naming an
    unknown/unavailable backend) is left unpinned so the task itself
    raises the usual KernelError instead of the map call.
    """
    from repro.errors import KernelError
    from repro.linalg.kernels import resolve_backend

    try:
        return resolve_backend(None).name
    except KernelError:
        return None


def _run_share(fn, shared, payloads, share):
    """Run ``fn`` over the payload indices ``share``, in order.

    Returns ``(results, failure)``; like the serial loop, the share stops
    at its first exception, reported as ``(index, exception)``.
    """
    results = []
    for i in share:
        try:
            results.append(fn(shared, payloads[i]))
        except Exception as exc:  # noqa: BLE001 - re-raised by the parent
            return results, (i, exc)
    return results, None


def _fork_worker(conn, fn, shared, payloads, share, observed) -> None:
    """Body of one forked worker: run its share, send one message."""
    if observed:
        # The tables are this process's private copy from the fork; empty
        # them so what the parent merges is this share's telemetry alone.
        obs.REGISTRY.reset()
        obs.SPANS.reset()
    results, failure = _run_share(fn, shared, payloads, share)
    if failure is not None:
        failure = (failure[0], portable_exc(failure[1]))
    telemetry = (obs.REGISTRY.snapshot(), obs.SPANS.snapshot()) \
        if observed else None
    # A result that cannot be pickled fails here, before anything is
    # written: the worker exits without a message and the parent raises.
    conn.send((results, failure, telemetry))
    conn.close()


def _fork_run(fn, payloads, shared, workers: int) -> list:
    """The forked half of :func:`fork_map` (see there)."""
    ctx = multiprocessing.get_context("fork")
    observed = obs.enabled()
    shares = [range(k, len(payloads), workers) for k in range(workers)]
    children = []
    finished = False
    try:
        for share in shares[1:]:
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_fork_worker,
                               args=(send_end, fn, shared, payloads, share,
                                     observed),
                               name="repro-fork-map", daemon=True)
            children.append((proc, recv_end))
            proc.start()
            # Only the child may hold the write end, so its death reads
            # as EOF here instead of a hang.
            send_end.close()
        outcomes = [_run_share(fn, shared, payloads, shares[0])]
        for proc, conn in children:
            try:
                results, failure, telemetry = conn.recv()
            except (EOFError, OSError):
                proc.join()
                raise RuntimeError(
                    f"fork_map worker {proc.pid} exited with code "
                    f"{proc.exitcode} without returning its results") \
                    from None
            if telemetry is not None:
                metrics, spans = telemetry
                obs.REGISTRY.merge(metrics)
                obs.SPANS.merge(spans)
            outcomes.append((results, failure))
        finished = True
    finally:
        for proc, conn in children:
            conn.close()
            if proc.pid is None:
                continue  # never started
            if not finished:
                proc.kill()
            proc.join()
            proc.close()
    failures = [f for _, f in outcomes if f is not None]
    if failures:
        # The serial loop would have raised at the lowest failing index.
        raise min(failures, key=lambda f: f[0])[1]
    out = [None] * len(payloads)
    for share, (results, _) in zip(shares, outcomes):
        for i, result in zip(share, results):
            out[i] = result
    return out


def fork_map(fn, payloads, shared, workers: int) -> list:
    """Map ``fn(shared, payload)`` over ``payloads``, in payload order.

    With ``k = min(workers, len(payloads))`` above one, payload ``i``
    goes to share ``i % k``: the calling process runs share 0 itself and
    ``k − 1`` forked daemonic workers run the others.  ``fn``, ``shared``
    and the payloads reach the workers through fork-time inheritance
    (copy-on-write; nothing is pickled on the way in), and each worker
    sends its results back in one pipe message.  A task's exception is
    re-raised in the caller — the one with the lowest payload index,
    which is the one a serial loop would raise — and a worker that dies
    without answering raises :class:`RuntimeError`; every worker is
    reaped on every path.  Counters, histograms and spans the workers
    record are merged into the caller's observability tables.

    Falls back to an in-process loop — same results, same order —
    whenever forking is unsafe (see :func:`_can_fork`), so nested maps
    inside a worker run in-process.  The kernel backend the caller
    resolves at entry is pinned for the whole map, in the caller's share
    and inherited by every worker (see :func:`_pinned_backend_name`).
    """
    from repro.linalg.kernels import use_backend

    payloads = list(payloads)
    workers = min(int(workers), len(payloads))
    with use_backend(_pinned_backend_name()):
        if workers <= 1 or not _can_fork():
            return [fn(shared, p) for p in payloads]
        return _fork_run(fn, payloads, shared, workers)


# ----------------------------------------------------------------------
# Shared-G micro-batch encode (the serving daemon's kernel)
# ----------------------------------------------------------------------
def encode_columns(d, columns, eps: float, *,
                   max_atoms: int | None = None,
                   backend=None):
    """Sparse-code a stack of columns against ``d``, sharing one ``G``.

    ``d`` may be a dense array or any ``DictOperator`` (the serving
    registry hands the generation's dictionary object straight through,
    so a factored ``FastDict`` tenant pays the factored ``DᵀA`` cost).
    ``columns`` is ``(M, k)`` — typically a micro-batch of coalesced
    single-column requests.  One call amortises the ``DᵀA`` product (and
    the Gram lookup) across the whole batch, which is exactly what makes
    Batch-OMP fast; thanks to the fixed-width padded compute panels of
    :func:`~repro.linalg.omp.iter_panel_dta`, each column's code is
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
