"""Per-atom usage statistics fed by the encoder's atom selections.

Every encode path in the repo funnels through ``batch_omp_matrix``
(serial and column-parallel encodes, ``encode_columns`` behind the
serving micro-batcher, and the ``StreamingEncoder``'s per-block calls).
It calls :func:`record_encode` exactly once per encode with the
dictionary object it was handed plus the finished CSC coefficients — at
that point it has already merged its workers' panels in column order,
so recording there *is* the cross-worker merge, the same way it records
the encode's ``omp.*`` counters.

Recording is opt-in per dictionary: :func:`watch_dictionary` attaches an
:class:`AtomStats` accumulator to a dictionary object (keyed on object
identity, weakref-guarded exactly like the Gram LRU), and the hook in
the encoders is a single empty-dict check when nothing is watched — the
default encode hot path pays nothing.

SPMD rank programs build their own per-rank ``Dictionary`` objects, so
nothing records rank-side; instead :class:`AtomStats` is a plain
mergeable delta (`merge` / `to_deltas` / `from_deltas`) that ranks
gather to rank 0, mirroring how ``repro.observability`` merges
telemetry across processes.  ``merge`` composes *sequentially* — the
merged ``last_used`` generations read as if the other side's encodes
replayed after ours — which keeps every field exactly equal to a serial
run over the concatenated columns.

This module imports only the standard library and numpy so the linalg
engines can import it without cycles.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

__all__ = [
    "AtomStats",
    "record_encode",
    "unwatch_dictionary",
    "watch_dictionary",
    "watched_stats",
]


class AtomStats:
    """Mergeable per-atom usage accumulator for an ``L``-atom dictionary.

    Tracks, per atom: how many encoded columns selected it
    (``counts``), the running sum of ``|coefficient|`` over those
    selections (``abs_coef_sum``, so ``mean_abs_coef`` is exact), and
    the encode *generation* (batch ordinal) that last used it
    (``last_used``, ``-1`` for never).  ``generation`` counts recorded
    encode batches; ``columns`` counts recorded columns.
    """

    __slots__ = ("size", "counts", "abs_coef_sum", "last_used",
                 "columns", "generation", "_lock")

    def __init__(self, size: int) -> None:
        if int(size) <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = int(size)
        self.counts = np.zeros(self.size, dtype=np.int64)
        self.abs_coef_sum = np.zeros(self.size, dtype=np.float64)
        self.last_used = np.full(self.size, -1, dtype=np.int64)
        self.columns = 0
        self.generation = 0
        self._lock = threading.Lock()

    # pickle across SPMD process ranks: drop the lock, rebuild on load
    def __getstate__(self):
        return self.to_deltas()

    def __setstate__(self, state):
        other = AtomStats.from_deltas(state)
        for name in ("size", "counts", "abs_coef_sum", "last_used",
                     "columns", "generation"):
            setattr(self, name, getattr(other, name))
        self._lock = threading.Lock()

    def record(self, c) -> None:
        """Fold one encode's CSC coefficients into the accumulator.

        ``c`` is anything with ``indices`` / ``data`` arrays and a
        ``shape == (L, N)`` (the engines' ``CSCMatrix``).  One pair of
        ``bincount`` passes at matrix granularity — never inside the
        per-column kernel loop, so the bit-identity of the encode
        itself cannot be perturbed.
        """
        indices = np.asarray(c.indices, dtype=np.int64)
        data = np.asarray(c.data, dtype=np.float64)
        n = int(c.shape[1])
        counts = np.bincount(indices, minlength=self.size)
        weights = np.bincount(indices, weights=np.abs(data),
                              minlength=self.size)
        with self._lock:
            self.generation += 1
            self.columns += n
            self.counts += counts
            self.abs_coef_sum += weights
            if indices.size:
                self.last_used[np.unique(indices)] = self.generation

    def merge(self, other: "AtomStats") -> "AtomStats":
        """Fold ``other`` in as if its encodes replayed after ours."""
        if other.size != self.size:
            raise ValueError(
                f"cannot merge stats for {other.size} atoms into "
                f"{self.size}")
        with self._lock:
            self.counts += other.counts
            self.abs_coef_sum += other.abs_coef_sum
            shifted = np.where(other.last_used >= 0,
                               other.last_used + self.generation,
                               np.int64(-1))
            np.maximum(self.last_used, shifted, out=self.last_used)
            self.generation += other.generation
            self.columns += other.columns
        return self

    @property
    def mean_abs_coef(self) -> np.ndarray:
        """Exact mean ``|coefficient|`` per atom (0 where never used)."""
        return self.abs_coef_sum / np.maximum(self.counts, 1)

    def dead_atoms(self, min_count: int = 1) -> np.ndarray:
        """Indices of atoms selected fewer than ``min_count`` times."""
        return np.flatnonzero(self.counts < int(min_count))

    def reset_atom(self, j: int) -> None:
        """Zero atom ``j``'s statistics (after an evict/re-seed)."""
        with self._lock:
            self.counts[j] = 0
            self.abs_coef_sum[j] = 0.0
            self.last_used[j] = -1

    def to_deltas(self) -> dict:
        """A plain picklable delta dict (the SPMD gather payload)."""
        return {
            "size": self.size,
            "counts": self.counts.copy(),
            "abs_coef_sum": self.abs_coef_sum.copy(),
            "last_used": self.last_used.copy(),
            "columns": self.columns,
            "generation": self.generation,
        }

    @classmethod
    def from_deltas(cls, deltas: dict) -> "AtomStats":
        stats = cls(int(deltas["size"]))
        stats.counts[:] = deltas["counts"]
        stats.abs_coef_sum[:] = deltas["abs_coef_sum"]
        stats.last_used[:] = deltas["last_used"]
        stats.columns = int(deltas["columns"])
        stats.generation = int(deltas["generation"])
        return stats

    def summary(self, top_k: int = 5) -> dict:
        """JSON-ready digest for ``GET /v1/metrics`` and CLI output."""
        with self._lock:
            counts = self.counts.copy()
            mean_abs = self.abs_coef_sum / np.maximum(counts, 1)
            order = np.argsort(counts, kind="stable")[::-1][:int(top_k)]
            return {
                "atoms": self.size,
                "columns": int(self.columns),
                "encode_batches": int(self.generation),
                "dead_atoms": int(np.count_nonzero(counts == 0)),
                "selections": int(counts.sum()),
                "top_atoms": [
                    {"atom": int(j), "count": int(counts[j]),
                     "mean_abs_coef": float(mean_abs[j])}
                    for j in order if counts[j] > 0
                ],
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AtomStats(size={self.size}, columns={self.columns}, "
                f"generation={self.generation}, "
                f"dead={int(np.count_nonzero(self.counts == 0))})")


# ----------------------------------------------------------------------
# The watch registry the encode engines consult
# ----------------------------------------------------------------------
# id(object) -> (weakref, AtomStats), mirroring the Gram LRU's keying:
# a recycled id (new object at an old address) can never alias a stale
# watch because the weakref identity is re-checked on every hit.
_WATCHED: dict[int, tuple] = {}
_WATCH_LOCK = threading.Lock()


def _register(obj, stats: AtomStats) -> None:
    key = id(obj)
    try:
        ref = weakref.ref(obj, lambda _r, k=key: _WATCHED.pop(k, None))
    except TypeError:  # non-weakref-able; do not retain
        return
    with _WATCH_LOCK:
        _WATCHED[key] = (ref, stats)


def watch_dictionary(d, stats: AtomStats | None = None) -> AtomStats:
    """Attach an :class:`AtomStats` to a dictionary object.

    ``d`` may be a bare atoms array or any ``DictOperator`` (a
    ``Dictionary``, ``FastDict``, …).  Both the object itself and its
    ``atoms`` array (when it has one) are registered to the same
    accumulator, so the hook matches whichever of the two an encode
    path routes through.  Pass an existing ``stats`` to share one
    accumulator across several dictionary generations.
    """
    atoms = getattr(d, "atoms", d)
    size = int(np.asarray(atoms).shape[1])
    if stats is None:
        stats = AtomStats(size)
    elif stats.size != size:
        raise ValueError(
            f"stats tracks {stats.size} atoms but dictionary has {size}")
    _register(d, stats)
    if atoms is not d:
        _register(atoms, stats)
    return stats


def unwatch_dictionary(d) -> None:
    """Detach ``d`` (and its atoms array) from the watch registry."""
    atoms = getattr(d, "atoms", d)
    with _WATCH_LOCK:
        _WATCHED.pop(id(d), None)
        if atoms is not d:
            _WATCHED.pop(id(atoms), None)


def watched_stats(d) -> AtomStats | None:
    """The accumulator attached to ``d``, or ``None``."""
    for obj in (d, getattr(d, "atoms", d)):
        entry = _WATCHED.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
    return None


def record_encode(d, c) -> None:
    """Encoder hook: fold ``c`` into ``d``'s accumulator, if watched.

    Called exactly once per encode by ``batch_omp_matrix``, in the
    calling process after the column ranges are merged, at every worker
    count.  When nothing is watched this is one falsy-dict check.
    """
    if not _WATCHED:
        return
    stats = watched_stats(d)
    if stats is not None:
        stats.record(c)
