"""Per-atom usage statistics of the online maintainer's encodes.

:class:`~repro.online.maintainer.OnlineMaintainer` owns one
:class:`AtomStats` for its working dictionary and records into it the
codes of each step's encode, once per encode: ``batch_omp_matrix`` has
already merged its workers' panels in column order by the time it
returns, so the counts are the same at every worker count.  Dead-atom
eviction reads them.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["AtomStats"]


class AtomStats:
    """Per-atom usage accumulator for an ``L``-atom dictionary.

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

    def summary(self, top_k: int = 5) -> dict:
        """JSON-ready digest for the maintainer's status and CLI output."""
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
