"""Process-wide metrics registry: counters, gauges and histograms.

Metric names are dotted strings grouped by subsystem, e.g.
``omp.columns_encoded``, ``gram_cache.hits``, ``pool.chunks``,
``mpi.collective.words``.  The registry is thread-safe (the MPI
emulator runs rank programs on threads of one process) and mergeable
(``fork_map`` workers and SPMD rank processes send their counters and
histograms back to the parent, which folds them in with
:meth:`MetricsRegistry.merge`).

Instrumented call sites go through the module-level helpers
(:func:`inc`, :func:`set_gauge`, :func:`observe`), which are no-ops
while observability is disabled — the hot paths pay one flag check per
*call*, and all instrumentation sits at matrix/run granularity rather
than inside per-column loops.
"""

from __future__ import annotations

import threading

from repro.observability._state import STATE

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "inc",
    "merge_counters",
    "observe",
    "set_gauge",
]


class MetricsRegistry:
    """Thread-safe store of named counters, gauges and histograms.

    Counters accumulate (``inc``), gauges hold the last written value
    (``set_gauge``), histograms keep a streaming summary — count, sum,
    min, max — per name (``observe``); summaries are bucket-free so the
    snapshot stays small and JSON-friendly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, total, min, max]
        self._histograms: dict[str, list[float]] = {}

    # -- writers -------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        value = float(value)
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                self._histograms[name] = [1, value, value, value]
            else:
                h[0] += 1
                h[1] += value
                h[2] = min(h[2], value)
                h[3] = max(h[3], value)

    def merge_counters(self, deltas: dict) -> None:
        """Fold a ``{name: value}`` counter delta into the registry.

        This is the cross-process merge point: forked workers cannot
        write into the parent's registry, so they return their counts
        and the parent merges them here.
        """
        with self._lock:
            for name, value in deltas.items():
                self._counters[name] = self._counters.get(name, 0) + value

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; histogram counts and sums add while minima and
        maxima combine.  Gauges are left alone (last write wins, and the
        merging process's own writes are the later ones).
        """
        self.merge_counters(snapshot["counters"])
        with self._lock:
            for name, o in snapshot["histograms"].items():
                h = self._histograms.get(name)
                if h is None:
                    self._histograms[name] = [o["count"], o["total"],
                                              o["min"], o["max"]]
                else:
                    h[0] += o["count"]
                    h[1] += o["total"]
                    h[2] = min(h[2], o["min"])
                    h[3] = max(h[3], o["max"])

    # -- readers -------------------------------------------------------
    def counter(self, name: str, default: float = 0) -> float:
        """Current value of counter ``name`` (``default`` when unset)."""
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: float | None = None):
        """Current value of gauge ``name`` (``default`` when unset)."""
        with self._lock:
            return self._gauges.get(name, default)

    def histogram(self, name: str) -> dict | None:
        """Summary dict of histogram ``name`` or ``None`` when unset."""
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                return None
            return self._summary(h)

    @staticmethod
    def _summary(h: list[float]) -> dict:
        count, total, lo, hi = h
        return {
            "count": int(count),
            "total": total,
            "min": lo,
            "max": hi,
            "mean": total / count if count else 0.0,
        }

    def snapshot(self) -> dict:
        """Plain-dict copy of every metric, ready for JSON."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: self._summary(h)
                               for name, h in self._histograms.items()},
            }

    def reset(self) -> None:
        """Drop every metric."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry all instrumented call sites write to.
REGISTRY = MetricsRegistry()


def inc(name: str, value: float = 1) -> None:
    """Increment a global counter — no-op while observability is off."""
    if STATE.enabled:
        REGISTRY.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a global gauge — no-op while observability is off."""
    if STATE.enabled:
        REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample — no-op while observability is off."""
    if STATE.enabled:
        REGISTRY.observe(name, value)


def merge_counters(deltas: dict) -> None:
    """Add counter increments — no-op while observability is off."""
    if STATE.enabled:
        REGISTRY.merge_counters(deltas)
