"""Nested span-based tracing with near-zero overhead when disabled.

A span is a named timed region::

    with span("exd.transform"):
        ...

Spans nest: a span opened while another is active in the same context
is recorded under the parent's path, joined with ``/`` (e.g.
``exd.transform/omp.encode``).  The current path lives in a
:class:`contextvars.ContextVar`, so every thread *and* every asyncio
task has its own nesting — the MPI emulator's rank threads start fresh
root paths, and concurrent requests on the serve daemon's event loop
never nest inside each other's spans — while the aggregated table is
global and lock-protected, so all threads fold into one report.  A
forked process inherits the path open at the fork, and
:meth:`SpanRecorder.merge` folds a child's table back into its parent's.

When observability is disabled :func:`span` returns a shared no-op
context manager: the disabled cost is one flag check plus an attribute
load, no allocation, no clock read.

Exceptions unwind cleanly: a span exited by an exception still records
its duration, increments its ``errors`` count, and restores the
enclosing path, so later spans nest where they should.
"""

from __future__ import annotations

import contextvars
import threading
import time

from repro.observability._state import STATE

__all__ = ["SpanRecorder", "SPANS", "current_span_path", "span"]

#: Separator between parent and child span names in an aggregated path.
PATH_SEP = "/"


class SpanRecorder:
    """Aggregates completed spans per path: count/total/min/max/errors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[str] = \
            contextvars.ContextVar("repro_span_path", default="")
        # path -> [count, total_s, min_s, max_s, errors]
        self._table: dict[str, list[float]] = {}

    def current_path(self) -> str:
        """Path of the innermost active span in this context ('' if none)."""
        return self._current.get()

    # -- recording -----------------------------------------------------
    def push(self, name: str) -> tuple[str, contextvars.Token]:
        """Enter span ``name``; returns its path and the reset token."""
        parent = self._current.get()
        path = parent + PATH_SEP + name if parent else name
        return path, self._current.set(path)

    def pop(self, path: str, token: contextvars.Token, duration: float,
            failed: bool) -> None:
        """Leave the span ``push`` returned ``(path, token)`` for."""
        self._current.reset(token)
        self._add(path, 1, duration, duration, duration,
                  1 if failed else 0)

    def _add(self, path: str, count: int, total: float, lo: float,
             hi: float, errors: int) -> None:
        with self._lock:
            entry = self._table.get(path)
            if entry is None:
                self._table[path] = [count, total, lo, hi, errors]
            else:
                entry[0] += count
                entry[1] += total
                entry[2] = min(entry[2], lo)
                entry[3] = max(entry[3], hi)
                entry[4] += errors

    def merge(self, spans: dict) -> None:
        """Fold another recorder's :meth:`snapshot` into this table.

        Counts, totals and errors add; minima and maxima combine.  This
        is how spans recorded in a forked worker reach the parent.
        """
        for path, e in spans.items():
            self._add(path, e["count"], e["total_s"], e["min_s"],
                      e["max_s"], e["errors"])

    # -- readers -------------------------------------------------------
    def snapshot(self) -> dict:
        """``{path: {count, total_s, min_s, max_s, errors}}`` copy."""
        with self._lock:
            return {
                path: {
                    "count": int(e[0]),
                    "total_s": e[1],
                    "min_s": e[2],
                    "max_s": e[3],
                    "errors": int(e[4]),
                }
                for path, e in sorted(self._table.items())
            }

    def reset(self) -> None:
        """Drop the aggregated table (active span paths are untouched)."""
        with self._lock:
            self._table.clear()


#: The process-wide recorder all spans report into.
SPANS = SpanRecorder()


class _Span:
    """Context manager for one live span (enabled path)."""

    __slots__ = ("name", "_path", "_token", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_Span":
        self._path, self._token = SPANS.push(self.name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        SPANS.pop(self._path, self._token, time.perf_counter() - self._t0,
                  failed=exc_type is not None)
        return False


class _NullSpan:
    """Shared do-nothing context manager (disabled path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str):
    """Open a named span; a shared no-op when observability is off."""
    if not STATE.enabled:
        return _NULL_SPAN
    return _Span(name)


def current_span_path() -> str:
    """The caller's innermost active span path ('' when none)."""
    return SPANS.current_path()
