"""Unified observability layer: metrics + spans + run reports.

Disabled by default; every instrumented call site costs one flag check
while off.  Enable explicitly (:func:`enable` / the :class:`observed`
context manager) or through the CLI's ``--metrics-json`` / ``--profile``
flags, then assemble everything with
:func:`~repro.observability.report.collect_report`::

    from repro import observability as obs

    obs.enable()
    with obs.span("exd.transform"):
        ...
    report = obs.collect_report(command="transform")
    report.save("metrics.json")

Metric-name conventions (dotted, subsystem-first):

=====================  ==============================================
``omp.*``              Batch-OMP encode (columns, iterations, flops)
``gram_cache.*``       process-wide ``DᵀD`` cache hits/misses
``pool.*``             column-parallel encode scheduling (chunks,
                       workers)
``alpha.*``            α(L) estimation trials
``tuner.*``            Sec. VII tuner probes and candidates
``solver.*``           distributed regression solvers
``power_method.*``     distributed Power method
``mpi.*``              emulated SPMD runs (collective/wire words)
``store.*``            column-store I/O (chunks/bytes read, appends,
                       orphans reclaimed by crash-safe appends)
``serve.*``            encode service (requests, batches, coalesced
                       batches, 429/504 rejections, hot-swaps, and
                       per-tenant ``serve.tenant.<t>.*`` columns/nnz
                       plus Eq. 2/3 cost accounting)
``online.*``           drift-aware maintenance (minibatches observed,
                       atoms refreshed/re-seeded, drift triggers,
                       sketched-tuner sample sizes, generations
                       built/published)
=====================  ==============================================

Span paths nest with ``/`` per thread and per asyncio task
(``extdict.fit/extdict.tune``).
"""

from __future__ import annotations

from repro.observability._state import STATE
from repro.observability.metrics import (
    REGISTRY,
    MetricsRegistry,
    inc,
    merge_counters,
    observe,
    set_gauge,
)
from repro.observability.report import (
    SCHEMA,
    RunReport,
    _reset_spmd,
    collect_report,
    record_spmd_run,
)
from repro.observability.spans import SPANS, SpanRecorder, current_span_path, span

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "RunReport",
    "SCHEMA",
    "SPANS",
    "SpanRecorder",
    "collect_report",
    "current_span_path",
    "disable",
    "enable",
    "enabled",
    "inc",
    "merge_counters",
    "observe",
    "observed",
    "record_spmd_run",
    "reset",
    "set_gauge",
    "span",
]


def enable() -> None:
    """Turn the observability layer on (process-wide)."""
    STATE.enabled = True


def disable() -> None:
    """Turn the observability layer off (instrumentation becomes no-ops)."""
    STATE.enabled = False


def enabled() -> bool:
    """Whether the observability layer is currently on."""
    return STATE.enabled


def reset() -> None:
    """Clear every accumulated metric, span and SPMD aggregate."""
    REGISTRY.reset()
    SPANS.reset()
    _reset_spmd()


class observed:
    """Context manager: enable within the block, restore on exit.

    ``observed(fresh=True)`` (the default) also resets the accumulated
    state on entry, so the block's telemetry stands alone.
    """

    def __init__(self, fresh: bool = True) -> None:
        self.fresh = fresh
        self._was_enabled = False

    def __enter__(self) -> "observed":
        self._was_enabled = STATE.enabled
        if self.fresh:
            reset()
        enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        STATE.enabled = self._was_enabled
        return False
