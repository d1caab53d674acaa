"""Drift-aware online dictionary maintenance (ROADMAP item 5).

The subsystem that keeps a fitted dictionary healthy while the data
drifts under it:

* :mod:`repro.online.stats` — per-atom usage accumulators fed by every
  encode path (serial, parallel-worker, SPMD, streaming, serving).
* :mod:`repro.online.update` — Mensch & Mairal-style minibatch
  surrogate updates (``A_t``/``B_t`` statistics, block-coordinate atom
  refresh) plus dead-atom eviction and re-seeding.
* :mod:`repro.online.drift` — a monitor comparing the measured
  sparsity/error trajectory against the tuner's fitted α(L) curve.
* :mod:`repro.online.sketch` — α(L) estimation from very sparse random
  projections of store columns (Pourkamali-Anaraki et al.), a fraction
  of the bytes of the exact subset estimator.
* :mod:`repro.online.maintainer` — :class:`OnlineMaintainer`, the
  end-to-end loop binding the four together over a ``ColumnStore``.

Submodules are imported lazily: ``repro.online.stats`` must stay
importable from ``repro.linalg`` without dragging the rest of the
stack (and its import cycles) in.
"""

from __future__ import annotations

_EXPORTS = {
    "AtomStats": "stats",
    "watch_dictionary": "stats",
    "unwatch_dictionary": "stats",
    "watched_stats": "stats",
    "record_encode": "stats",
    "OnlineUpdateConfig": "update",
    "OnlineUpdater": "update",
    "DriftConfig": "drift",
    "DriftMonitor": "drift",
    "fit_alpha_curve": "drift",
    "AlphaCurve": "drift",
    "SketchConfig": "sketch",
    "sparse_projection": "sketch",
    "sketch_store_columns": "sketch",
    "tune_dictionary_size_sketched": "sketch",
    "MaintenanceConfig": "maintainer",
    "OnlineMaintainer": "maintainer",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.online' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"repro.online.{module}"),
                   name)


def __dir__():  # pragma: no cover - introspection aid
    return sorted(set(globals()) | set(_EXPORTS))
