"""Drift-aware online dictionary maintenance.

The subsystem that keeps a fitted dictionary healthy while the data
drifts under it:

* :mod:`repro.online.stats` — per-atom usage accumulators, fed by the
  maintainer with the codes of each step's encode.
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

The package is a client of the encode engine and the tuner: nothing
below :mod:`repro.online` imports it.
"""

from __future__ import annotations

from repro.online.drift import (
    AlphaCurve,
    DriftConfig,
    DriftMonitor,
    fit_alpha_curve,
)
from repro.online.maintainer import MaintenanceConfig, OnlineMaintainer
from repro.online.sketch import (
    SketchConfig,
    sketch_store_columns,
    sparse_projection,
    tune_dictionary_size_sketched,
)
from repro.online.stats import AtomStats
from repro.online.update import OnlineUpdateConfig, OnlineUpdater

__all__ = [
    "AlphaCurve",
    "AtomStats",
    "DriftConfig",
    "DriftMonitor",
    "MaintenanceConfig",
    "OnlineMaintainer",
    "OnlineUpdateConfig",
    "OnlineUpdater",
    "SketchConfig",
    "fit_alpha_curve",
    "sketch_store_columns",
    "sparse_projection",
    "tune_dictionary_size_sketched",
]
