"""repro — ExtDict: extensible dictionaries for data- and platform-aware
large-scale learning (IPDPS 2017 reproduction).

Public entry points
-------------------
- :class:`repro.core.ExtDict` — the end-to-end framework (tune +
  transform + distributed execution).
- :func:`repro.core.exd_transform` — Algorithm 1 (the ExD projection).
- :mod:`repro.solvers` — LASSO / ridge / elastic-net / CG /
  Power-method / sparse-PCA solvers on serial or distributed Gram
  operators.
- :mod:`repro.baselines` — RCSS, oASIS, RankMap, SGD and the dense
  ``AᵀA`` comparison points.
- :mod:`repro.mpi`, :mod:`repro.platform` — the emulated distributed
  substrate (message passing + performance simulation).
- :mod:`repro.data` — synthetic union-of-subspaces dataset surrogates.
- :mod:`repro.apps` — denoising, super-resolution, PCA, clustering and
  classification applications.

See ``docs/api_overview.md`` for the full index.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
