"""Pluggable kernel backends for the Batch-OMP greedy loop.

The Batch-OMP *orchestration* — panel-blocked ``DᵀA`` products, CSC
assembly, strict-mode semantics, the Eq. 2/3 FLOP ledger and the
observability counters — is pure python and lives in
:func:`repro.linalg.omp.batch_omp_matrix`.  The
greedy selection loop underneath it is the hot path: for every
selected atom it performs an argmax over ``L`` correlations, an
``O(k²)`` progressive Cholesky update and an ``O(L·k)`` correlation
refresh, with ``k`` rarely above 4 — so its cost is interpreter
overhead per step, not arithmetic.  This package splits that loop out
behind a narrow backend interface — the same pure-python-orchestration-
over-compiled-kernels layering RankMap and gpaw use — so
implementations can be swapped in without touching the accounting
layer:

``numpy``
    The default (:mod:`repro.linalg.kernels.numpy_ref`): a lockstep
    panel loop that advances every active column of a panel by one
    greedy step per round of numpy calls, so the interpreter cost is
    paid per panel instead of per column.  Calls narrower than
    :data:`~repro.linalg.kernels.numpy_ref.LOCKSTEP_MIN_COLS` (serve
    micro-batches) run the per-column loop
    :func:`~repro.linalg.kernels.numpy_ref.batch_omp_column` instead,
    which is also the bit-exact oracle of the lockstep loop: both give
    every column the same bits, whatever its neighbours.
``numba``
    A lazily-compiled ``@njit`` kernel running the whole panel's greedy
    loops in machine code (:mod:`repro.linalg.kernels.numba_kernel`).
    Optional dependency: registered always, available only when numba
    imports.

Selection precedence (first match wins):

1. an explicit ``backend=`` argument (name or backend instance) on
   ``batch_omp_matrix`` / ``encode_columns`` / ``StreamingEncoder`` /
   ``MicroBatcher`` / the tuner;
2. a process default installed with :func:`set_default_backend` (the
   CLI's ``--backend`` flag does this);
3. the ``REPRO_OMP_BACKEND`` environment variable;
4. the built-in default, ``numpy``.

The special name ``auto`` resolves to the first *available* compiled
backend (currently numba) and silently degrades to the numpy reference
when none is importable — it never warns and never fails.

Tolerance contract
------------------
Compiled backends must select the **identical atom sequence** as the
numpy reference on well-conditioned inputs (the conformance suite's
golden cases) and reproduce its coefficients to :data:`COEF_RTOL` /
:data:`COEF_ATOL`.  Exact bit-identity across backends is *not*
promised — a compiled loop may sum in another order or vectorise —
which is why the backend choice is recorded by consumers that persist
results (the streaming encoder's checkpoints) and why every
bit-identity guarantee in the repo (serial vs. parallel vs. streaming
vs. serving) is scoped to *within one backend*.  Within a backend, a
column's result must depend only on ``(G, its DᵀA column, ‖a_j‖²)``:
never on the other columns of the call or on the call's width.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from repro.errors import KernelError

__all__ = [
    "COEF_ATOL",
    "COEF_RTOL",
    "OMP_BACKEND_ENV",
    "OMPKernelBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "registered_backend_names",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]

#: Environment variable consulted when no explicit backend is given.
OMP_BACKEND_ENV = "REPRO_OMP_BACKEND"

#: Coefficient agreement demanded of every backend against the numpy
#: reference (the conformance suite enforces exactly these numbers).
#: Supports must match exactly on the golden cases; coefficients may
#: differ only by reordered floating-point reductions.
COEF_RTOL = 1e-9
COEF_ATOL = 1e-12

#: Compiled backends tried, in order, when resolving ``auto``.
AUTO_PREFERENCE = ("numba",)


class OMPKernelBackend:
    """One implementation of the per-column Batch-OMP greedy loop.

    Subclasses implement :meth:`batch_omp_columns` — everything else
    (strict-mode raises, CSC assembly, FLOP accounting, metrics) stays
    in the orchestration layer, so a backend only ever sees numeric
    arrays and returns numeric arrays.
    """

    #: Registry key; also what ``REPRO_OMP_BACKEND`` matches against.
    name: str = "?"
    #: Whether this backend runs compiled code (``auto`` prefers these).
    compiled: bool = False

    @classmethod
    def available(cls) -> bool:
        """Whether the backend can actually run in this process."""
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        """Human-readable reason when :meth:`available` is False."""
        return None

    def warmup(self) -> None:
        """Pay one-time costs (JIT compilation) eagerly.

        Called by ``batch_omp_matrix`` before a column-parallel map
        forks its workers, so the compiled code is inherited
        copy-on-write instead of being recompiled per child.  The
        default is a no-op.
        """

    def batch_omp_columns(self, gram, dta_panel, col_sq, eps: float,
                          max_atoms: int | None):
        """Greedy-code every column of one precomputed panel.

        Parameters
        ----------
        gram:
            ``DᵀD``, shape ``(L, L)``, float64.
        dta_panel:
            ``DᵀA`` for the panel's columns, shape ``(L, k)``; computed
            by the orchestration layer on its fixed-width aligned
            panels (never by the backend).
        col_sq:
            Per-column ``‖a_j‖²``, shape ``(k,)``.
        eps:
            Relative tolerance of Eq. 1.
        max_atoms:
            Optional sparsity cap (``None`` means ``L``).

        Returns
        -------
        list of ``(support, coefficients, res_sq, iterations,
        converged)`` — one tuple per column, in column order, with the
        support in **selection order** (the orchestration layer sorts).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<OMPKernelBackend {self.name!r}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[OMPKernelBackend]] = {}
_INSTANCES: dict[str, OMPKernelBackend] = {}
# Process-default override (set_default_backend / CLI --backend); takes
# precedence over the environment variable.
_DEFAULT_OVERRIDE: str | None = None
_LOCK = threading.Lock()


def register_backend(cls: type[OMPKernelBackend]) -> type[OMPKernelBackend]:
    """Register a backend class under ``cls.name`` (decorator-friendly).

    Registration reserves the name; availability is checked only at
    resolution time, so optional-dependency backends register
    unconditionally.
    """
    if not cls.name or cls.name in ("auto", "?"):
        raise KernelError(f"backend class {cls!r} needs a concrete name")
    with _LOCK:
        _REGISTRY[cls.name] = cls
        _INSTANCES.pop(cls.name, None)
    return cls


def registered_backend_names() -> list[str]:
    """Every registered backend name (available or not), sorted."""
    return sorted(_REGISTRY)


def available_backends() -> list[str]:
    """Names of the backends that can run in this process, sorted."""
    return [name for name in registered_backend_names()
            if _REGISTRY[name].available()]


def get_backend(name: str) -> OMPKernelBackend:
    """Instance of the backend registered under ``name``.

    Raises :class:`~repro.errors.KernelError` for unknown names and for
    registered-but-unavailable backends (missing optional dependency).
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise KernelError(
            f"unknown OMP kernel backend {name!r}; registered backends: "
            f"{', '.join(registered_backend_names())} (or 'auto')")
    if not cls.available():
        reason = cls.unavailable_reason() or "dependency not importable"
        raise KernelError(
            f"OMP kernel backend {name!r} is registered but unavailable: "
            f"{reason}")
    with _LOCK:
        instance = _INSTANCES.get(name)
        if instance is None:
            instance = _INSTANCES[name] = cls()
    return instance


def default_backend_name() -> str:
    """The name the process would resolve with no explicit backend."""
    if _DEFAULT_OVERRIDE is not None:
        return _DEFAULT_OVERRIDE
    return os.environ.get(OMP_BACKEND_ENV, "").strip().lower() or "numpy"


def resolve_backend(backend=None) -> OMPKernelBackend:
    """Resolve an explicit/configured backend choice to an instance.

    ``backend`` may be a backend instance (returned as-is), a name, or
    ``None`` — in which case the process default, then
    ``REPRO_OMP_BACKEND``, then ``numpy`` apply.  ``auto`` picks the
    first available compiled backend and falls back to ``numpy``.
    """
    if isinstance(backend, OMPKernelBackend):
        return backend
    if backend is not None and not isinstance(backend, str):
        raise KernelError(
            f"backend must be a name or an OMPKernelBackend instance, "
            f"got {type(backend).__name__}")
    name = (backend or default_backend_name()).strip().lower()
    if name == "auto":
        for candidate in AUTO_PREFERENCE:
            cls = _REGISTRY.get(candidate)
            if cls is not None and cls.compiled and cls.available():
                return get_backend(candidate)
        return get_backend("numpy")
    return get_backend(name)


def set_default_backend(name: str | None) -> str | None:
    """Install (or with ``None`` clear) the process-default backend.

    The name is validated immediately — resolving it must succeed — so
    a typo fails at configuration time, not at the first encode.
    Returns the concrete name the default currently resolves to.
    """
    global _DEFAULT_OVERRIDE
    if name is None:
        _DEFAULT_OVERRIDE = None
        return None
    name = str(name).strip().lower()
    resolved = resolve_backend(name)
    _DEFAULT_OVERRIDE = name
    return resolved.name


@contextmanager
def use_backend(name: str | None):
    """Temporarily set the process-default backend (``None`` is a no-op).

    Restores the previous default on exit; this is how coarse-grained
    callers (the tuner) plumb one ``backend`` knob through their whole
    call tree without threading a parameter into every estimator.
    """
    if name is None:
        yield
        return
    global _DEFAULT_OVERRIDE
    previous = _DEFAULT_OVERRIDE
    set_default_backend(name)
    try:
        yield
    finally:
        _DEFAULT_OVERRIDE = previous


# Built-in backends register on import (cheap: no optional dependency
# is imported until a backend is actually resolved and used).
from repro.linalg.kernels import numba_kernel  # noqa: E402,F401
from repro.linalg.kernels import numpy_ref  # noqa: E402,F401
