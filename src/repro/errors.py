"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by the library derive from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors (``TypeError`` etc. are still raised for
misuse that static checking would catch).  :func:`portable_exc` readies
any exception to cross a process boundary; it lives here so a
``fork_map`` worker can report a failure without importing
:mod:`repro.mpi`.
"""

from __future__ import annotations

import pickle


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (shape, dtype, range, ...)."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative routine failed to satisfy its stopping criterion.

    Attributes
    ----------
    iterations:
        Number of iterations executed before giving up.
    residual:
        Last observed residual / error measure (``None`` when not
        meaningful for the failing routine).
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DictionaryError(ReproError, RuntimeError):
    """The sampled dictionary cannot satisfy the requested tolerance.

    Raised e.g. when OMP exhausts every atom of ``D`` and the residual of
    some column still exceeds ``eps * ||a_i||`` (the paper's ``L < L_min``
    regime, Sec. VII).
    """


class MPIEmulatorError(ReproError, RuntimeError):
    """Generic failure inside the MPI emulator runtime."""


class DeadlockError(MPIEmulatorError):
    """The emulator detected that every live rank is blocked."""


class RankFailedError(MPIEmulatorError):
    """A rank program raised; carries the original exception per rank.

    Attributes
    ----------
    failures:
        Mapping ``rank -> exception`` for every rank that raised.
    """

    def __init__(self, failures: dict[int, BaseException]) -> None:
        ranks = ", ".join(str(r) for r in sorted(failures))
        super().__init__(f"rank program failed on rank(s) {ranks}: "
                         f"{next(iter(failures.values()))!r}")
        self.failures = dict(failures)


class PlatformError(ReproError, RuntimeError):
    """Invalid platform description or cost-model query."""


class TuningError(ReproError, RuntimeError):
    """The ExD tuner could not produce a feasible dictionary size."""


class CheckpointError(ReproError, RuntimeError):
    """A streaming-encode checkpoint cannot be created or resumed.

    Raised when a checkpoint directory holds state that conflicts with
    the requested run (different store contents, different ExD
    parameters, or a fresh run pointed at a populated directory without
    ``resume=True``).
    """


def portable_exc(exc: BaseException) -> BaseException:
    """Return ``exc`` if it pickles, else a faithful stand-in.

    For exceptions that must cross a process boundary: a ``fork_map``
    worker's failing task and an SPMD rank process's failure both reach
    the parent as a pickle.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(f"[{type(exc).__name__}] {exc}")
