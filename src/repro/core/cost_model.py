"""The performance model of Sec. VI-B (Eqs. 2–4).

Costs are expressed in FLOP-equivalents: one communicated word counts as
``R_bf`` operations (time or energy flavour).  The model is deliberately
simple — it ignores memory hierarchy, load imbalance and latency — and
Fig. 8 verifies that it still predicts the *trend* of the simulated
(and, on the authors' cluster, measured) runtime.

Factored-dictionary extension: every Eq. 2–4 entry point accepts
``transform_nnz`` — the cost of one ``Dᵀx`` apply.  The paper treats
this as the fixed dense constant ``M·L``; a sparse-factor fast
transform (:mod:`repro.core.fastdict`) replaces it with
``Σⱼ nnz(Sⱼ) = RC·M·L``, which changes both the arithmetic term of
Eqs. 2/3 and the dictionary-storage term of Eq. 4 while leaving the
communication term (a function of the *shape*, not the storage) alone.
Passing ``transform_nnz=None`` (or ``M·L``) reproduces the paper's
dense numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError, ValidationError
from repro.platform.calibrate import RbfRatios, calibrate_from_spec
from repro.platform.cluster import ClusterConfig


def _check(m: int, nnz: int, p: int) -> None:
    if m < 1 or p < 1 or nnz < 0:
        raise ValidationError(
            f"invalid cost query: M={m}, nnz={nnz}, P={p}")


def _resolve_transform_nnz(m: int, l: int, transform_nnz) -> int:
    if transform_nnz is None:
        return m * l
    transform_nnz = int(transform_nnz)
    if transform_nnz < 0:
        raise ValidationError(
            f"transform_nnz must be >= 0, got {transform_nnz}")
    return transform_nnz


def runtime_cost(m: int, l: int, nnz: int, p: int, rbf_time: float, *,
                 transform_nnz: int | None = None) -> float:
    """Eq. 2: ``(T + nnz(C))/P + min(M, L)·R_bf^time`` (FLOP-equiv.).

    ``T`` is the dictionary-apply cost per Gram update: the paper's
    dense ``M·L`` by default, or the factored ``Σⱼ nnz(Sⱼ)`` when
    ``transform_nnz`` is given (see :mod:`repro.core.fastdict`).

    The communication term vanishes on a single processor — no message
    passing happens, which is what makes the optimal L platform-
    dependent (P=1 tolerates large dictionaries, many-node platforms pay
    ``R_bf`` per word until L reaches M, after which redundancy is free
    on the wire).  Factoring ``D`` does not change the communicated
    vector lengths, so the ``min(M, L)`` term is unaffected by
    ``transform_nnz``.
    """
    _check(m, nnz, p)
    if l < 1:
        raise ValidationError(f"L must be >= 1, got {l}")
    tnnz = _resolve_transform_nnz(m, l, transform_nnz)
    comm = min(m, l) * rbf_time if p > 1 else 0.0
    return (tnnz + nnz) / p + comm


def energy_cost(m: int, l: int, nnz: int, p: int, rbf_energy: float, *,
                transform_nnz: int | None = None) -> float:
    """Eq. 3: same form with the energy flavour of R_bf."""
    return runtime_cost(m, l, nnz, p, rbf_energy,
                        transform_nnz=transform_nnz)


def memory_cost_per_node(m: int, l: int, nnz: int, n: int, p: int, *,
                         transform_nnz: int | None = None) -> float:
    """Eq. 4: per-node words ``W_D + (nnz(C) + N)/P``.

    ``W_D`` is the replicated dictionary storage: dense ``M·L`` by
    default, or the factor nnz for a fast-transform dictionary.
    """
    _check(m, nnz, p)
    if l < 1 or n < 1:
        raise ValidationError(f"L and N must be >= 1, got {l}, {n}")
    tnnz = _resolve_transform_nnz(m, l, transform_nnz)
    return tnnz + (nnz + n) / p


@dataclass
class CostModel:
    """Eqs. 2–4 bound to a concrete platform.

    ``rbf`` defaults to the analytic calibration of the cluster's
    machine spec; pass an explicit :class:`RbfRatios` to override it.
    """

    cluster: ClusterConfig
    rbf: RbfRatios | None = None

    def __post_init__(self) -> None:
        if self.rbf is None:
            self.rbf = calibrate_from_spec(self.cluster)

    @property
    def p(self) -> int:
        """Processor count of the bound platform."""
        return self.cluster.size

    def time(self, m: int, l: int, nnz: int, *,
             transform_nnz: int | None = None) -> float:
        """Eq. 2 in FLOP-equivalents for one Gram update."""
        return runtime_cost(m, l, nnz, self.p, self.rbf.time,
                            transform_nnz=transform_nnz)

    def time_seconds(self, m: int, l: int, nnz: int, *,
                     transform_nnz: int | None = None) -> float:
        """Eq. 2 converted to predicted seconds per update."""
        return self.time(m, l, nnz, transform_nnz=transform_nnz) \
            / self.cluster.machine.flop_rate

    def energy(self, m: int, l: int, nnz: int, *,
               transform_nnz: int | None = None) -> float:
        """Eq. 3 in FLOP-equivalents."""
        return energy_cost(m, l, nnz, self.p, self.rbf.energy,
                           transform_nnz=transform_nnz)

    def energy_joules(self, m: int, l: int, nnz: int, *,
                      transform_nnz: int | None = None) -> float:
        """Eq. 3 converted to predicted joules per update."""
        return self.energy(m, l, nnz, transform_nnz=transform_nnz) \
            * self.cluster.machine.energy_per_flop

    def memory(self, m: int, l: int, nnz: int, n: int, *,
               transform_nnz: int | None = None) -> float:
        """Eq. 4 per-node words."""
        return memory_cost_per_node(m, l, nnz, n, self.p,
                                    transform_nnz=transform_nnz)

    def objective(self, kind: str, m: int, l: int, nnz: int, n: int, *,
                  transform_nnz: int | None = None) -> float:
        """Dispatch on the tuning objective ("time"/"energy"/"memory")."""
        if kind == "time":
            return self.time(m, l, nnz, transform_nnz=transform_nnz)
        if kind == "energy":
            return self.energy(m, l, nnz, transform_nnz=transform_nnz)
        if kind == "memory":
            return self.memory(m, l, nnz, n, transform_nnz=transform_nnz)
        raise PlatformError(
            f"unknown objective {kind!r}; choose time, energy or memory")
