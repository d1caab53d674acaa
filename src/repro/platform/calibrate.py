"""Calibration of the word-per-FLOP ratios ``R_bf``.

The paper "experimentally measures the platform-specific relative cost
of arithmetic vs. communication (R_bf^time)" (Sec. VIII).  Here
:func:`calibrate_from_spec` derives the ratio analytically from a
:class:`~repro.platform.cluster.ClusterConfig`, so it is exactly
consistent with the simulator's clock advance rules.

``R_bf`` converts a word of communication into its FLOP-equivalent cost,
so Eq. 2's objective ``(M·L + nnz(C))/P + min(M, L)·R_bf`` is expressed
in a single unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError
from repro.platform.cluster import ClusterConfig


@dataclass(frozen=True)
class RbfRatios:
    """FLOP-equivalents of one communicated word, for time and energy."""

    time: float
    energy: float

    def __post_init__(self) -> None:
        if self.time < 0 or self.energy < 0:
            raise PlatformError(
                f"R_bf ratios must be >= 0, got {self.time}, {self.energy}")


def calibrate_from_spec(cluster: ClusterConfig) -> RbfRatios:
    """Derive ``R_bf`` from the cluster's machine spec.

    Uses the bottleneck link of the configuration: inter-node when the
    cluster spans several nodes, intra-node otherwise — because
    Algorithm 2's reduce/broadcast traverses the slowest link on its
    critical path.  Heterogeneous clusters calibrate against their
    slowest machine for the same reason.
    """
    m = cluster.slowest_machine()
    inter = cluster.worst_link_inter()
    word_seconds = m.word_time(inter_node=inter)
    rbf_time = word_seconds * m.flop_rate  # flops executable per word-time
    word_joules = m.word_energy(inter_node=inter)
    if m.energy_per_flop > 0:
        rbf_energy = word_joules / m.energy_per_flop
    else:
        rbf_energy = 0.0
    return RbfRatios(time=rbf_time, energy=rbf_energy)
