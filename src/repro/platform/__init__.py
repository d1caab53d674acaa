"""Simulated distributed platform.

The paper evaluates on an IBM iDataPlex cluster (Intel Xeon X5660) in
1×1, 1×4, 2×8 and 8×8 node×core configurations and characterises each
platform by its word-per-FLOP ratios ``R_bf`` (Sec. VI-B).  This package
provides the synthetic equivalent:

* :class:`MachineSpec` — per-core compute rate, link latencies/bandwidths,
  and energy coefficients;
* :class:`ClusterConfig` — a ``nodes × cores_per_node`` topology over a
  machine spec, with intra- vs inter-node link selection;
* :class:`VirtualClock` — per-rank simulated time and energy;
* cost helpers for collective operations;
* calibration of ``R_bf^time`` / ``R_bf^energy`` from a spec;
* presets matching the paper's four platform shapes.
"""

from repro.platform.machine import MachineSpec
from repro.platform.cluster import ClusterConfig
from repro.platform.clock import VirtualClock
from repro.platform.cost import (
    collective_time,
    collective_energy,
    COLLECTIVE_ALGORITHMS,
)
from repro.platform.calibrate import calibrate_from_spec, RbfRatios
from repro.platform.presets import (
    xeon_x5660_like,
    paper_platforms,
    platform_by_name,
    PAPER_PLATFORM_NAMES,
)

__all__ = [
    "MachineSpec",
    "ClusterConfig",
    "VirtualClock",
    "collective_time",
    "collective_energy",
    "COLLECTIVE_ALGORITHMS",
    "calibrate_from_spec",
    "RbfRatios",
    "xeon_x5660_like",
    "paper_platforms",
    "platform_by_name",
    "PAPER_PLATFORM_NAMES",
]
