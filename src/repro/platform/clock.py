"""Per-rank virtual clock accumulating simulated time and energy.

The MPI emulator executes algorithms with real message-passing
semantics; the *performance* of a run is tracked on these clocks rather
than the host's wall clock, so a 64-rank platform can be simulated
faithfully on a single host core.
"""

from __future__ import annotations

from repro.errors import PlatformError


class VirtualClock:
    """Simulated time (seconds) and energy (joules) of one rank."""

    __slots__ = ("time", "energy", "flops")

    def __init__(self) -> None:
        self.time: float = 0.0
        self.energy: float = 0.0
        self.flops: int = 0

    def advance(self, seconds: float, joules: float = 0.0) -> None:
        """Move the clock forward; time must not run backwards."""
        if seconds < 0 or joules < 0:
            raise PlatformError(
                f"cannot advance by negative amounts ({seconds}s, {joules}J)")
        self.time += seconds
        self.energy += joules

    def synchronize_to(self, t: float) -> None:
        """Wait (idle) until simulated time ``t`` if it is in the future.

        Used at communication events: all participants of a collective
        leave it at the same simulated instant.  Idling consumes time but
        no modelled energy (the model attributes energy to flops/words).
        """
        if t > self.time:
            self.time = t

    def charge_compute(self, flops: float, machine) -> None:
        """Account for local arithmetic on the given machine."""
        if flops < 0:
            raise PlatformError(f"flops must be >= 0, got {flops}")
        self.flops += int(flops)
        self.advance(machine.compute_time(flops), machine.compute_energy(flops))

    def snapshot(self) -> dict:
        """Plain-dict view for reports."""
        return {
            "time": self.time,
            "energy": self.energy,
            "flops": self.flops,
        }

    def __repr__(self) -> str:
        return (f"VirtualClock(time={self.time:.3e}s, "
                f"energy={self.energy:.3e}J, flops={self.flops})")
