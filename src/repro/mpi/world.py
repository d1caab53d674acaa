"""Shared state of one SPMD run: collective slots, clocks, traffic.

A single condition variable guards all shared state.  Coarse locking is
deliberate: the CPython GIL serialises bookkeeping anyway, rank programs
spend their time in BLAS (which releases the GIL), and one lock makes
the deadlock detector trivial to reason about.
"""

from __future__ import annotations

import threading
import time

from repro.errors import DeadlockError, MPIEmulatorError
from repro.mpi.counters import TrafficLedger
from repro.platform.clock import VirtualClock

#: Seconds a straggler rank gets after the world aborts before the
#: runtime invalidates the world and abandons (threads) or terminates
#: (processes) it.  The per-op ``timeout`` still bounds every *blocked*
#: rank; this cap only limits how long a rank wedged in pure user code
#: can delay teardown of an already-failed run.
ABORT_GRACE_CAP = 5.0


class CollectiveSlot:
    """Rendezvous for the N-th collective call of every rank.

    SPMD programs must issue collectives in the same order on every
    rank; the slot validates that the op name and root agree and holds
    each rank's contribution until all have arrived.
    """

    __slots__ = ("op", "root", "contributions", "arrived", "result",
                 "completed", "departed")

    def __init__(self, op: str, root: int) -> None:
        self.op = op
        self.root = root
        self.contributions: dict[int, object] = {}
        self.arrived = 0
        self.result = None
        self.completed = False
        self.departed = 0


class World:
    """All shared state of one emulated MPI world."""

    def __init__(self, size: int, *, cluster=None, timeout: float = 120.0,
                 collective_algorithm: str = "flat",
                 trace: bool = False) -> None:
        if size < 1:
            raise MPIEmulatorError(f"world size must be >= 1, got {size}")
        self.size = size
        self.cluster = cluster
        self.timeout = timeout
        self.collective_algorithm = collective_algorithm
        #: optional event trace: dicts with op/ranks/start/end (sim time)
        self.trace: list | None = [] if trace else None
        self.cond = threading.Condition()
        # key: collective sequence number
        self.collectives: dict[int, CollectiveSlot] = {}
        self.clocks = [VirtualClock() for _ in range(size)]
        self.traffic = TrafficLedger()
        self.alive = size
        self.blocked = 0
        self.progress = 0
        self.abort_exc: BaseException | None = None
        self.failures: dict[int, BaseException] = {}
        #: set by :meth:`invalidate` when the runtime abandons the run;
        #: every later communication attempt raises via ``check_abort``.
        self.invalidated = False

    # ------------------------------------------------------------------
    # abort / deadlock machinery (call with self.cond held)
    # ------------------------------------------------------------------
    def _abort(self, exc: BaseException) -> None:
        if self.abort_exc is None:
            self.abort_exc = exc
        self.cond.notify_all()

    def rank_failed(self, rank: int, exc: BaseException) -> None:
        """Record a rank program exception and wake everyone up."""
        with self.cond:
            self.failures[rank] = exc
            self._abort(MPIEmulatorError(
                f"world aborted: rank {rank} raised {exc!r}"))

    def rank_finished(self) -> None:
        """A rank program returned normally."""
        with self.cond:
            self.alive -= 1
            self.progress += 1
            self.cond.notify_all()

    def invalidate(self, reason: str) -> None:
        """Permanently poison the world after the runtime gives up on it.

        A timed-out or aborted run can leave rank programs wedged in
        user code; once the launcher stops waiting for them the world is
        stale, and any late collective from a straggler must fail fast
        instead of joining a rendezvous nobody else will reach.  Safe to
        call multiple times; takes the condition itself.
        """
        with self.cond:
            self.invalidated = True
            self._abort(MPIEmulatorError(f"world invalidated: {reason}"))

    def check_abort(self) -> None:
        """Raise if the world has been aborted (call with lock held)."""
        if self.abort_exc is not None:
            raise self.abort_exc

    def blocking_wait(self, predicate, *, rank: int, what: str):
        """Wait (holding the condition) until ``predicate()`` is truthy.

        Detects two failure modes while waiting:
        * every live rank blocked and no progress for a stagnation window
          → deadlock (progress-based, because a rank waking from a just-
          completed collective is still counted as blocked until the OS
          schedules it);
        * the world was aborted by another rank's exception.
        Returns ``predicate()``'s truthy value.
        """
        deadline = time.monotonic() + self.timeout
        stagnant_since: float | None = None
        progress_mark = self.progress
        self.blocked += 1
        try:
            while True:
                self.check_abort()
                value = predicate()
                if value:
                    self.progress += 1
                    return value
                now = time.monotonic()
                if self.progress != progress_mark:
                    progress_mark = self.progress
                    stagnant_since = None
                elif self.blocked >= self.alive:
                    if stagnant_since is None:
                        stagnant_since = now
                    elif now - stagnant_since > 1.0:
                        exc = DeadlockError(
                            f"all {self.alive} live rank(s) blocked with no "
                            f"progress; rank {rank} waiting on {what}")
                        self._abort(exc)
                        raise exc
                if now > deadline:
                    exc = DeadlockError(
                        f"rank {rank} timed out after {self.timeout}s "
                        f"waiting on {what}")
                    self._abort(exc)
                    raise exc
                self.cond.wait(timeout=0.05)
        finally:
            self.blocked -= 1

    def record_event(self, op: str, ranks, start: float, end: float,
                     words: int = 0) -> None:
        """Append a trace event (no-op unless tracing; lock held)."""
        if self.trace is not None:
            self.trace.append({"op": op, "ranks": tuple(ranks),
                               "start": start, "end": end,
                               "words": int(words)})


def join_with_abort_grace(world: World, threads: list) -> None:
    """Join the run's threads, but never indefinitely once it failed.

    ``threads`` are the rank threads (thread backend) or the proxy
    threads (process backend).  A healthy world is joined without limit
    (legitimate long compute must finish).  Once the world aborts,
    stragglers get a bounded grace window — min of the world timeout and
    :data:`ABORT_GRACE_CAP` — after which the world is invalidated and
    the launcher stops waiting: an abandoned rank's next collective
    raises instead of touching stale state, and the process backend
    terminates its rank processes.
    """
    grace = min(max(world.timeout, 0.1), ABORT_GRACE_CAP)
    abort_mark: float | None = None
    while True:
        alive = [t for t in threads if t.is_alive()]
        if not alive:
            return
        alive[0].join(timeout=0.05)
        with world.cond:
            aborted = world.abort_exc is not None
        if not aborted:
            abort_mark = None
            continue
        now = time.monotonic()
        if abort_mark is None:
            abort_mark = now
        elif now - abort_mark > grace:
            world.invalidate("run abandoned with ranks still alive after "
                             "the abort grace period")
            return
