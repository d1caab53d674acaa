"""SPMD launcher: run a rank program on every rank of an emulated world.

Equivalent of ``mpiexec -n P python script.py`` for this library:

>>> from repro.mpi import run_spmd
>>> def program(comm):
...     return comm.allreduce(comm.Get_rank())
>>> run_spmd(4, program).returns
[6, 6, 6, 6]

Two interchangeable execution backends sit behind the same API (see
``docs/mpi_backends.md``):

* ``"threads"`` — every rank is a thread of this process.  Zero setup
  cost, but all rank *Python* code shares one GIL, so wall-time never
  beats serial for compute-bound programs.
* ``"processes"`` — every rank is a forked worker process with its own
  GIL; its calls, payloads and return cross one pipe, pickled.  The
  accounting (traffic ledger, virtual clocks, RunReport totals) stays
  in the parent and is bit-identical to the thread backend.

``"auto"`` (the default, also what ``backend=None`` means) picks
``"processes"`` only where it can work and plausibly win: ``fork``
available, a non-daemonic single-threaded parent, more than one visible
core, and ``size > 1``.  A single-rank world always runs inline on the
calling thread, whatever the backend says.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field

from repro.errors import DeadlockError, MPIEmulatorError, RankFailedError
from repro.mpi.communicator import Communicator
from repro.mpi.counters import TrafficLedger
from repro.mpi.world import World, join_with_abort_grace
from repro.observability.report import record_spmd_run

#: Concrete backend names (``"auto"`` resolves to one of these).
MPI_BACKENDS = ("threads", "processes")


def _fork_capable() -> bool:
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    # Daemonic processes may not fork children of their own.
    return not multiprocessing.current_process().daemon


def _visible_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _auto_backend(size: int) -> str:
    """Pick processes only where fork is safe and parallelism can pay."""
    if size < 2 or not _fork_capable():
        return "threads"
    if threading.active_count() > 1:
        # Forking a multi-threaded parent can inherit locks held by
        # other threads mid-operation; stay on the safe backend.
        return "threads"
    if _visible_cores() < 2:
        return "threads"
    return "processes"


def resolve_mpi_backend(backend: str | None = None, *,
                        size: int = 2) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` means ``"auto"``.  Requesting ``"processes"`` explicitly on
    a host that cannot fork raises; ``"auto"`` silently degrades to
    ``"threads"``.
    """
    name = "auto" if backend is None else str(backend).strip().lower()
    if name == "auto":
        return _auto_backend(size)
    if name not in MPI_BACKENDS:
        raise MPIEmulatorError(
            f"unknown MPI backend {name!r}; choose from "
            f"{MPI_BACKENDS + ('auto',)}")
    if name == "processes" and not _fork_capable():
        raise MPIEmulatorError(
            "MPI backend 'processes' requires a fork-capable, "
            "non-daemonic host process; use backend='threads' or 'auto'")
    return name


@dataclass
class SPMDResult:
    """Outcome of one SPMD run.

    Attributes
    ----------
    returns:
        Per-rank return values of the rank program.
    traffic:
        The world's traffic ledger.
    clocks:
        Per-rank virtual clock snapshots (dicts).
    simulated_time:
        Simulated makespan: max over ranks of final clock time (seconds).
        Zero when no cluster was supplied.
    simulated_energy:
        Total simulated energy over all ranks (joules).
    total_flops:
        Sum of FLOPs charged across ranks.
    wall_time:
        Host wall-clock seconds the emulation took.
    backend:
        The concrete execution backend the run used (``"threads"`` or
        ``"processes"``).
    trace:
        Event list (op, ranks, start, end, words in simulated time)
        when the run was launched with ``trace=True``; ``None``
        otherwise.  Render with
        :func:`repro.utils.timeline.render_timeline`.
    """

    returns: list
    traffic: TrafficLedger
    clocks: list = field(default_factory=list)
    simulated_time: float = 0.0
    simulated_energy: float = 0.0
    total_flops: int = 0
    wall_time: float = 0.0
    backend: str = "threads"
    trace: list | None = None


def run_spmd(size: int, fn, *args, cluster=None, timeout: float = 120.0,
             collective_algorithm: str = "flat", trace: bool = False,
             backend: str | None = None, **kwargs) -> SPMDResult:
    """Execute ``fn(comm, *args, **kwargs)`` on ``size`` emulated ranks.

    Parameters
    ----------
    size:
        Number of ranks.  When ``cluster`` is given, pass ``size=0`` (or
        the matching value) to take the cluster's processor count.
    fn:
        The rank program.  Receives a :class:`Communicator` first.
    cluster:
        Optional :class:`~repro.platform.cluster.ClusterConfig`; enables
        virtual-clock performance simulation.
    timeout:
        Host-seconds a blocked rank may wait before the run is declared
        deadlocked.
    collective_algorithm:
        ``"flat"`` (paper's model, default) or ``"tree"``.
    backend:
        ``"threads"``, ``"processes"`` or ``"auto"`` (``None`` means
        ``"auto"``).  Model accounting is identical across backends;
        only wall-time differs.

    Raises
    ------
    RankFailedError
        If any rank program raised; carries per-rank exceptions.
    DeadlockError
        If every live rank blocked in a collective that cannot
        complete.
    """
    if cluster is not None:
        if size in (0, None):
            size = cluster.size
        elif size != cluster.size:
            raise MPIEmulatorError(
                f"size {size} does not match cluster P={cluster.size}")
    if not isinstance(size, int) or size < 1:
        raise MPIEmulatorError(f"size must be a positive int, got {size!r}")

    world = World(size, cluster=cluster, timeout=timeout,
                  collective_algorithm=collective_algorithm, trace=trace)
    returns: list = [None] * size
    deadlock: list = []

    def runner(rank: int) -> None:
        comm = Communicator(world, rank)
        try:
            returns[rank] = fn(comm, *args, **kwargs)
        except DeadlockError as exc:
            deadlock.append(exc)
        except MPIEmulatorError as exc:
            # The world-abort exception itself (identity check) is a
            # propagated/origin protocol failure surfaced after the
            # join; any other emulator error is this rank's own bug.
            if exc is not world.abort_exc:
                world.rank_failed(rank, exc)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            world.rank_failed(rank, exc)
        finally:
            world.rank_finished()

    backend_name = "threads"
    t0 = time.perf_counter()
    if size == 1:
        # Fast path: a single rank needs no concurrency at all.
        runner(0)
    else:
        backend_name = resolve_mpi_backend(backend, size=size)
        if backend_name == "processes":
            from repro.mpi.process_world import run_process_ranks
            run_process_ranks(world, fn, args, kwargs, returns, deadlock)
        else:
            threads = [threading.Thread(target=runner, args=(r,),
                                        name=f"repro-mpi-rank-{r}",
                                        daemon=True)
                       for r in range(size)]
            for t in threads:
                t.start()
            join_with_abort_grace(world, threads)
    wall = time.perf_counter() - t0

    if world.failures:
        raise RankFailedError(world.failures)
    if deadlock:
        raise deadlock[0]
    if world.abort_exc is not None:
        # Abort without a recorded rank exception: a protocol violation
        # (e.g. mismatched collectives) detected inside the emulator.
        raise world.abort_exc

    result = SPMDResult(
        returns=returns,
        traffic=world.traffic,
        clocks=[c.snapshot() for c in world.clocks],
        simulated_time=max(c.time for c in world.clocks),
        simulated_energy=sum(c.energy for c in world.clocks),
        total_flops=sum(c.flops for c in world.clocks),
        wall_time=wall,
        backend=backend_name,
        trace=(sorted(world.trace, key=lambda e: (e["start"], e["end"]))
               if world.trace is not None else None),
    )
    # Fold traffic + virtual-clock totals into the observability layer
    # (no-op unless enabled), so RunReports see every emulated run.
    record_spmd_run(result)
    return result
