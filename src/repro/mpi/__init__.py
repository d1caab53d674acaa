"""MPI emulator: the four collectives the SPMD rank programs use.

The paper's reference implementation is C++/MPI; this package provides a
faithful message-passing runtime that executes the same SPMD algorithms
on one host:

* each rank runs the user's rank program in its own thread or its own
  forked process (real parallelism, every message pickled on one pipe
  per rank — see ``docs/mpi_backends.md``); ``auto`` picks from the
  host;
* a rank's communicator offers ``bcast``, ``reduce``, ``allreduce`` and
  ``gather`` over the whole world (mpi4py's lowercase, pickled-object
  convention), plus ``charge_flops``, ``Get_rank`` and ``Get_size``;
* every transfer is tallied in words (float64 units) by a traffic
  ledger, and, when a :class:`~repro.platform.cluster.ClusterConfig` is
  supplied, advances per-rank virtual clocks through the α-β cost model
  so that runtime/energy of 64-rank platforms can be simulated
  deterministically on a single core.  Accounting is identical on both
  backends — only wall-clock time differs.

Entry point: :func:`repro.mpi.runtime.run_spmd`.
"""

from repro.mpi.datatypes import words_of
from repro.mpi.counters import TrafficLedger
from repro.mpi.communicator import Communicator, REDUCE_OPS
from repro.mpi.runtime import (
    MPI_BACKENDS,
    SPMDResult,
    resolve_mpi_backend,
    run_spmd,
)

__all__ = [
    "words_of",
    "TrafficLedger",
    "Communicator",
    "REDUCE_OPS",
    "run_spmd",
    "SPMDResult",
    "MPI_BACKENDS",
    "resolve_mpi_backend",
]
