"""The multiprocess SPMD backend: resolution, protocol, and parity.

The process backend's contract is *accounting identity*: any rank
program produces the same returns, the same traffic-ledger word counts,
the same virtual-clock totals, and (for the store-backed distributed
transform) bit-identical coefficients, whichever backend executes it.
These tests pin that contract, plus backend resolution, the process
communicator's pipe protocol, and the dtype re-interning of what a
pipe delivers.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import observability as obs
from repro.errors import MPIEmulatorError, RankFailedError
from repro.mpi import Communicator, resolve_mpi_backend, run_spmd
from repro.mpi.process_world import (
    _ALLOWED_METHODS,
    ProcessCommunicator,
    _reintern,
)
from repro.mpi.world import World
from repro.platform.presets import platform_by_name

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method")


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_default_is_auto(self):
        assert resolve_mpi_backend(None, size=4) \
            == resolve_mpi_backend("auto", size=4)

    def test_unknown_names_rejected(self):
        with pytest.raises(MPIEmulatorError):
            resolve_mpi_backend("mpi4py", size=2)

    def test_auto_degrades_to_threads_on_single_core(self, monkeypatch):
        monkeypatch.setattr("repro.mpi.runtime._visible_cores", lambda: 1)
        assert resolve_mpi_backend(None, size=4) == "threads"

    def test_auto_is_threads_for_single_rank(self):
        assert resolve_mpi_backend("auto", size=1) == "threads"

    def test_explicit_processes_without_fork_raises(self, monkeypatch):
        monkeypatch.setattr("repro.mpi.runtime._fork_capable",
                            lambda: False)
        with pytest.raises(MPIEmulatorError):
            resolve_mpi_backend("processes", size=2)
        # auto must degrade silently on the same host
        assert resolve_mpi_backend("auto", size=2) == "threads"

    def test_result_reports_backend(self):
        res = run_spmd(2, lambda comm: comm.allreduce(1),
                       backend="threads")
        assert res.backend == "threads"

    @needs_fork
    def test_result_reports_process_backend(self):
        res = run_spmd(2, lambda comm: comm.allreduce(1),
                       backend="processes")
        assert res.backend == "processes"


# ----------------------------------------------------------------------
# The communicator surface and the process backend's protocol
# ----------------------------------------------------------------------
#: Every call a rank program may make.
KEPT_CALLS = {"Get_rank", "Get_size", "charge_flops", "bcast", "reduce",
              "allreduce", "gather"}


class _RecordingLink:
    """Stands in for a worker's pipe end: records each RPC's name."""

    def __init__(self) -> None:
        self.methods: list = []

    def call(self, method, args):
        self.methods.append(method)


def _public(obj) -> set:
    return {name for name in dir(obj) if not name.startswith("_")}


_PERFBENCH_PROBE = """
import json
from repro.mpi import resolve_mpi_backend, run_spmd
res = run_spmd(2, lambda comm: comm.allreduce(comm.Get_rank()))
print(json.dumps({
    "resolved": resolve_mpi_backend(None, size=2),
    "ran": res.backend,
    "calls": res.traffic.ops["allreduce"].calls,
    "wire_words": res.traffic.total_wire_words(),
}))
"""


_TRACKER_PROBE = """
import json
import numpy as np
from multiprocessing import resource_tracker
from repro.mpi import run_spmd

def prog(comm):
    comm.bcast(np.ones(100_000) if comm.Get_rank() == 0 else None, root=0)
    return resource_tracker._resource_tracker._pid
res = run_spmd(2, prog, backend="processes")
print(json.dumps([resource_tracker._resource_tracker._pid] + res.returns))
"""


class TestProtocol:
    def test_both_communicators_expose_exactly_the_kept_calls(self):
        assert _public(Communicator(World(2), 0)) == KEPT_CALLS
        assert _public(ProcessCommunicator(_RecordingLink(), 0, 2)) \
            == KEPT_CALLS

    def test_allowed_methods_are_the_rpcs_sent(self):
        link = _RecordingLink()
        comm = ProcessCommunicator(link, 0, 2)
        comm.Get_rank()
        comm.Get_size()
        comm.charge_flops(10)
        comm.bcast(1)
        comm.reduce(1)
        comm.allreduce(1)
        comm.gather(1)
        assert set(link.methods) == _ALLOWED_METHODS
        assert len(link.methods) == len(_ALLOWED_METHODS)

    @needs_fork
    def test_proxy_refuses_other_method_names(self):
        def prog(comm):
            if comm.Get_rank() == 0:
                comm._link.call("send", (1, 1))
        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(2, prog, backend="processes", timeout=10)
        err = exc_info.value.failures[0]
        assert isinstance(err, MPIEmulatorError)
        assert "'send'" in str(err)

    @needs_fork
    def test_unpicklable_return_fails_that_rank(self):
        def prog(comm):
            return threading.Lock() if comm.Get_rank() == 1 else 1
        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(2, prog, backend="processes", timeout=10)
        assert list(exc_info.value.failures) == [1]
        assert "could not be transferred" \
            in str(exc_info.value.failures[1])

    @needs_fork
    def test_no_resource_tracker_started(self):
        """A large bcast starts no helper process, in the parent or a
        rank; a fresh interpreter has none to begin with."""
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _TRACKER_PROBE],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout.strip().splitlines()[-1]) \
            == [None, None, None]

    def test_auto_backend_is_what_perfbench_gates_on(self):
        """perfbench's fingerprint reads ``resolve_mpi_backend(None,
        size=2)``, and ``fit_learn_spmd`` gates on the backend a 2-rank
        run reports and reads its traffic ledger.  A fresh interpreter
        has one thread, as perfbench's has."""
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _PERFBENCH_PROBE],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        forks = "fork" in multiprocessing.get_all_start_methods()
        expected = ("processes" if forks
                    and len(os.sched_getaffinity(0)) >= 2 else "threads")
        assert out["resolved"] == out["ran"] == expected
        assert out["calls"] == 1
        assert out["wire_words"] == 2


# ----------------------------------------------------------------------
# Payloads received over the pipe
# ----------------------------------------------------------------------
_Pair = namedtuple("_Pair", "a b")


class TestReceivedPayloads:
    def test_reintern_restores_dtype_singletons_in_nested_payload(self):
        """Dtypes change in place; the containers, and their types, are
        the ones unpickled."""
        value = pickle.loads(pickle.dumps(
            {"pair": _Pair(np.arange(5, dtype=np.int64), [np.ones(2)]),
             "tag": 7}))
        assert value["pair"].a.dtype is not np.dtype(np.int64)
        assert _reintern(value) is value
        assert isinstance(value["pair"], _Pair)
        assert value["pair"].a.dtype is np.dtype(np.int64)
        assert value["pair"].b[0].dtype is np.dtype(np.float64)

    @needs_fork
    def test_namedtuple_payload_identical_across_backends(self):
        """A namedtuple stays one on the rank, and bills as on threads."""
        def prog(comm):
            got = comm.bcast(_Pair(1, np.arange(3)) if comm.Get_rank() == 0
                             else None, root=0)
            return type(got).__name__, _Pair(comm.Get_rank(), "x")

        runs = [run_spmd(2, prog, backend=name)
                for name in ("threads", "processes")]
        threads, procs = ({op: (t.calls, t.payload_words)
                           for op, t in res.traffic.snapshot().items()}
                          for res in runs)
        assert threads == procs
        assert runs[1].returns == [("_Pair", _Pair(0, "x")),
                                   ("_Pair", _Pair(1, "x"))]
        assert all(isinstance(r[1], _Pair) for r in runs[1].returns)


# ----------------------------------------------------------------------
# Cross-backend accounting parity
# ----------------------------------------------------------------------
def _mixed_traffic_program(comm):
    """Exercises every kept call: a large-payload bcast, each named op,
    a nonzero root, object and array gathers, and flop charges."""
    rank, size = comm.Get_rank(), comm.Get_size()
    big = np.full(20_000, float(rank))  # 160 KB, one pipe message
    got = comm.bcast(big if rank == 0 else None, root=0)
    total = comm.allreduce(float(got[0]) + rank, op="sum")
    total += comm.allreduce(np.arange(3.0) * (rank + 1), op="prod")[2]
    total += comm.allreduce(rank, op="min")
    peak = comm.reduce(np.full(5, float(rank)), op="max", root=size - 1)
    if rank == size - 1:
        total += float(peak.sum())
    total += comm.bcast({"round": rank} if rank == 1 else None,
                        root=1)["round"]
    rows = comm.gather(np.arange(4) + rank, root=0)
    tags = comm.gather(("rank", rank), root=1)
    comm.charge_flops(1000 * (rank + 1))
    total += comm.allreduce(1)
    if rank == 0:
        return total + float(np.sum(rows))
    if rank == 1:
        return total + len(tags)
    return total


def _snapshot(res):
    return (
        res.returns,
        {op: (t.calls, t.payload_words, t.wire_words)
         for op, t in res.traffic.snapshot().items()},
        res.clocks,
        res.simulated_time,
        res.simulated_energy,
        res.total_flops,
    )


@needs_fork
class TestBackendParity:
    def test_mixed_traffic_identical(self):
        cluster = platform_by_name("1x4")
        runs = {
            name: run_spmd(0, _mixed_traffic_program, cluster=cluster,
                           backend=name)
            for name in ("threads", "processes")
        }
        assert _snapshot(runs["threads"]) == _snapshot(runs["processes"])

    @pytest.mark.parametrize("op", ["allreduce", "reduce", "gather",
                                    "bcast"])
    def test_each_collective_identical(self, op):
        def prog(comm):
            rank = comm.Get_rank()
            if op == "allreduce":
                return comm.allreduce(np.arange(6) + rank)
            if op == "reduce":
                return comm.reduce(rank + 1.5, root=0)
            if op == "gather":
                return comm.gather((rank, "x" * rank), root=0)
            return comm.bcast(("root", [1.5, 2]) if rank == 2 else None,
                              root=2)

        cluster = platform_by_name("1x4")
        base = run_spmd(0, prog, cluster=cluster, backend="threads")
        cand = run_spmd(0, prog, cluster=cluster, backend="processes")
        b, c = _snapshot(base), _snapshot(cand)
        for x, y in zip(b[0], c[0]):
            if isinstance(x, np.ndarray):
                np.testing.assert_array_equal(x, y)
            else:
                assert x == y
        assert b[1:] == c[1:]

    def test_report_totals_identical(self):
        """Eq. 2/3 totals (simulated time/energy) and ledger word
        counts folded into the RunReport must match across backends."""
        cluster = platform_by_name("1x4")
        sections = {}
        for name in ("threads", "processes"):
            with obs.observed(fresh=True):
                run_spmd(0, _mixed_traffic_program, cluster=cluster,
                         backend=name)
                report = obs.collect_report().to_dict()
            clocks = dict(report["clocks"])
            clocks.pop("wall_time", None)
            sections[name] = (clocks, report["traffic"])
        assert sections["threads"] == sections["processes"]
