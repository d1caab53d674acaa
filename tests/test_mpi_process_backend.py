"""The multiprocess SPMD backend: resolution, shm plane, and parity.

The process backend's contract is *accounting identity*: any rank
program produces the same returns, the same traffic-ledger word counts,
the same virtual-clock totals, and (for the store-backed distributed
transform) bit-identical coefficients, whichever backend executes it.
These tests pin that contract, plus backend resolution, the
shared-memory payload codec, and the process communicator's protocol.
"""

import glob
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import observability as obs
from repro.errors import MPIEmulatorError, RankFailedError
from repro.mpi import Communicator, resolve_mpi_backend, run_spmd
from repro.mpi.process_world import _ALLOWED_METHODS, ProcessCommunicator
from repro.mpi.shm import (
    SHM_THRESHOLD_BYTES,
    SegmentRegistry,
    ShmPayload,
    decode_payload,
    encode_payload,
    export_array,
    map_array,
    sweep_orphans,
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
# Shared-memory payload codec
# ----------------------------------------------------------------------
class TestShmCodec:
    def _namer(self, prefix="repro-test-shm"):
        seq = iter(range(1000))
        return lambda: f"{prefix}-{os.getpid()}-{next(seq)}"

    def test_export_map_roundtrip_copy(self):
        arr = np.arange(300.0).reshape(30, 10)
        payload = export_array(arr, f"repro-test-shm-{os.getpid()}-rt")
        assert isinstance(payload, ShmPayload)
        out = map_array(payload, copy=True)
        np.testing.assert_array_equal(out, arr)
        assert out.flags.writeable

    def test_export_map_roundtrip_pinned(self):
        arr = np.arange(64, dtype=np.int64)
        payload = export_array(arr, f"repro-test-shm-{os.getpid()}-pin")
        view, seg = map_array(payload, copy=False)
        try:
            np.testing.assert_array_equal(view, arr)
        finally:
            del view
            seg.close()

    def test_small_arrays_ride_the_pipe(self):
        small = np.ones(4)
        enc = encode_payload(small, self._namer())
        assert enc is small  # untouched, no segment created

    def test_large_arrays_use_shm(self):
        big = np.ones(SHM_THRESHOLD_BYTES // 8 + 16)
        enc = encode_payload(big, self._namer())
        assert isinstance(enc, ShmPayload)
        np.testing.assert_array_equal(decode_payload(enc), big)

    def test_nested_containers(self):
        big = np.ones(SHM_THRESHOLD_BYTES // 8 + 16)
        value = {"pair": (big, np.arange(3)), "tag": 7}
        enc = encode_payload(value, self._namer())
        assert isinstance(enc["pair"][0], ShmPayload)
        dec = decode_payload(enc)
        np.testing.assert_array_equal(dec["pair"][0], big)
        np.testing.assert_array_equal(dec["pair"][1], np.arange(3))
        assert dec["tag"] == 7

    def test_decode_reports_names(self):
        big = np.zeros(SHM_THRESHOLD_BYTES // 8 + 16)
        enc = encode_payload([big, big + 1], self._namer())
        seen: list = []
        decode_payload(enc, on_name=seen.append)
        assert len(seen) == 2

    def test_decode_reinterns_dtype_singleton(self):
        import pickle
        arr = pickle.loads(pickle.dumps(np.arange(5, dtype=np.int64)))
        out = decode_payload(arr)
        assert out.dtype is np.dtype(np.int64)

    def test_registry_drain_and_sweep(self):
        prefix = f"repro-test-orph-{os.getpid()}"
        registry = SegmentRegistry()
        for i in range(3):
            export_array(np.ones(10), f"{prefix}-{i}")
            registry.add(f"{prefix}-{i}")
        assert registry.drain() == 3
        assert registry.drain() == 0
        export_array(np.ones(10), f"{prefix}-stray")
        if os.path.isdir("/dev/shm"):
            assert sweep_orphans(prefix) == 1
            assert not glob.glob(f"/dev/shm/{prefix}*")
        else:  # still reclaim it on exotic hosts
            from repro.mpi.shm import unlink_quiet
            unlink_quiet(f"{prefix}-stray")


# ----------------------------------------------------------------------
# Cross-backend accounting parity
# ----------------------------------------------------------------------
def _mixed_traffic_program(comm):
    """Exercises every kept call: a large-payload bcast, each named op,
    a nonzero root, object and array gathers, and flop charges."""
    rank, size = comm.Get_rank(), comm.Get_size()
    big = np.full(20_000, float(rank))  # above the shm threshold
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

    def test_no_shm_leak_after_runs(self):
        run_spmd(3, _mixed_traffic_program, backend="processes")
        if os.path.isdir("/dev/shm"):
            assert not glob.glob("/dev/shm/repro-mpi-*")
