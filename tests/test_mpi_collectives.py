"""Collective semantics of the MPI emulator."""

import multiprocessing

import numpy as np
import pytest

from repro.errors import MPIEmulatorError, RankFailedError, ValidationError
from repro.mpi import run_spmd


class TestBcast:
    def test_object_bcast(self):
        def prog(comm):
            data = {"k": [1, 2]} if comm.Get_rank() == 0 else None
            return comm.bcast(data, root=0)
        res = run_spmd(4, prog)
        assert all(r == {"k": [1, 2]} for r in res.returns)

    def test_bcast_nonzero_root(self):
        def prog(comm):
            data = "payload" if comm.Get_rank() == 2 else None
            return comm.bcast(data, root=2)
        res = run_spmd(4, prog)
        assert all(r == "payload" for r in res.returns)

    def test_bcast_copies_are_independent(self):
        def prog(comm):
            data = [0] if comm.Get_rank() == 0 else None
            out = comm.bcast(data, root=0)
            out.append(comm.Get_rank())
            return out
        res = run_spmd(3, prog)
        assert res.returns == [[0, 0], [0, 1], [0, 2]]

class TestReduce:
    def test_scalar_sum(self):
        def prog(comm):
            return comm.reduce(comm.Get_rank() + 1, op="sum", root=0)
        res = run_spmd(4, prog)
        assert res.returns[0] == 10
        assert res.returns[1:] == [None, None, None]

    def test_array_sum(self):
        def prog(comm):
            return comm.allreduce(np.full(3, float(comm.Get_rank())))
        res = run_spmd(4, prog)
        assert np.array_equal(res.returns[2], np.full(3, 6.0))

    @pytest.mark.parametrize("op,expected", [
        ("max", 3), ("min", 0), ("prod", 0), ("sum", 6)])
    def test_named_ops(self, op, expected):
        def prog(comm):
            return comm.allreduce(comm.Get_rank(), op=op)
        res = run_spmd(4, prog)
        assert res.returns[0] == expected

    def test_unknown_op(self):
        def prog(comm):
            return comm.allreduce(1, op="median")
        with pytest.raises(Exception) as exc_info:
            run_spmd(2, prog)
        assert "median" in str(exc_info.value)

    @pytest.mark.parametrize("backend", [
        "threads",
        pytest.param("processes", marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="process backend requires the fork start method"))])
    def test_only_named_ops_reduce(self, backend):
        """Only the four named ops reduce; a callable is refused with
        the same error on either backend."""
        def prog(comm, call):
            return getattr(comm, call)(1, op=lambda a, b: a * b)
        for call in ("reduce", "allreduce"):
            with pytest.raises(RankFailedError) as exc_info:
                run_spmd(2, prog, call, backend=backend)
            assert all(isinstance(e, ValidationError)
                       for e in exc_info.value.failures.values()), call

    def test_reduce_result_is_private(self):
        def prog(comm):
            out = comm.allreduce(np.ones(2))
            out += comm.Get_rank()
            return float(out[0])
        res = run_spmd(3, prog)
        assert res.returns == [3.0, 4.0, 5.0]


class TestGather:
    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.Get_rank() ** 2, root=0)
        res = run_spmd(4, prog)
        assert res.returns[0] == [0, 1, 4, 9]
        assert res.returns[1] is None

class TestMismatch:
    def test_mismatched_collectives_abort(self):
        def prog(comm):
            if comm.Get_rank() == 0:
                comm.allreduce(1)
            else:
                comm.bcast(1, root=1)
        with pytest.raises((RankFailedError, MPIEmulatorError)):
            run_spmd(2, prog, timeout=5)

    def test_mismatched_roots_abort(self):
        def prog(comm):
            comm.bcast(1, root=comm.Get_rank())
        with pytest.raises((RankFailedError, MPIEmulatorError)):
            run_spmd(2, prog, timeout=5)

    def test_invalid_root(self):
        def prog(comm):
            comm.bcast(1, root=9)
        with pytest.raises((RankFailedError, ValidationError)):
            run_spmd(2, prog, timeout=5)
