"""Emulator robustness under injected failures."""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import DeadlockError, MPIEmulatorError, RankFailedError
from repro.mpi import run_spmd

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method")


class TestFailurePropagation:
    def test_failure_wakes_blocked_receivers(self):
        """A root crash must unblock peers waiting to receive its bcast,
        and the crash — not a deadlock — must be reported."""
        def prog(comm):
            if comm.Get_rank() == 0:
                raise RuntimeError("dies before sending")
            comm.bcast(None, root=0)
        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(3, prog, timeout=10)
        assert isinstance(exc_info.value.failures[0], RuntimeError)

    def test_failure_wakes_blocked_collective(self):
        def prog(comm):
            if comm.Get_rank() == 1:
                raise ValueError("skips the allreduce")
            comm.allreduce(1)
        with pytest.raises(RankFailedError):
            run_spmd(4, prog, timeout=10)

    @pytest.mark.parametrize("backend", [
        "threads", pytest.param("processes", marks=needs_fork)])
    def test_failure_inside_reduction(self, backend):
        """A reduction that raises (arrays of mismatched shapes) surfaces
        as a rank failure on either backend."""
        def prog(comm):
            comm.allreduce(np.ones(comm.Get_rank() + 2))
        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(3, prog, timeout=10, backend=backend)
        assert any(isinstance(e, ValueError)
                   for e in exc_info.value.failures.values())

    def test_late_failure_after_successful_collectives(self):
        def prog(comm):
            for _ in range(5):
                comm.allreduce(1)
            if comm.Get_rank() == 2:
                raise KeyError("late")
            comm.allreduce(1)
        with pytest.raises(RankFailedError):
            run_spmd(3, prog, timeout=10)

    def test_partial_completion_keeps_no_state(self):
        """After an aborted run a fresh run on a new world succeeds."""
        def failing(comm):
            if comm.Get_rank() == 0:
                raise RuntimeError("x")
            comm.allreduce(1)
        with pytest.raises(RankFailedError):
            run_spmd(2, failing, timeout=10)
        res = run_spmd(2, lambda comm: comm.allreduce(1))
        assert res.returns == [2, 2]


class TestDeadlockVariants:
    def test_mismatched_collective_counts(self):
        """Ranks waiting in a collective that a peer skipped deadlock."""
        def prog(comm):
            comm.allreduce(1)
            if comm.Get_rank() != 0:
                comm.allreduce(1)  # rank 0 never joins
        with pytest.raises(DeadlockError):
            run_spmd(3, prog, timeout=5)

    def test_slow_but_progressing_is_not_deadlock(self):
        """Heavy but productive traffic must not trip the detector."""
        def prog(comm):
            rank, size = comm.Get_rank(), comm.Get_size()
            total = 0
            for round_ in range(30):
                root = round_ % size
                total += comm.bcast(round_ if rank == root else None,
                                    root=root)
            return total
        res = run_spmd(4, prog, timeout=30)
        assert res.returns == [sum(range(30))] * 4


class TestTimeoutTeardown:
    def test_wedged_rank_does_not_stall_teardown(self):
        """A rank stuck in user code past the abort grace must not keep
        ``run_spmd`` from returning, and its late collective must raise
        against the invalidated world instead of joining it."""
        release = threading.Event()
        late: list = []

        def prog(comm):
            if comm.Get_rank() == 0:
                comm.allreduce(1)  # rank 1 never joins -> timeout
            else:
                release.wait(20.0)  # wedged well past timeout + grace
                try:
                    comm.allreduce(1)
                except MPIEmulatorError as exc:
                    late.append(exc)
                    raise

        t0 = time.monotonic()
        with pytest.raises(DeadlockError):
            run_spmd(2, prog, timeout=0.5, backend="threads")
        # Pre-fix the launcher joined the wedged thread for the full
        # 20 s sleep; with the abort grace it returns in ~1 s.
        assert time.monotonic() - t0 < 5.0
        release.set()
        deadline = time.monotonic() + 5.0
        while not late and time.monotonic() < deadline:
            time.sleep(0.02)
        assert late, "late allreduce did not raise against the dead world"
        assert isinstance(late[0], MPIEmulatorError)

    @needs_fork
    def test_wedged_process_rank_is_terminated(self):
        """Process backend: a straggler is terminated and reaped after
        the grace window rather than left running."""
        def prog(comm):
            if comm.Get_rank() == 0:
                comm.allreduce(1)  # rank 1 never joins -> timeout
            else:
                time.sleep(30.0)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError):
            run_spmd(2, prog, timeout=0.5, backend="processes")
        assert time.monotonic() - t0 < 15.0
        leftovers = [p for p in multiprocessing.active_children()
                     if p.name.startswith("repro-mpi-rank")]
        assert not leftovers


@needs_fork
class TestProcessRankDeath:
    def test_sigkilled_rank_mid_collective(self):
        """SIGKILL of one worker while peers sit in a collective must
        surface as RankFailedError within the timeout, not a hang."""
        def prog(comm):
            if comm.Get_rank() == 1:
                time.sleep(0.3)  # let the peers enter the allreduce
                os.kill(os.getpid(), signal.SIGKILL)
            return comm.allreduce(1)

        t0 = time.monotonic()
        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(3, prog, timeout=20, backend="processes")
        assert time.monotonic() - t0 < 20.0
        assert 1 in exc_info.value.failures
        assert "died" in str(exc_info.value.failures[1])

    def test_root_killed_before_large_bcast(self):
        """A root killed before it sends a large bcast fails the run."""
        def prog(comm):
            payload = np.ones(100_000)
            if comm.Get_rank() == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return comm.bcast(payload if comm.Get_rank() == 0 else None,
                              root=0)

        with pytest.raises(RankFailedError):
            run_spmd(2, prog, timeout=20, backend="processes")


class TestStress:
    def test_many_ranks_collective_storm(self):
        def prog(comm):
            acc = 0.0
            for _ in range(10):
                acc += comm.allreduce(float(comm.Get_rank()))
            return acc
        res = run_spmd(32, prog, timeout=60)
        expected = 10 * sum(range(32))
        assert all(r == expected for r in res.returns)

    def test_interleaved_collectives(self):
        def prog(comm):
            rank = comm.Get_rank()
            for i in range(5):
                buf = comm.bcast(np.full(4, float(i)) if rank == 0
                                 else None, root=0)
                assert buf[0] == float(i)
                comm.reduce(buf, root=i % comm.Get_size())
                comm.gather(rank, root=0)
            return comm.allreduce(1)
        res = run_spmd(6, prog, timeout=30)
        assert res.returns == [6] * 6

    def test_return_values_not_aliased(self):
        """Array results from collectives must be private per rank."""
        def prog(comm):
            out = comm.allreduce(np.ones(4))
            out *= (comm.Get_rank() + 1)
            return float(out.sum())
        res = run_spmd(4, prog)
        assert res.returns == [16.0, 32.0, 48.0, 64.0]
