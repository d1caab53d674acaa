"""Runtime-level behaviour: failures, clocks, traffic, sizing."""

import numpy as np
import pytest

from repro.errors import MPIEmulatorError, RankFailedError
from repro.mpi import run_spmd, words_of
from repro.mpi.datatypes import words_for_bytes
from repro.platform import platform_by_name


class TestRunSpmd:
    def test_returns_per_rank(self):
        res = run_spmd(4, lambda comm: comm.Get_rank() * 2)
        assert res.returns == [0, 2, 4, 6]

    def test_args_kwargs_forwarded(self):
        def prog(comm, a, b=0):
            return a + b + comm.Get_rank()
        res = run_spmd(2, prog, 10, b=5)
        assert res.returns == [15, 16]

    def test_single_rank_fast_path(self):
        res = run_spmd(1, lambda comm: comm.allreduce(7))
        assert res.returns == [7]

    def test_invalid_size(self):
        with pytest.raises(MPIEmulatorError):
            run_spmd(0, lambda comm: None)

    def test_cluster_size_mismatch(self):
        with pytest.raises(MPIEmulatorError):
            run_spmd(3, lambda comm: None,
                     cluster=platform_by_name("1x4"))

    def test_cluster_size_inferred(self):
        res = run_spmd(0, lambda comm: comm.Get_size(),
                       cluster=platform_by_name("1x4"))
        assert res.returns == [4] * 4

    def test_rank_failure_collected(self):
        def prog(comm):
            if comm.Get_rank() == 2:
                raise ValueError("boom")
            comm.allreduce(1)
        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(4, prog)
        assert 2 in exc_info.value.failures
        assert isinstance(exc_info.value.failures[2], ValueError)

    def test_multiple_failures_collected(self):
        def prog(comm):
            raise RuntimeError(f"r{comm.Get_rank()}")
        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(3, prog)
        assert len(exc_info.value.failures) >= 1


class TestClocks:
    def test_compute_charging(self):
        cluster = platform_by_name("1x4")

        def prog(comm):
            comm.charge_flops(1_000_000)
        res = run_spmd(0, prog, cluster=cluster)
        expected = 1_000_000 / cluster.machine.flop_rate
        assert res.simulated_time == pytest.approx(expected)
        assert res.total_flops == 4_000_000

    def test_negative_flops_rejected(self):
        def prog(comm):
            comm.charge_flops(-1)
        with pytest.raises(RankFailedError):
            run_spmd(2, prog)

    def test_flops_tallied_without_cluster(self):
        res = run_spmd(2, lambda comm: comm.charge_flops(50))
        assert res.total_flops == 100
        assert res.simulated_time == 0.0

    def test_collective_synchronises_clocks(self):
        cluster = platform_by_name("1x4")

        def prog(comm):
            # Unbalanced compute then a synchronising collective.
            comm.charge_flops(1000 * (comm.Get_rank() + 1))
            comm.allreduce(1.0)
        res = run_spmd(0, prog, cluster=cluster)
        times = [clock["time"] for clock in res.clocks]
        assert max(times) == pytest.approx(min(times))

    def test_makespan_is_max_clock(self):
        cluster = platform_by_name("1x4")

        def prog(comm):
            comm.charge_flops(10_000 if comm.Get_rank() == 3 else 10)
        res = run_spmd(0, prog, cluster=cluster)
        assert res.simulated_time == pytest.approx(
            10_000 / cluster.machine.flop_rate)


class TestTraffic:
    def test_reduce_payload_words(self):
        def prog(comm):
            comm.reduce(np.zeros(64), root=0)
        res = run_spmd(4, prog)
        tally = res.traffic.snapshot()["reduce"]
        assert tally.calls == 1
        assert tally.payload_words == 64
        assert tally.wire_words == 3 * 64

    def test_allreduce_counts_two_phases(self):
        def prog(comm):
            comm.allreduce(np.zeros(10))
        res = run_spmd(4, prog)
        tally = res.traffic.snapshot()["allreduce"]
        assert tally.payload_words == 20
        assert tally.wire_words == 2 * 3 * 10

    def test_bcast_wire_words(self):
        def prog(comm):
            comm.bcast(np.zeros(32) if comm.Get_rank() == 0 else None,
                       root=0)
        res = run_spmd(4, prog)
        tally = res.traffic.snapshot()["bcast"]
        assert tally.payload_words == 32
        assert tally.wire_words == 3 * 32


class TestWordsOf:
    def test_array_words(self):
        assert words_of(np.zeros(10)) == 10
        assert words_of(np.zeros(10, dtype=np.float32)) == 5

    def test_scalar_words(self):
        assert words_of(3.14) == 1

    def test_object_words_positive(self):
        assert words_of({"key": "value"}) > 0

    def test_words_for_bytes(self):
        assert words_for_bytes(0) == 0
        assert words_for_bytes(1) == 1
        assert words_for_bytes(8) == 1
        assert words_for_bytes(9) == 2
        with pytest.raises(ValueError):
            words_for_bytes(-1)
