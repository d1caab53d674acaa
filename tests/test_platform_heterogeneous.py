"""Heterogeneous-cluster tests: per-node machines, bottleneck links."""

import numpy as np
import pytest

from repro.errors import PlatformError
from repro.mpi import run_spmd
from repro.platform import ClusterConfig, MachineSpec, calibrate_from_spec, collective_time


def _machine(name, flop_rate, bw_scale=1.0):
    return MachineSpec(
        name=name, flop_rate=flop_rate,
        intra_bw=1e8 * bw_scale, inter_bw=5e7 * bw_scale,
        intra_latency=1e-6, inter_latency=2e-6,
        energy_per_flop=1e-9, energy_per_word_intra=1e-8,
        energy_per_word_inter=4e-8)


@pytest.fixture()
def fast_slow_cluster():
    fast = _machine("fast", 1e10)
    slow = _machine("slow", 1e9, bw_scale=0.5)
    return ClusterConfig(machine=fast, nodes=2, cores_per_node=2,
                         node_machines=(fast, slow))


class TestConfig:
    def test_name_marks_heterogeneous(self, fast_slow_cluster):
        assert fast_slow_cluster.heterogeneous
        assert fast_slow_cluster.name == "2x2-het"

    def test_machine_of(self, fast_slow_cluster):
        assert fast_slow_cluster.machine_of(0).name == "fast"
        assert fast_slow_cluster.machine_of(1).name == "fast"
        assert fast_slow_cluster.machine_of(2).name == "slow"
        assert fast_slow_cluster.machine_of(3).name == "slow"

    def test_slowest_machine(self, fast_slow_cluster):
        assert fast_slow_cluster.slowest_machine().name == "slow"

    def test_wrong_count_rejected(self):
        m = _machine("m", 1e9)
        with pytest.raises(PlatformError):
            ClusterConfig(machine=m, nodes=3, cores_per_node=1,
                          node_machines=(m,))

    def test_non_machine_rejected(self):
        m = _machine("m", 1e9)
        with pytest.raises(PlatformError):
            ClusterConfig(machine=m, nodes=1, cores_per_node=1,
                          node_machines=("cpu",))

    def test_homogeneous_default(self):
        m = _machine("m", 1e9)
        c = ClusterConfig(machine=m, nodes=2, cores_per_node=1)
        assert not c.heterogeneous
        assert c.machine_of(1) is m
        assert c.slowest_machine() is m


class TestCosts:
    def test_link_bottlenecked_by_slow_endpoint(self, fast_slow_cluster):
        # fast<->fast intra link vs fast<->slow inter link.
        t_fast = collective_time(fast_slow_cluster, 0, [0, 1], 100)
        t_mixed = collective_time(fast_slow_cluster, 0, [0, 2], 100)
        # slow node: inter_bw 2.5e7 words/s -> 4e-8 s/word.
        assert t_mixed == pytest.approx(2e-6 + 100 * 4e-8)
        assert t_fast == pytest.approx(1e-6 + 100 * 1e-8)

    def test_calibration_uses_slowest(self, fast_slow_cluster):
        rbf = calibrate_from_spec(fast_slow_cluster)
        slow = fast_slow_cluster.slowest_machine()
        expected = slow.word_time(inter_node=True) * slow.flop_rate
        assert rbf.time == pytest.approx(expected)


class TestExecution:
    def test_slow_node_dominates_makespan(self, fast_slow_cluster):
        def prog(comm):
            comm.charge_flops(1_000_000)
        res = run_spmd(0, prog, cluster=fast_slow_cluster)
        # Fast ranks: 0.1 ms; slow ranks: 1 ms.
        assert res.clocks[0]["time"] == pytest.approx(1e6 / 1e10)
        assert res.clocks[2]["time"] == pytest.approx(1e6 / 1e9)
        assert res.simulated_time == pytest.approx(1e6 / 1e9)

    def test_collective_waits_for_slow_node(self, fast_slow_cluster):
        def prog(comm):
            comm.charge_flops(1_000_000)
            comm.allreduce(1.0)
        res = run_spmd(0, prog, cluster=fast_slow_cluster)
        # After the allreduce every clock is past the slow node's compute.
        assert min(clock["time"] for clock in res.clocks) >= 1e6 / 1e9

    def test_gram_update_runs_heterogeneous(self, fast_slow_cluster,
                                            union_data, rng):
        from repro.core import TransformedGramOperator, exd_transform, run_distributed_gram
        a, _ = union_data
        t, _ = exd_transform(a, 20, 0.1, seed=0)
        x = rng.standard_normal(t.n)
        y, res = run_distributed_gram(t, x, fast_slow_cluster)
        assert np.allclose(y, TransformedGramOperator(t)(x), atol=1e-7)
        assert res.simulated_time > 0
