"""Unit tests for repro.platform: machine, cluster, clock, cost, presets."""

import math

import pytest

from repro.errors import PlatformError
from repro.platform import (
    ClusterConfig,
    MachineSpec,
    VirtualClock,
    calibrate_from_spec,
    collective_energy,
    collective_time,
    paper_platforms,
    platform_by_name,
    xeon_x5660_like,
)


class TestMachineSpec:
    def test_rejects_nonpositive_rates(self, tiny_machine):
        with pytest.raises(PlatformError):
            MachineSpec(name="bad", flop_rate=0, intra_bw=1, inter_bw=1,
                        intra_latency=0, inter_latency=0, energy_per_flop=0,
                        energy_per_word_intra=0, energy_per_word_inter=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(PlatformError):
            MachineSpec(name="bad", flop_rate=1, intra_bw=1, inter_bw=1,
                        intra_latency=-1, inter_latency=0, energy_per_flop=0,
                        energy_per_word_intra=0, energy_per_word_inter=0)

    def test_compute_time_energy(self, tiny_machine):
        assert tiny_machine.compute_time(2e9) == pytest.approx(2.0)
        assert tiny_machine.compute_energy(100) == pytest.approx(1e-7)

    def test_link_selection(self, tiny_machine):
        assert tiny_machine.word_time(inter_node=False) == pytest.approx(1e-8)
        assert tiny_machine.word_time(inter_node=True) == pytest.approx(2e-8)
        assert tiny_machine.latency(inter_node=True) == 2e-6
        assert tiny_machine.word_energy(inter_node=True) == 4e-8


class TestClusterConfig:
    def test_size_and_naming(self, tiny_machine):
        c = ClusterConfig(machine=tiny_machine, nodes=3, cores_per_node=4)
        assert c.size == 12
        assert c.name == "3x4"
        assert "3 node(s)" in c.describe()

    def test_node_mapping(self, tiny_cluster):
        assert tiny_cluster.node_of(0) == 0
        assert tiny_cluster.node_of(1) == 0
        assert tiny_cluster.node_of(2) == 1
        assert not tiny_cluster.is_inter_node(0, 1)
        assert tiny_cluster.is_inter_node(1, 2)

    def test_rank_out_of_range(self, tiny_cluster):
        with pytest.raises(PlatformError):
            tiny_cluster.node_of(4)

    def test_invalid_shape(self, tiny_machine):
        with pytest.raises(PlatformError):
            ClusterConfig(machine=tiny_machine, nodes=0, cores_per_node=1)

    def test_worst_link(self, tiny_machine, tiny_cluster):
        assert tiny_cluster.worst_link_inter()
        single = ClusterConfig(machine=tiny_machine, nodes=1,
                               cores_per_node=8)
        assert not single.worst_link_inter()


class TestVirtualClock:
    def test_advance_and_sync(self):
        c = VirtualClock()
        c.advance(1.0, 2.0)
        assert c.time == 1.0 and c.energy == 2.0
        c.synchronize_to(0.5)          # no going back
        assert c.time == 1.0
        c.synchronize_to(3.0)
        assert c.time == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(PlatformError):
            VirtualClock().advance(-1.0)

    def test_charge_compute(self, tiny_machine):
        c = VirtualClock()
        c.charge_compute(1e9, tiny_machine)
        assert c.time == pytest.approx(1.0)
        assert c.flops == int(1e9)

    def test_snapshot(self):
        c = VirtualClock()
        c.advance(1.5, 2.5)
        c.flops += 7
        assert c.snapshot() == {"time": 1.5, "energy": 2.5, "flops": 7}


class TestCostFunctions:
    def test_two_rank_intra_vs_inter(self, tiny_cluster):
        intra = collective_time(tiny_cluster, 0, [0, 1], 100)
        inter = collective_time(tiny_cluster, 0, [0, 2], 100)
        assert intra == pytest.approx(1e-6 + 100 * 1e-8)
        assert inter == pytest.approx(2e-6 + 100 * 2e-8)
        assert collective_time(tiny_cluster, 1, [1], 100) == 0.0

    def test_two_rank_energy(self, tiny_cluster):
        assert collective_energy(tiny_cluster, 0, [0, 2], 10) \
            == pytest.approx(4e-7)
        assert collective_energy(tiny_cluster, 0, [0, 1], 10) \
            == pytest.approx(1e-7)

    def test_collective_flat_time(self, tiny_cluster):
        participants = list(range(4))
        t = collective_time(tiny_cluster, 0, participants, 50,
                            algorithm="flat")
        assert t == pytest.approx(2e-6 + 50 * 2e-8)

    def test_collective_tree_time(self, tiny_cluster):
        participants = list(range(4))
        t = collective_time(tiny_cluster, 0, participants, 50,
                            algorithm="tree")
        assert t == pytest.approx(math.ceil(math.log2(4)) *
                                  (2e-6 + 50 * 2e-8))

    def test_collective_single_participant_free(self, tiny_cluster):
        assert collective_time(tiny_cluster, 0, [0], 100) == 0.0

    def test_collective_energy_counts_links(self, tiny_cluster):
        participants = list(range(4))
        e = collective_energy(tiny_cluster, 0, participants, 10)
        # root=0: rank1 intra (1e-8), ranks 2,3 inter (4e-8)
        assert e == pytest.approx(10 * (1e-8 + 4e-8 + 4e-8))

    def test_unknown_algorithm(self, tiny_cluster):
        with pytest.raises(PlatformError):
            collective_time(tiny_cluster, 0, [0, 1], 10, algorithm="magic")

    def test_negative_words(self, tiny_cluster):
        with pytest.raises(PlatformError):
            collective_time(tiny_cluster, 0, [0, 1], -5)


class TestCalibration:
    def test_from_spec_uses_bottleneck(self, tiny_machine):
        single = ClusterConfig(machine=tiny_machine, nodes=1,
                               cores_per_node=4)
        multi = ClusterConfig(machine=tiny_machine, nodes=2,
                              cores_per_node=2)
        r_single = calibrate_from_spec(single)
        r_multi = calibrate_from_spec(multi)
        assert r_single.time == pytest.approx(1e9 * 1e-8)   # intra
        assert r_multi.time == pytest.approx(1e9 * 2e-8)    # inter
        assert r_multi.energy == pytest.approx(4e-8 / 1e-9)


class TestPresets:
    def test_four_paper_platforms(self):
        platforms = paper_platforms()
        assert [p.name for p in platforms] == ["1x1", "1x4", "2x8", "8x8"]
        assert [p.size for p in platforms] == [1, 4, 16, 64]

    def test_lookup_by_name(self):
        assert platform_by_name("2x8").size == 16
        with pytest.raises(KeyError):
            platform_by_name("3x3")

    def test_machine_is_sane(self):
        m = xeon_x5660_like()
        assert m.flop_rate > 1e9
        assert m.intra_bw > m.inter_bw
