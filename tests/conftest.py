"""Shared fixtures: small deterministic datasets and platforms, and the
Hypothesis profile tier-1 runs with."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data.subspaces import union_of_subspaces
from repro.platform import ClusterConfig, MachineSpec, platform_by_name

# Tier-1 draws the same Hypothesis examples on every run, and keeps no
# example database that would replay an earlier run's failure.  Pass
# --hypothesis-profile=default to explore new random examples instead.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def union_data():
    """Small union-of-subspaces matrix (M=24, N=160, 3×rank-2)."""
    a, model = union_of_subspaces(24, 160, n_subspaces=3, dim=2,
                                  noise=0.0, seed=7)
    return a, model


@pytest.fixture(scope="session")
def noisy_union_data():
    """Union-of-subspaces with 1% noise (realistic ε targets)."""
    a, model = union_of_subspaces(30, 200, n_subspaces=4, dim=3,
                                  noise=0.01, seed=11)
    return a, model


@pytest.fixture(scope="session")
def small_cluster():
    """A 1×4 platform for fast distributed tests."""
    return platform_by_name("1x4")


@pytest.fixture(scope="session")
def two_node_cluster():
    """A 2-node platform exercising inter-node links."""
    return platform_by_name("2x8")


@pytest.fixture()
def tiny_machine():
    """A machine with round numbers for exact cost assertions."""
    return MachineSpec(
        name="tiny",
        flop_rate=1e9,
        intra_bw=1e8,          # words/s -> 10 ns/word
        inter_bw=5e7,          # 20 ns/word
        intra_latency=1e-6,
        inter_latency=2e-6,
        energy_per_flop=1e-9,
        energy_per_word_intra=1e-8,
        energy_per_word_inter=4e-8,
    )


@pytest.fixture()
def tiny_cluster(tiny_machine):
    return ClusterConfig(machine=tiny_machine, nodes=2, cores_per_node=2)
