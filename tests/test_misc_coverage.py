"""Coverage for smaller paths: subset discrepancy, tree collectives at
runtime, CLI error paths."""

import numpy as np
import pytest

from repro.core.alpha import estimate_alpha_from_subsets
from repro.mpi import run_spmd
from repro.platform import platform_by_name


class TestSubsetDiscrepancy:
    def test_discrepancy_between_curves(self, noisy_union_data):
        a, _ = noisy_union_data
        res = estimate_alpha_from_subsets(
            a, [30], 0.1, subset_fractions=(0.3, 0.6), threshold=0.0,
            seed=0)
        n1, n2 = res.subset_sizes[:2]
        d = res.discrepancy(n1, n2)
        assert d >= 0.0
        # Consistent with the stored curves.
        expected = abs(res.curves[n1][30] - res.curves[n2][30]) / \
            res.curves[n2][30]
        assert d == pytest.approx(expected)

    def test_early_stop_with_loose_threshold(self, noisy_union_data):
        a, _ = noisy_union_data
        res = estimate_alpha_from_subsets(
            a, [30], 0.1, subset_fractions=(0.3, 0.5, 0.8, 1.0),
            threshold=10.0, seed=0)
        assert res.converged
        assert len(res.subset_sizes) == 2  # stopped after first compare


class TestTreeCollectivesRuntime:
    def test_tree_slower_than_flat_at_scale(self):
        cluster = platform_by_name("8x8")

        def prog(comm):
            for _ in range(4):
                comm.allreduce(np.ones(64))
        flat = run_spmd(0, prog, cluster=cluster,
                        collective_algorithm="flat")
        tree = run_spmd(0, prog, cluster=cluster,
                        collective_algorithm="tree")
        assert tree.simulated_time > flat.simulated_time

    def test_results_identical_between_algorithms(self):
        def prog(comm):
            return comm.allreduce(comm.Get_rank())
        flat = run_spmd(0, prog, cluster=platform_by_name("1x4"),
                        collective_algorithm="flat")
        tree = run_spmd(0, prog, cluster=platform_by_name("1x4"),
                        collective_algorithm="tree")
        assert flat.returns == tree.returns

    def test_unknown_algorithm_fails(self):
        from repro.errors import RankFailedError
        with pytest.raises(RankFailedError):
            run_spmd(0, lambda comm: comm.allreduce(1),
                     cluster=platform_by_name("1x4"),
                     collective_algorithm="wormhole")


class TestCliErrorPaths:
    def test_pca_k_too_large(self, capsys):
        from repro.cli import main
        assert main(["pca", "--dataset", "salina", "--n", "64",
                     "--k", "500"]) == 1
        assert "error:" in capsys.readouterr().err
