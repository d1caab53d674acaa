"""Smoke test: the tuner picks the same L at one and two workers.

Run as ``PYTHONPATH=src python tools/tune_smoke.py [--seeds 11 12 13]``
(seed 11 takes a few seconds on two cores).  For each seed it builds
the three fit datasets of perfbench's ``fit_learn_spmd`` workload
(Salinas surrogate, M=203, N=4096) and tunes each one as that
workload's fit does: Eq. 2 on one node of two Xeon-X5660-like cores,
ε=0.1, the fit's seed.  Each dataset is tuned at ``workers`` 1 and 2,
and one JSON line reports L*, every table row as ``[L, α, predicted
nnz, cost]`` and ``subset_columns``.  The lines are deterministic, so
diffing them between two commits compares their picks and whole
tables.  Exits 1 if the two worker counts disagree.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core import CostModel, tune_dictionary_size
from repro.data import salina_like
from repro.platform.cluster import ClusterConfig
from repro.platform.presets import xeon_x5660_like
from repro.utils.rng import derive_seed

#: the fit_learn_spmd workload's shape, tolerance and dataset count
N, EPS, DATASETS = 4096, 0.1, 3


def datasets(seed: int):
    """``(j, A, fit_seed)`` for each fit dataset of a workload seed."""
    for j in range(DATASETS):
        a, _ = salina_like(n=N + 1, seed=derive_seed(seed, 1, j))
        yield j, np.ascontiguousarray(a[:, :N]), derive_seed(seed, 2, j)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11],
                        help="fit_learn_spmd workload seeds")
    args = parser.parse_args(argv)
    model = CostModel(ClusterConfig(machine=xeon_x5660_like(), nodes=1,
                                    cores_per_node=2))
    agree = True
    for seed in args.seeds:
        for j, a, fit_seed in datasets(seed):
            serial, par = (tune_dictionary_size(a, EPS, model,
                                                seed=fit_seed,
                                                workers=workers)
                           for workers in (1, 2))
            same = (serial.best_size, serial.table, serial.subset_columns) \
                == (par.best_size, par.table, par.subset_columns)
            agree &= same
            print(json.dumps({
                "seed": seed, "dataset": j, "best_size": serial.best_size,
                "rows": [list(row) for row in serial.table],
                "subset_columns": serial.subset_columns,
                "workers_agree": same}), flush=True)
    if not agree:
        print("tune smoke FAILED: workers=1 and workers=2 disagree",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
