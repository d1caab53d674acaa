"""Parallel Batch-OMP encode — worker-count scaling on one host.

The ExD encode is embarrassingly parallel over columns (Alg. 1 step 3);
``batch_omp_matrix(..., workers=w)`` maps one task per fixed-width
column panel over forked workers (each computing its own ``DᵀA``
panels against the shared ``DᵀD``) and merges the panels in column
order, so the speedup comes without any change in output bits.
This bench measures wall time vs. worker count at the issue's reference
shape (M=256, N=4096, L=512) and verifies the bit-identity claim on the
timed runs themselves.

On a single-core host (CI containers included) the worker pool cannot
beat serial — the table then simply records the overhead; the honest
numbers are the point.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import union_of_subspaces
from repro.linalg import batch_omp_matrix
from repro.utils import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent
M, N, L = 256, 4096, 512
EPS = 0.05
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def problem(bench_seed):
    a, _ = union_of_subspaces(M, N, n_subspaces=8, dim=6, noise=0.02,
                              seed=bench_seed)
    a = a / np.linalg.norm(a, axis=0, keepdims=True)
    rng = np.random.default_rng(bench_seed)
    d = a[:, np.sort(rng.choice(N, size=L, replace=False))]
    return a, d


def test_serial_encode_benchmark(benchmark, problem):
    a, d = problem
    _c, stats = benchmark.pedantic(batch_omp_matrix, args=(d, a, EPS),
                                   rounds=1, iterations=1)
    assert stats.columns == N


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_encode_benchmark(benchmark, problem, workers):
    a, d = problem
    _c, stats = benchmark.pedantic(
        batch_omp_matrix, args=(d, a, EPS),
        kwargs={"workers": workers}, rounds=1, iterations=1)
    assert stats.columns == N


def test_worker_scaling_report(benchmark, report, problem):
    a, d = problem

    def sweep():
        times = {}
        outputs = {}
        t0 = time.perf_counter()
        c0, s0 = batch_omp_matrix(d, a, EPS)
        times["serial"] = time.perf_counter() - t0
        for w in WORKER_COUNTS:
            t0 = time.perf_counter()
            c, s = batch_omp_matrix(d, a, EPS, workers=w)
            times[w] = time.perf_counter() - t0
            outputs[w] = (c, s)
        return (c0, s0), outputs, times

    (c0, s0), outputs, times = benchmark.pedantic(sweep, rounds=1,
                                                  iterations=1)
    # The engine's contract, checked on the timed runs themselves.
    for c, s in outputs.values():
        np.testing.assert_array_equal(c.data, c0.data)
        np.testing.assert_array_equal(c.indices, c0.indices)
        np.testing.assert_array_equal(c.indptr, c0.indptr)
        assert s.total_iterations == s0.total_iterations

    t_serial = times["serial"]
    rows = [["serial loop", "-", f"{t_serial * 1e3:.0f}", "1.00x"]]
    for w in WORKER_COUNTS:
        rows.append(["column-parallel", w, f"{times[w] * 1e3:.0f}",
                     f"{t_serial / max(times[w], 1e-9):.2f}x"])

    # Machine-readable record (same schema as BENCH_spmd.json; this
    # workload has no virtual clock, so virtual_s is the serial wall
    # time and ratio the speedup against it).
    records = [{"workload": "parallel_omp_encode", "shape": [M, N, L],
                "backend": "serial", "wall_s": t_serial,
                "virtual_s": t_serial, "ratio": 1.0}]
    for w in WORKER_COUNTS:
        records.append({"workload": "parallel_omp_encode",
                        "shape": [M, N, L], "backend": f"workers={w}",
                        "wall_s": times[w], "virtual_s": t_serial,
                        "ratio": t_serial / max(times[w], 1e-9)})
    (REPO_ROOT / "BENCH_parallel_omp.json").write_text(
        json.dumps(records, indent=2) + "\n")
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    table = format_table(
        ["variant", "workers", "wall time (ms)", "speedup"],
        rows, title=f"Parallel Batch-OMP encode (M={M}, N={N}, L={L}, "
                    f"eps={EPS}, host cores={cores})")
    note = ("\noutput verified bit-identical to serial for every worker "
            "count")
    if cores < max(WORKER_COUNTS):
        note += (f"\nhost exposes only {cores} core(s): speedups above "
                 f"{cores}x workers measure pool overhead, not scaling")
    report("parallel_omp_scaling", table + note)

