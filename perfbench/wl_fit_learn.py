"""fit_learn_spmd: the paper's full pipeline on this host's platform.

``ExtDict(eps=0.1, cluster=1 node x 2 cores of the Xeon preset,
workers=2, distributed_preprocess=True).fit(A)`` on the Salinas
surrogate (M=203, N=4096): fork-pool tuner trials, then Algorithm 1 on
SPMD ranks.  Then the execution phase on the fit: a top-10 Power method
and fixed-length distributed LASSO solves, i.e. Algorithm 2 Gram updates.
The MPI backend is left at ``auto``.

Each run cycles over three datasets drawn from the seed, so its medians
are over inputs, not over one tuned L.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from common import (
    latency_summary,
    median,
    modeled_seconds,
    repeated_setup,
    teardown_checks,
    transforms_identical,
)
from repro.apps.pca import eigenvalue_error, exact_gram_eigenvalues
from repro.core import ExtDict, exd_transform
from repro.core.gram import LocalGramWorker
from repro.data import salina_like
from repro.platform.cluster import ClusterConfig
from repro.platform.presets import xeon_x5660_like
from repro.solvers import distributed_lasso, power_method_transformed
from repro.utils.rng import derive_seed

#: N is half the Salinas surrogate's 8192 so a 35 s run holds ~6 short
#: cycles: a burst on the host then lands in one cycle of several.
N, EPS, K = 4096, 0.1, 10
DATASETS = 3
#: The Gram-update latency comes from fixed-length LASSO solves (no
#: early exit), so every sample does the same work.
LASSO_ITERS, LASSO_LAM, LASSO_SOLVES = 100, 0.05, 2
#: Fig. 12's normalised cumulative eigenvalue error the fit must meet.
EIG_ERR_MAX = 0.05
SETUP_REPS = 3


@dataclass
class _Dataset:
    a: np.ndarray
    exact: np.ndarray
    y: np.ndarray


def run(ctx) -> dict:
    cluster = ClusterConfig(machine=xeon_x5660_like(), nodes=1,
                            cores_per_node=2)
    # what `auto` must pick: processes wherever two cores are visible
    expected_backend = ("processes" if len(os.sched_getaffinity(0)) >= 2
                        else "threads")

    def setup(previous=None):
        datasets = []
        for j in range(DATASETS):
            a, _ = salina_like(n=N + 1, seed=derive_seed(ctx.seed, 1, j))
            y = a[:, -1] / np.linalg.norm(a[:, -1])
            a = np.ascontiguousarray(a[:, :N])
            datasets.append(_Dataset(a, exact_gram_eigenvalues(a, K), y))
        # warm-up pipeline on a slice: first fork pool, first SPMD run
        warm = ExtDict(eps=EPS, cluster=cluster, workers=2,
                       distributed_preprocess=True, seed=0).fit(
            datasets[0].a[:, :1024])
        power_method_transformed(warm.transform_, cluster, 2, seed=0)
        return datasets

    datasets, setup_s = repeated_setup(setup, SETUP_REPS)

    fit_s, solve_s, per_update_ms, enc_ratio = [], [], [], []
    spmd_wall, spmd_modeled, spmd_ratio = [], [], []
    sizes, backends, pm_iters, lasso_iters, eig_errs = [], set(), [], [], []
    references = {}
    cycles: list[float] = []
    start = cycle_start = time.perf_counter()
    i = 0
    while True:
        # a cycle takes ~5 s: start one only if at least half of it fits
        # in the time left, so a run overshoots by half a cycle at most
        now = time.perf_counter()
        if i:
            cycles.append(now - cycle_start)
            if now - start + median(cycles) / 2 > ctx.seconds:
                break
        cycle_start = now
        j = i % DATASETS
        ds = datasets[j]
        traced = ctx.alternate(i)
        # one fit seed per dataset: a repeated fit is the same
        # computation, so its serial reference is computed once
        fit_seed = derive_seed(ctx.seed, 2, j)
        i += 1
        ext = ExtDict(eps=EPS, cluster=cluster, workers=2,
                      distributed_preprocess=True, seed=fit_seed)
        with ctx.measure(traced, overhead=True) as m:
            fitted = ctx.ops.call(ext.fit, ds.a)
        if fitted is None:
            continue
        fit_wall = m.seconds
        transform, report = ext.transform_, ext.report_
        m_rows, l, nnz = transform.m, transform.l, transform.nnz
        d, c = transform.dictionary.atoms, transform.coefficients

        with ctx.measure(traced):
            pm = ctx.ops.call(power_method_transformed, transform, cluster,
                              K, seed=derive_seed(ctx.seed, 3, i))
        solves = []
        for _ in range(LASSO_SOLVES):
            with ctx.measure(traced) as m:
                out = ctx.ops.call(distributed_lasso, cluster,
                                   lambda comm: LocalGramWorker(comm, d, c),
                                   ds.y, LASSO_LAM, max_iter=LASSO_ITERS,
                                   tol=0.0)
            if out is not None:
                solves.append((out[0], out[1], m.seconds))
        if pm is None or len(solves) < LASSO_SOLVES:
            continue

        # gates: SPMD encode == serial encode, spectrum, finite solves,
        # and the backend auto picked.  The fit encodes in child
        # processes, so this reference is where a traced run sees the
        # encode layers at the tuned L.
        if (j, l) not in references:
            with ctx.encode_layers(traced):
                references[j, l], _ = exd_transform(ds.a, l, EPS,
                                                    seed=fit_seed)
        identical = transforms_identical(references[j, l], transform)
        err = eigenvalue_error(pm.eigenvalues, ds.exact) \
            if len(pm.eigenvalues) == K else 1.0
        runs = [pm.spmd] + [spmd for _x, spmd, _s in solves]
        backend = {r.backend for r in runs}
        if not ctx.ops.gate(
                identical and err <= EIG_ERR_MAX
                and all(np.all(np.isfinite(x.x)) for x, _r, _s in solves)
                and backend == {expected_backend},
                f"fit {i}: identical={identical} eig_err={err:.4g} "
                f"backend={backend}"):
            continue
        fit_s.append(fit_wall)
        for lasso, spmd, seconds in solves:
            solve_s.append(seconds)
            per_update_ms.append(seconds * 1e3 / lasso.iterations)
            lasso_iters.append(int(lasso.iterations))
        updates = int(sum(pm.iterations)) + sum(
            int(x.iterations) for x, _r, _s in solves)
        spmd_wall.append(sum(r.wall_time for r in runs))
        spmd_modeled.append(modeled_seconds(cluster, m_rows, l, nnz,
                                            updates=updates))
        spmd_ratio.append(spmd_wall[-1] / spmd_modeled[-1])
        enc_ratio.append(report.transform_seconds / modeled_seconds(
            cluster, m_rows, l, nnz))
        sizes.append(l)
        backends |= backend
        pm_iters.append(int(sum(pm.iterations)))
        eig_errs.append(err)

    leaks = teardown_checks(ctx.ops, ctx.shm_before, ctx.dirs)
    if not fit_s:
        raise RuntimeError("no fit passed its gate")
    fits = latency_summary([s * 1e3 for s in fit_s])
    lat = latency_summary(per_update_ms)
    return {
        # The fit is the end-to-end op, its time summed across the run so
        # a fit in a burst moves it by its share.  The learn phase's Gram
        # updates are IPC between rank processes: whole runs on a
        # contended host read 2.3x slower, a run-to-run spread of 0.79 of
        # the median, so they are reported per layer and in the record.
        "e2e": {"setup_s": setup_s, "cols_per_s": N * len(fit_s) / sum(fit_s),
                "op_ms": 1e3 * sum(fit_s) / len(fit_s),
                "tail_ms": fits["tail_ms"]},
        "layer": {
            "encode.wall_over_modeled": median(enc_ratio),
            "spmd.wall_over_modeled": median(spmd_ratio),
            "pm.iterations": sum(pm_iters),
            "lasso.iterations": sum(lasso_iters),
            "pm.eig_rel_err": median(eig_errs),
        },
        "details": {"fit_s": fit_s, "fit_ms": fits, "ms_per_update": lat,
                    "learn.updates_per_s": sum(lasso_iters) / sum(solve_s),
                    "tuned_L": sizes, "mpi_backend": sorted(backends),
                    "spmd.wall_s": spmd_wall, "spmd.modeled_s": spmd_modeled,
                    "spmd.wall_over_modeled": spmd_ratio,
                    "encode.wall_over_modeled": enc_ratio,
                    "eig_err": eig_errs, "leaks": leaks},
    }

