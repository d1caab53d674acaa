"""Drift-aware online maintenance — the two ISSUE acceptance gates.

**Maintenance holds the band.**  A single-subspace stream rotates
smoothly from basis ``U0`` to ``U1`` (``U(τ) = orth((1−τ)·U0 + τ·U1)``)
over ``T`` waves appended to a ``ColumnStore``.  A dictionary fitted on
the τ=0 data is maintained by one :class:`~repro.online.OnlineMaintainer`
step per wave (fresh-biased minibatch, surrogate refresh, dead-atom
re-seeding); a frozen copy of the same dictionary encodes the same
waves untouched.  Gates:

* the maintained dictionary's relative error on every fresh wave stays
  inside the fixed band ``eps · 1.25`` (the drift monitor's own band);
* the frozen dictionary's error trajectory is monotone non-decreasing
  and ends well outside the band — drift really does accumulate.

**Sketched tuning is cheap and right.**  On the same store, the
sketched α(L) tuner must read ≤ 25% of the bytes the exact subset
estimator touches AND pick an L whose cost *on the exact tuner's own
table* is within 10% of the exact choice (same candidate grid, Eq. 2
time objective).

``REPRO_BENCH_SMOKE=1`` shrinks the stream for CI; the gates still
arm.  One record per configuration goes to ``BENCH_online.json`` at
the repo root in the BENCH_spmd.json schema, and tables land in
``benchmarks/results/online_*.txt``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import observability as obs
from repro.core import CostModel, exd_transform, tune_dictionary_size
from repro.data import union_of_subspaces
from repro.linalg.omp import batch_omp_matrix
from repro.online import (
    MaintenanceConfig,
    OnlineMaintainer,
    SketchConfig,
    tune_dictionary_size_sketched,
)
from repro.platform import platform_by_name
from repro.store import ColumnStore
from repro.utils import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

M, R, L = 64, 8, 48
EPS = 0.12
BAND = EPS * 1.25
WAVES = 5 if SMOKE else 8
WAVE_COLS = 192 if SMOKE else 256
INIT_COLS = 384 if SMOKE else 512

_records: list[dict] = []


def _basis(u0, u1, tau):
    u, _ = np.linalg.qr((1.0 - tau) * u0 + tau * u1)
    return u


def _wave(u, n, seed):
    rng = np.random.default_rng(seed)
    x = u @ rng.standard_normal((u.shape[1], n))
    x += 0.01 * rng.standard_normal((x.shape[0], n))
    return x / np.linalg.norm(x, axis=0, keepdims=True)


def _relative_error(atoms, x):
    c, _ = batch_omp_matrix(atoms, x, EPS)
    resid = x - atoms @ c.to_dense()
    return float(np.linalg.norm(resid) / np.linalg.norm(x)), c.nnz


def test_maintenance_holds_error_band(bench_seed, report, tmp_path):
    rng = np.random.default_rng(bench_seed)
    u0, _ = np.linalg.qr(rng.standard_normal((M, R)))
    u1, _ = np.linalg.qr(rng.standard_normal((M, R)))

    init = _wave(u0, INIT_COLS, bench_seed + 100)
    transform, _ = exd_transform(init, L, EPS, seed=bench_seed)
    frozen = transform.dictionary.atoms.copy()

    store = ColumnStore.from_matrix(tmp_path / "stream", init,
                                    chunk_width=128)
    config = MaintenanceConfig(batch=WAVE_COLS, fresh_bias=0.8,
                               refresh_every=1,
                               warmup_columns=INIT_COLS // 2,
                               dead_min_count=1, max_reseed=8)
    maintainer = OnlineMaintainer(store, transform, seed=bench_seed,
                                  config=config)

    frozen_err, maintained_err, rows = [], [], []
    nnz_on = nnz_off = 0
    wall_on = wall_off = 0.0
    drift_fires = 0
    try:
        for t in range(1, WAVES + 1):
            tau = t / WAVES
            fresh = _wave(_basis(u0, u1, tau), WAVE_COLS,
                          bench_seed + 200 + t)
            store.append_columns(fresh)

            t0 = time.perf_counter()
            step = maintainer.step()
            e_on, k_on = _relative_error(maintainer.updater.atoms, fresh)
            wall_on += time.perf_counter() - t0

            t0 = time.perf_counter()
            e_off, k_off = _relative_error(frozen, fresh)
            wall_off += time.perf_counter() - t0

            drift_fires += int(step["drift_fired"])
            nnz_on += k_on
            nnz_off += k_off
            maintained_err.append(e_on)
            frozen_err.append(e_off)
            rows.append([f"{tau:.2f}", f"{e_on:.4f}", f"{e_off:.4f}",
                         "fired" if step["drift_fired"] else "",
                         str(step["atoms_refreshed"]),
                         str(len(step["atoms_reseeded"]))])
    finally:
        maintainer.close()

    model = CostModel(platform_by_name("1x1"))
    n_total = WAVES * WAVE_COLS
    for workload, wall, nnz in (
            ("online_maintained", wall_on, nnz_on),
            ("online_frozen", wall_off, nnz_off)):
        virtual = model.time_seconds(M, L, nnz)
        _records.append({
            "workload": workload,
            "shape": [M, n_total, L],
            "backend": workload.split("_", 1)[1],
            "wall_s": wall,
            "virtual_s": virtual,
            "ratio": wall / virtual if virtual > 0 else float("inf"),
        })

    table = format_table(
        ["tau", "maintained err", "frozen err", "drift", "refreshed",
         "re-seeded"],
        rows, title=f"Rotating-subspace stream (M={M}, r={R}, L={L}, "
                    f"eps={EPS}, {WAVES} waves x {WAVE_COLS} cols, "
                    f"band={BAND:.3f})")
    report("online maintenance", table)

    # Gate 1a: maintenance holds every wave inside the fixed band.
    assert max(maintained_err) <= BAND, (
        f"maintained error {max(maintained_err):.4f} left the "
        f"{BAND:.3f} band")
    # Gate 1b: without maintenance the error degrades monotonically
    # (1% tolerance — the trajectory saturates once the stream has
    # fully rotated away) and ends outside the band.
    drops = np.diff(frozen_err)
    assert np.all(drops > -1e-2), (
        f"frozen trajectory not monotone: {frozen_err}")
    assert frozen_err[-1] > BAND, (
        f"frozen error {frozen_err[-1]:.4f} never left the band — "
        f"the workload is too easy to demonstrate drift")
    assert frozen_err[-1] > maintained_err[-1]


def test_sketched_tuning_bytes_and_cost(bench_seed, report, tmp_path):
    n = 2048 if SMOKE else 4096
    a, _ = union_of_subspaces(48, n, n_subspaces=4, dim=3, noise=0.01,
                              seed=bench_seed)
    store = ColumnStore.from_matrix(tmp_path / "tune", a,
                                    chunk_width=128)
    model = CostModel(platform_by_name("2x8"))
    candidates = [24, 36, 54, 80]

    with obs.observed():
        before = obs.REGISTRY.counter("store.bytes_read")
        t0 = time.perf_counter()
        exact = tune_dictionary_size(store, 0.25, model,
                                     candidates=candidates,
                                     seed=bench_seed)
        wall_exact = time.perf_counter() - t0
        exact_bytes = obs.REGISTRY.counter("store.bytes_read") - before

        t0 = time.perf_counter()
        sketched = tune_dictionary_size_sketched(
            store, 0.25, model, candidates=candidates, seed=bench_seed,
            sketch=SketchConfig(dim=24, columns=400))
        wall_sketch = time.perf_counter() - t0

    exact_cost = {int(l): cost for l, _, _, cost in exact.table}
    if sketched.best_size not in exact_cost:
        # the exact sweep skipped the pick as dominated: measure it
        # alone, on the same subset and seed
        exact_cost[sketched.best_size] = tune_dictionary_size(
            store, 0.25, model, candidates=[sketched.best_size],
            seed=bench_seed).cost_of(sketched.best_size)
    best_cost = exact.cost_of(exact.best_size)
    sketched_cost = exact_cost[sketched.best_size]

    for workload, wall, result, nbytes in (
            ("online_tune_exact", wall_exact, exact, exact_bytes),
            ("online_tune_sketched", wall_sketch, sketched,
             sketched.bytes_read)):
        cost = exact_cost[result.best_size]
        _records.append({
            "workload": workload,
            "shape": [48, n, result.best_size],
            "backend": workload.rsplit("_", 1)[1],
            "wall_s": wall,
            # flop-equivalent Eq. 2 cost of the pick, on the exact table
            "virtual_s": cost,
            "ratio": wall / cost if cost > 0 else float("inf"),
        })

    rows = [
        ["exact", str(exact.best_size), f"{best_cost:.4g}",
         f"{exact_bytes}", "1.000"],
        ["sketched", str(sketched.best_size), f"{sketched_cost:.4g}",
         f"{sketched.bytes_read}",
         f"{sketched.bytes_read / exact_bytes:.3f}"],
    ]
    table = format_table(
        ["estimator", "L*", "Eq. 2 cost (exact table)", "store bytes",
         "byte fraction"],
        rows, title=f"Sketched vs exact alpha(L) tuning "
                    f"(M=48, N={n}, k={sketched.sketch_dim}, "
                    f"{sketched.sketch_columns} sampled cols)")
    report("online sketched tuning", table)

    # Gate 2a: the sketch reads <= 25% of the exact estimator's bytes.
    assert exact_bytes > 0 and sketched.bytes_read > 0
    fraction = sketched.bytes_read / exact_bytes
    assert fraction <= 0.25, (
        f"sketch read {fraction:.1%} of the exact estimator's bytes")
    # Gate 2b: the sketched pick costs within 10% of the exact best,
    # measured on the exact tuner's own table.
    assert sketched_cost <= 1.10 * best_cost, (
        f"sketched pick L={sketched.best_size} costs "
        f"{sketched_cost / best_cost:.3f}x the exact best")


@pytest.fixture(scope="module", autouse=True)
def _write_records(report):
    yield
    if _records:
        (REPO_ROOT / "BENCH_online.json").write_text(
            json.dumps(_records, indent=2) + "\n")
        report("online json", f"wrote BENCH_online.json "
                              f"({len(_records)} records)")
