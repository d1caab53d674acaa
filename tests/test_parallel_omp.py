"""Tests for the column-parallel Batch-OMP encode and its fork map.

The encode's contract is *bit-identical* output: for every worker
count, the merged CSC factors and the ``BatchOMPStats`` must equal the
serial path exactly (``data``, ``indices``, ``indptr``, and every stats
field).  These tests pin that contract on random Gaussian data (one
panel, and three panels so that workers really fork) and on
union-of-subspaces data, and cover the Gram cache, the
worker-count resolution, the ``fork_map`` contract (order, failures,
dead workers, cleanup), and the parallel dense solver used by the
baselines.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import observability as obs
from repro.core.alpha import measure_alpha
from repro.core.cost_model import CostModel
from repro.core.tuner import tune_dictionary_size
from repro.core.dictionary import sample_dictionary
from repro.core.exd import exd_transform
from repro.errors import DictionaryError, ValidationError
from repro.linalg import parallel_omp
from repro.linalg.omp import ENCODE_BLOCK_COLS, batch_omp_matrix
from repro.linalg.parallel_omp import (
    GRAM_CACHE,
    GramCache,
    _can_fork,
    fork_map,
    parallel_least_squares,
    resolve_workers,
)

needs_fork = pytest.mark.skipif(not _can_fork(),
                                reason="forking unavailable here")


def _gaussian(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((24, 16))
    d /= np.linalg.norm(d, axis=0, keepdims=True)
    coefs = np.zeros((16, n))
    for j in range(n):
        support = rng.choice(16, size=4, replace=False)
        coefs[support, j] = rng.standard_normal(4)
    a = d @ coefs + 0.01 * rng.standard_normal((24, n))
    return d, a


@pytest.fixture(scope="module")
def gaussian_problem():
    return _gaussian(60, 42)


#: Three encode panels (the last one partial): the smallest input on
#: which a column-parallel encode has more than one task to fork.
MULTI_PANEL_COLS = 2 * ENCODE_BLOCK_COLS + 1


@pytest.fixture(scope="module")
def multi_panel_problem():
    return _gaussian(MULTI_PANEL_COLS, 43)


@pytest.fixture(scope="module")
def union_problem(union_data):
    a, _model = union_data
    d = sample_dictionary(a, 12, seed=3).atoms
    return d, a


def _assert_identical(serial, candidate):
    c0, s0 = serial
    c1, s1 = candidate
    assert c1.shape == c0.shape
    np.testing.assert_array_equal(c1.indptr, c0.indptr)
    np.testing.assert_array_equal(c1.indices, c0.indices)
    # Bitwise, not approximate: the parallel path must run the exact
    # serial float-op sequence.
    np.testing.assert_array_equal(c1.data, c0.data)
    assert s1.columns == s0.columns
    assert s1.converged_columns == s0.converged_columns
    assert s1.total_iterations == s0.total_iterations
    assert s1.flops == s0.flops
    np.testing.assert_array_equal(s1.converged_mask, s0.converged_mask)


class TestSerialParallelEquality:
    @pytest.mark.parametrize("problem", ["gaussian_problem", "union_problem",
                                         "multi_panel_problem"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_csc_bit_identical(self, problem, workers, request):
        d, a = request.getfixturevalue(problem)
        eps = 0.1
        serial = batch_omp_matrix(d, a, eps)
        par = batch_omp_matrix(d, a, eps, workers=workers)
        _assert_identical(serial, par)

    @needs_fork
    def test_multi_panel_encode_forks(self, multi_panel_problem,
                                      monkeypatch):
        """One task per panel, mapped over forked workers: if this
        encode stopped forking, every equality test above would still
        pass, so count the forked maps directly."""
        d, a = multi_panel_problem
        forked = []
        real_fork_run = parallel_omp._fork_run

        def counting_fork_run(fn, payloads, shared, workers):
            forked.append((len(payloads), workers))
            return real_fork_run(fn, payloads, shared, workers)

        monkeypatch.setattr(parallel_omp, "_fork_run", counting_fork_run)
        serial = batch_omp_matrix(d, a, 0.1)
        assert forked == []
        with obs.observed():
            par = batch_omp_matrix(d, a, 0.1, workers=2)
            assert obs.REGISTRY.counter("pool.chunks") == 3
        assert forked == [(3, 2)]
        _assert_identical(serial, par)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_max_atoms_respected(self, multi_panel_problem, workers):
        d, a = multi_panel_problem
        serial = batch_omp_matrix(d, a, 0.0, max_atoms=2)
        par = batch_omp_matrix(d, a, 0.0, max_atoms=2, workers=workers)
        _assert_identical(serial, par)
        assert np.max(np.diff(par[0].indptr)) <= 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_strict_failure_matches_serial(self, workers):
        # One atom codes a 2-D signal only along its own direction:
        # columns off that line fail.  Failures sit in panels 1 and 2
        # only, so the parallel path must report the serial message (the
        # smallest failing column) although two tasks fail.
        d = np.array([[1.0], [0.0]])
        a = np.tile([[1.0], [0.0]], (1, MULTI_PANEL_COLS))
        a[:, [ENCODE_BLOCK_COLS + 5, 2 * ENCODE_BLOCK_COLS]] = \
            [[2.0, 0.5], [-1.0, 3.0]]
        with pytest.raises(DictionaryError) as serial_exc:
            batch_omp_matrix(d, a, eps=0.01, strict=True)
        with pytest.raises(DictionaryError) as par_exc:
            batch_omp_matrix(d, a, eps=0.01, strict=True, workers=workers)
        assert str(par_exc.value) == str(serial_exc.value)
        assert "target 2.236e-02" in str(serial_exc.value)  # column 261

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            batch_omp_matrix(np.ones((3, 2)), np.ones((4, 5)), 0.1,
                             workers=2)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_empty_matrix(self, gaussian_problem, workers):
        d, _ = gaussian_problem
        a = np.empty((24, 0))
        c, stats = batch_omp_matrix(d, a, 0.1, workers=workers)
        assert c.shape == (16, 0) and c.nnz == 0
        assert stats.columns == 0


class TestResolveWorkers:
    def test_none_zero_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_positive_is_literal(self):
        assert resolve_workers(7) == 7

    def test_negative_means_all_cores(self):
        assert resolve_workers(-1) >= 1


class TestGramCache:
    def test_hit_on_same_array(self):
        cache = GramCache()
        d = np.random.default_rng(0).standard_normal((10, 6))
        g1 = cache.get(d)
        g2 = cache.get(d)
        assert g1 is g2
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_allclose(g1, d.T @ d)

    def test_distinct_arrays_distinct_entries(self):
        cache = GramCache()
        d1 = np.eye(4)
        d2 = np.eye(4) * 2.0
        cache.get(d1)
        cache.get(d2)
        assert len(cache) == 2 and cache.misses == 2

    def test_weakref_eviction(self):
        cache = GramCache()
        d = np.eye(5)
        cache.get(d)
        assert len(cache) == 1
        del d
        import gc
        gc.collect()
        assert len(cache) == 0

    def test_in_place_mutation_invalidates(self):
        """Regression: K-SVD rewrites atoms of the same array object
        between sweeps; the cache must recompute, not serve the stale
        Gram of the pre-mutation contents."""
        cache = GramCache()
        d = np.eye(4)
        g1 = cache.get(d)
        np.testing.assert_allclose(g1, np.eye(4))
        d[0, 0] = 3.0
        g2 = cache.get(d)
        np.testing.assert_allclose(g2, d.T @ d)
        assert cache.misses == 2
        # And the fresh entry is served on the next unchanged lookup.
        assert cache.get(d) is g2

    def test_lru_bound(self):
        cache = GramCache(max_entries=2)
        keep = [np.eye(3) * i for i in range(1, 5)]
        for d in keep:
            cache.get(d)
        assert len(cache) == 2

    def test_oversized_not_retained(self):
        cache = GramCache(max_bytes=8)   # one float64
        d = np.eye(4)
        g = cache.get(d)
        np.testing.assert_allclose(g, np.eye(4))
        assert len(cache) == 0

    def test_process_cache_used_by_matrix_encode(self, gaussian_problem):
        d, a = gaussian_problem
        GRAM_CACHE.clear()
        batch_omp_matrix(d, a, 0.1)
        misses = GRAM_CACHE.misses
        batch_omp_matrix(d, a, 0.1)
        assert GRAM_CACHE.misses == misses
        assert GRAM_CACHE.hits >= 1


def _backend_probe(shared, payload):
    """Report the kernel a task would resolve, then poison the env.

    With backend pinning every task (in the caller's share and in every
    worker) still resolves the backend the parent chose at ``fork_map``
    entry; without it the second task re-resolves the poisoned env and
    raises.
    """
    import os

    from repro.linalg.kernels import resolve_backend

    name = resolve_backend(None).name
    os.environ["REPRO_OMP_BACKEND"] = "no-such-kernel"
    return name


class TestForkMapBackendPinning:
    def test_fallback_path_ignores_env_mutation(self, monkeypatch):
        import os
        monkeypatch.delenv("REPRO_OMP_BACKEND", raising=False)
        try:
            names = fork_map(_backend_probe, range(4), None, workers=1)
        finally:
            os.environ.pop("REPRO_OMP_BACKEND", None)
        assert names == ["numpy"] * 4

    def test_fork_pool_path_ignores_env_mutation(self, monkeypatch):
        import os
        if not _can_fork():
            pytest.skip("fork pool unavailable in this process")
        monkeypatch.delenv("REPRO_OMP_BACKEND", raising=False)
        try:
            names = fork_map(_backend_probe, range(6), None, workers=2)
        finally:
            os.environ.pop("REPRO_OMP_BACKEND", None)
        assert names == ["numpy"] * 6


def _tag(shared, payload):
    return payload, os.getpid()


def _fail_on(failing, payload):
    """Raise ``failing[payload]`` for the payloads listed there."""
    if payload in failing:
        raise failing[payload](f"payload {payload}")
    return payload


class _WontUnpickle(Exception):
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _die_in_worker(how, payload):
    """End the worker process that runs payload 1 without an answer."""
    if payload == 1 and multiprocessing.current_process().daemon:
        if how == "exit":
            os._exit(7)
        if how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return lambda: None  # its share's results cannot be pickled
    return payload


def _interrupt_parent(parent_pid, payload):
    """The caller's share is interrupted; the workers would run long."""
    if os.getpid() == parent_pid:
        raise KeyboardInterrupt
    time.sleep(60)
    return payload


#: Run in a fresh interpreter: a fork_map whose worker task raises.  The
#: exception records, whenever it is pickled, whether the pickling
#: process had loaded the MPI package's process backend.
_WORKER_FAILURE_SCRIPT = textwrap.dedent("""
    import sys

    from repro.linalg.parallel_omp import fork_map

    class Probe(Exception):
        def __reduce__(self):
            return Probe, ("repro.mpi.process_world" in sys.modules,)

    def task(_shared, payload):
        if payload == 1:  # runs in the forked worker
            raise Probe(None)
        return payload

    assert "repro.mpi.process_world" not in sys.modules
    try:
        fork_map(task, range(4), None, 2)
    except Probe as exc:
        print(exc.args[0])
""")


@needs_fork
class TestForkMapContract:
    def test_uneven_shares_come_back_in_payload_order(self):
        out = fork_map(_tag, range(7), None, workers=3)
        assert [p for p, _ in out] == list(range(7))
        pids = [pid for _, pid in out]
        # payload i runs in share i % 3; share 0 is the caller's own
        assert {pids[0], pids[3], pids[6]} == {os.getpid()}
        assert pids[1] == pids[4] != pids[2] == pids[5]
        assert os.getpid() not in (pids[1], pids[2])

    def test_unpicklable_fn_and_shared_are_inherited(self):
        lock = threading.Lock()  # cannot be pickled
        out = fork_map(lambda shared, p: (shared is lock, p * p), range(5),
                       lock, workers=2)
        assert out == [(True, p * p) for p in range(5)]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("failing, expected", [
        # shares at 3 workers: caller [0, 3, 6], workers [1, 4], [2, 5]
        ({6: TypeError, 4: KeyError, 5: ValueError}, (KeyError, 4)),
        ({3: TypeError, 5: ValueError}, (TypeError, 3)),
        ({5: ValueError, 2: IndexError, 6: TypeError}, (IndexError, 2)),
    ])
    def test_lowest_failing_payload_is_reraised(self, failing, expected,
                                                workers):
        """Every worker count raises what the serial loop raises."""
        exc_type, index = expected
        with pytest.raises(exc_type, match=f"payload {index}"):
            fork_map(_fail_on, range(7), failing, workers=workers)
        assert multiprocessing.active_children() == []

    def test_failing_worker_does_not_import_the_mpi_package(self):
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER_FAILURE_SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "False"

    def test_unpicklable_worker_exception_becomes_runtime_error(self):
        with pytest.raises(RuntimeError, match="_WontUnpickle"):
            fork_map(_fail_on, range(4), {1: lambda m: _WontUnpickle(m, 0)},
                     workers=2)

    @pytest.mark.parametrize("how, code", [("exit", 7), ("kill", -9),
                                           ("unpicklable", 1)])
    def test_dead_worker_raises_promptly_and_is_reaped(self, how, code):
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=f"exited with code {code}"):
            fork_map(_die_in_worker, range(6), how, workers=3)
        assert time.monotonic() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_interrupted_caller_kills_and_reaps_workers(self):
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fork_map(_interrupt_parent, range(4), os.getpid(), workers=2)
        assert time.monotonic() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_leaves_no_thread_or_child_behind(self):
        before = threading.active_count()
        assert fork_map(_fail_on, range(8), {}, workers=2) == list(range(8))
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    def test_tuner_table_is_identical_across_workers(self, noisy_union_data,
                                                     small_cluster):
        a, _ = noisy_union_data
        model = CostModel(small_cluster)
        serial = tune_dictionary_size(a, 0.1, model, seed=4, workers=1)
        par = tune_dictionary_size(a, 0.1, model, seed=4, workers=2)
        assert len(serial.table) >= 2
        assert par.table == serial.table
        assert par.subset_columns == serial.subset_columns
        assert par.best_size == serial.best_size


class TestParallelLeastSquares:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_serial(self, gaussian_problem, workers):
        d, a = gaussian_problem
        serial = parallel_least_squares(d, a)
        par = parallel_least_squares(d, a, workers=workers, chunk_size=9)
        np.testing.assert_allclose(par, serial, rtol=1e-12, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            parallel_least_squares(np.ones((3, 2)), np.ones((4, 5)),
                                   workers=2)


class TestWorkersPlumbing:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_exd_transform_identical(self, union_data, workers):
        a, _ = union_data
        t0, s0 = exd_transform(a, 10, 0.2, seed=0)
        t1, s1 = exd_transform(a, 10, 0.2, seed=0, workers=workers)
        np.testing.assert_array_equal(t1.coefficients.data,
                                      t0.coefficients.data)
        np.testing.assert_array_equal(t1.coefficients.indices,
                                      t0.coefficients.indices)
        np.testing.assert_array_equal(t1.coefficients.indptr,
                                      t0.coefficients.indptr)
        assert s1.omp_iterations == s0.omp_iterations

    def test_measure_alpha_identical(self, union_data):
        a, _ = union_data
        e0 = measure_alpha(a, 10, 0.2, trials=3, seed=5)
        e1 = measure_alpha(a, 10, 0.2, trials=3, seed=5, workers=2)
        assert e1.values == e0.values
        assert e1.errors == e0.errors
        assert e1.feasible == e0.feasible
