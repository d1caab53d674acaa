"""Shared pieces of the benchmark: statistics, op accounting, the
environment fingerprint, leak checks and run-local paths.

Everything here is plain stdlib + numpy so the self-tests can import it
without the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

#: Samples a tail percentile must leave beyond it (choosing-metrics rule).
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it, never below the median: ``max(50, 100·(1 − 10/n))``."""
    if n < 1:
        raise ValueError("tail of no samples")
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / n))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the sample itself, never interpolated)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def latency_summary(values_ms) -> dict:
    """Median, tail (by the ≥10-beyond rule) and the sample count."""
    values_ms = list(values_ms)
    q = tail_percentile(len(values_ms))
    p50 = median(values_ms)
    # at q = 50 the nearest-rank sample can sit below the interpolated
    # median of an even count; the tail is never below the median
    return {"p50_ms": p50, "tail_ms": max(percentile(values_ms, q), p50),
            "tail_percentile": q, "samples": len(values_ms)}


def windowed_summary(values_ms, windows: int) -> dict:
    """Median over ``windows`` consecutive slices of each slice's median
    and tail: one burst moves one window, not the run's figure."""
    values_ms = list(values_ms)
    size = len(values_ms) // windows
    if size < 1:
        return latency_summary(values_ms)
    parts = [latency_summary(values_ms[k * size:(k + 1) * size])
             for k in range(windows)]
    return {"p50_ms": median(p["p50_ms"] for p in parts),
            "tail_ms": median(p["tail_ms"] for p in parts),
            "tail_percentile": parts[0]["tail_percentile"],
            "samples": len(values_ms), "windows": windows,
            "samples_per_window": size}


# ----------------------------------------------------------------------
# op accounting
# ----------------------------------------------------------------------
class Ops:
    """Attempted/failed op counter; keeps the first few failure reasons.

    An op fails when it raises, returns a non-200 response, misses its
    deadline or fails its correctness gate; each leak found at teardown
    is one more failed op.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def gate(self, passed: bool, reason: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    def call(self, fn, *args, **kwargs):
        """Run ``fn``; a raise counts as a failed op and returns ``None``."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            self.fail(f"{getattr(fn, '__name__', fn)} raised "
                      f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    @property
    def fail_frac(self) -> float:
        return self.failed / max(self.attempted, 1)


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def repeated_setup(fn, reps: int):
    """Run ``fn`` ``reps`` times; returns (last result, median seconds).

    Each earlier result is handed to ``fn`` as ``previous`` so it can
    tear the old state down before building the new one.
    """
    times, state = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        state = fn(previous=state)
        times.append(time.perf_counter() - t0)
    return state, median(times)


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def transforms_identical(a, b) -> bool:
    """Bit-identical dictionaries and coefficient matrices."""
    import numpy as np

    ca, cb = a.coefficients, b.coefficients
    return (np.array_equal(a.dictionary.atoms, b.dictionary.atoms)
            and np.array_equal(ca.data, cb.data)
            and np.array_equal(ca.indices, cb.indices)
            and np.array_equal(ca.indptr, cb.indptr))


def modeled_seconds(cluster, m: int, l: int, nnz: int,
                    updates: int = 1) -> float:
    """Eq. 2 (``CostModel.time_seconds``) for ``updates`` Gram updates."""
    from repro.core import CostModel

    return updates * CostModel(cluster).time_seconds(m, l, nnz)


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------
class RunDirs:
    """Run-local scratch space under ``<checkout>/.perfbench``.

    ``tmp`` is also exported as ``TMPDIR`` so any temporary file the
    program makes stays inside the checkout, and so the teardown check
    can see it.
    """

    def __init__(self, root: Path, tag: str) -> None:
        self.base = root / ".perfbench"
        self.results = self.base / "results"
        self.tmp = self.base / "tmp" / f"{tag}-{os.getpid()}"
        self.results.mkdir(parents=True, exist_ok=True)
        self.tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(self.tmp)
        tempfile.tempdir = str(self.tmp)

    def scratch(self, name: str) -> Path:
        return self.tmp / name

    def leftovers(self) -> list[str]:
        return sorted(p.name for p in self.tmp.iterdir())

    def remove(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# leak and teardown checks
# ----------------------------------------------------------------------
SHM_DIR = Path("/dev/shm")


def shm_segments() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def live_children(pid: int | None = None) -> list[int]:
    """PIDs of live (non-zombie) processes whose parent is ``pid``.

    multiprocessing's resource tracker is left out: it is started once
    by the first shared-memory segment and lives exactly as long as the
    process that started it, so it is not a leak.
    """
    pid = os.getpid() if pid is None else pid
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        # comm may hold spaces; fields after the closing paren are fixed
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[1]) == pid \
                and b"resource_tracker" not in cmdline:
            found.append(int(entry.name))
    return found


def pid_alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def teardown_checks(ops: Ops, shm_before: set[str], dirs: RunDirs,
                    extra_pids=()) -> dict:
    """The three leak checks; each violation is one failed op."""
    leaked_shm = sorted(shm_segments() - shm_before)
    survivors = sorted(set(live_children())
                       | {p for p in extra_pids if pid_alive(p)})
    left = dirs.leftovers()
    for kind, found in (("shm segments", leaked_shm),
                        ("processes", survivors),
                        ("temporary entries", left)):
        if found:
            ops.fail(f"leaked {kind}: {found[:5]}", n=len(found))
        else:
            ops.ok()
    return {"shm": leaked_shm, "processes": survivors, "tmp": left}


# ----------------------------------------------------------------------
# environment fingerprint
# ----------------------------------------------------------------------
def _blas_info() -> dict:
    import numpy as np

    info: dict = {"library": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        info["library"] = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    info["threads"] = _openblas_threads()
    info["env"] = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ}
    return info


def _openblas_threads() -> int | None:
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(root: Path) -> str:
    """sha256 over ``src/**/*.py`` — identifies the code when no git
    metadata is present."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path) -> dict:
    import numpy as np
    import scipy

    from repro.linalg.kernels import resolve_backend
    from repro.mpi.runtime import resolve_mpi_backend

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "omp_kernel_backend": resolve_backend(None).name,
        "mpi_backend_auto": resolve_mpi_backend(None, size=2),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
    }


#: Fingerprint keys that identify the code, not the environment.
CODE_KEYS = ("git_commit", "source_digest")


def fingerprint_mismatches(a: dict, b: dict) -> list[str]:
    """Environment keys on which two fingerprints differ."""
    keys = sorted((set(a) | set(b)) - set(CODE_KEYS))
    return [k for k in keys if a.get(k) != b.get(k)]


def dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True,
                               default=str) + "\n")
