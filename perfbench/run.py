"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload store_maintain --seed 1 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.  The line before it is the full
record (environment fingerprint, per-op details), which is also written
to ``.perfbench/results/``.  ``perfbench/REFERENCE.md`` says why each
workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

# One BLAS thread per process, set before numpy loads and inherited by
# pool workers, SPMD ranks and the serve daemon: every workload runs 2
# processes on 2 cores, and 2 BLAS threads each would oversubscribe them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from common import (  # noqa: E402
    Ops,
    RunDirs,
    dump_json,
    fingerprint,
    peak_rss_mb,
    shm_segments,
)

WORKLOADS = {
    "fit_learn_spmd": "wl_fit_learn",
    "serve_open_loop": "wl_serve",
    "store_maintain": "wl_store",
}


class _Measured:
    seconds = 0.0


class Context:
    """What a workload gets: its seed and time, op accounting, scratch
    space and, in a traced run, the tracer."""

    def __init__(self, root: Path, seed: int, seconds: float,
                 trace: bool, dirs: RunDirs) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.dirs = dirs
        self.ops = Ops()
        self.shm_before = shm_segments()
        self.tracer = None
        if trace:
            from tracing import Tracer
            self.tracer = Tracer()
        self.traced_s: list[float] = []
        self.untraced_s: list[float] = []

    @contextmanager
    def measure(self, traced: bool = False, overhead: bool = False):
        """Time one op; in a traced run, wrap the layers when ``traced``.

        Traced runs alternate traced and untraced ops of the same kind;
        the ops marked ``overhead`` (one kind per workload) give the
        tracing overhead as the ratio of their traced and untraced
        medians.
        """
        traced = bool(traced and self.tracer is not None)
        m = _Measured()
        span = self.tracer.op() if traced else nullcontext()
        t0 = time.perf_counter()
        with span:
            yield m
        m.seconds = time.perf_counter() - t0
        if self.tracer is not None and overhead:
            (self.traced_s if traced else self.untraced_s).append(m.seconds)

    def encode_layers(self, traced: bool):
        """Trace a gate's reference encode for the encode layers only."""
        if traced and self.tracer is not None:
            return self.tracer.encode_layers()
        return nullcontext()

    def alternate(self, i: int) -> bool:
        """Whether op ``i`` of a traced run is traced (even ones are)."""
        return self.tracer is not None and i % 2 == 0

    def overhead_frac(self) -> float:
        if not self.traced_s or not self.untraced_s:
            return 0.0
        return statistics.median(self.traced_s) \
            / statistics.median(self.untraced_s) - 1.0


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker if shared memory
    started it, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _declared(root: Path, trace: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a "
              "checkout of the program", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json not found", file=sys.stderr)
        return 2
    src = str(root / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    declared = _declared(root, bool(args.trace))

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    dirs = RunDirs(root, tag)
    try:
        ctx = Context(root, args.seed, args.seconds, bool(args.trace), dirs)
        workload = importlib.import_module(WORKLOADS[args.workload])
        out = workload.run(ctx)
    finally:
        _stop_resource_tracker()
        dirs.remove()

    rss = peak_rss_mb()
    if args.trace:
        metrics = {name: 0.0 for name in declared}
        metrics.update(ctx.tracer.common_metrics())
        metrics.update(out["layer"])
        metrics["trace.overhead_frac"] = ctx.overhead_frac()
        out.setdefault("details", {})["trace"] = ctx.tracer.summary()
    else:
        metrics = dict(out["e2e"], peak_rss_mb=sum(rss))
    missing = set(declared) - set(metrics)
    extra = set(metrics) - set(declared)
    if missing or extra:
        raise SystemExit(f"perfbench: metric set mismatch: missing "
                         f"{sorted(missing)}, undeclared {sorted(extra)}")

    ops = ctx.ops
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(root),
        "correct": ops.failed == 0, "attempted": ops.attempted,
        "failed": ops.failed, "fail_frac": ops.fail_frac,
        "failures": ops.reasons,
        "metrics": {k: {"value": float(metrics[k]), "unit": declared[k]}
                    for k in sorted(declared)},
        "details": dict(out.get("details", {}),
                        rss_self_mb=rss[0], rss_child_mb=rss[1]),
    }
    dump_json(dirs.results / f"{tag}.json", record)
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
