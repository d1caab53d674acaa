"""Timing spans kept in the benchmark's own code.

The traced run wraps the program's public layer entry points with a
timing wrapper while a traced op runs, and unwraps them afterwards, so
untraced ops in the same run pay nothing.  Only calls made in the
benchmark process are recorded: a layer that runs in a forked child
(fork-pool chunks, SPMD ranks) shows up as its parent-side call time
plus the counts the program returns.

Times are inclusive (a layer's time contains the layers it calls).
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _transform_nnz(d) -> int:
    if hasattr(d, "transform_nnz"):
        return int(d.transform_nnz)
    return int(d.shape[0] * d.shape[1])


class Tracer:
    """Per-layer call counts and inclusive seconds for traced ops."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_wall = 0.0
        self.ops = 0
        self._targets = self._collect_targets()
        self._saved: list = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, layer, fn, post=None, pre=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            token = pre(args) if pre is not None else None
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            tracer.seconds[layer] += time.perf_counter() - t0
            tracer.calls[layer] += 1
            if post is not None:
                post(args, out, token)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_panels(self, layer, gen_fn, _post=None, _pre=None):
        """Time each ``next`` of a panel generator (``iter_panel_dta``)."""
        tracer = self

        def wrapper(d, a):
            inner = gen_fn(d, a)
            if os.getpid() != tracer.pid:
                yield from inner
                return
            tnnz = _transform_nnz(d)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.seconds[layer] += time.perf_counter() - t0
                    return
                tracer.seconds[layer] += time.perf_counter() - t0
                tracer.calls[layer] += 1
                tracer.counts["dta.flops"] += 2 * tnnz * (item[1] - item[0])
                yield item

        wrapper.__wrapped__ = gen_fn
        return wrapper

    def _collect_targets(self):
        """``(owner, attribute, layer, wrapper, post, pre)`` for every
        wrapped entry point."""
        import repro.core.alpha as alpha
        import repro.core.exd as exd
        import repro.core.framework as framework
        import repro.linalg.omp as omp
        import repro.linalg.parallel_omp as pomp
        import repro.mpi.runtime as runtime
        import repro.online.maintainer as maintainer
        import repro.online.update as update
        import repro.serve.registry as registry
        import repro.sparse.builder as builder
        import repro.store.column_store as column_store
        import repro.store.streaming as streaming
        from repro.linalg.kernels import resolve_backend

        c = self.counts

        def kernel_post(_a, out, _t):
            c["kernel.iterations"] += sum(int(r[3]) for r in out)

        def dta_post(args, _out, _t):
            c["dta.flops"] += 2 * _transform_nnz(args[0]) * args[1].shape[1]

        def nnz_post(_a, out, _t):
            c["sparse.nnz"] += int(out.nnz)

        def gram_pre(args):
            return args[0].hits

        def gram_post(args, _out, hits_before):
            c["gram.hits" if args[0].hits > hits_before
              else "gram.misses"] += 1

        def invalidate_post(_a, out, _t):
            c["gram.invalidations"] += int(bool(out))

        def pool_pre(args):
            return len(args[1]) if hasattr(args[1], "__len__") else 0

        def pool_post(_a, _out, tasks):
            c["pool.tasks"] += tasks

        def tuner_post(_a, out, _t):
            c["tuner.trials"] += len(out.table)

        def spmd_post(_a, out, _t):
            c["spmd.runs"] += 1
            c["spmd.messages"] += sum(t.calls for t in out.traffic.ops.values())
            c["spmd.words"] += out.traffic.total_wire_words()

        def read_post(_a, out, _t):
            c["store.read_bytes"] += int(out.nbytes)

        def stream_post(_a, out, _t):
            c["stream.blocks"] += int(out[2].blocks_encoded)

        kernel_cls = type(resolve_backend(None))
        w, p = self._wrap, self._wrap_panels
        return [
            (kernel_cls, "batch_omp_columns", "kernel", w, kernel_post, None),
            (omp, "iter_panel_dta", "dta", p, None, None),
            (omp, "blocked_dta", "dta", w, dta_post, None),
            (builder.ColumnBuilder, "add_column", "sparse", w, None, None),
            (builder.ColumnBuilder, "finalize", "sparse", w, nnz_post, None),
            (pomp.GramCache, "get", "gram", w, gram_post, gram_pre),
            (pomp.GramCache, "invalidate", "gram.invalidate", w,
             invalidate_post, None),
            (pomp, "fork_map", "pool", w, pool_post, pool_pre),
            (alpha, "fork_map", "pool", w, pool_post, pool_pre),
            (framework, "tune_dictionary_size", "tuner", w, tuner_post, None),
            (framework, "exd_transform_distributed", "exd", w, None, None),
            (framework, "exd_transform", "exd", w, None, None),
            (exd, "exd_transform", "exd", w, None, None),
            (runtime, "run_spmd", "spmd", w, spmd_post, None),
            (column_store.ColumnStore, "read_range", "store.read", w,
             read_post, None),
            (column_store.ColumnStore, "append_columns", "store.append", w,
             None, None),
            (streaming.StreamingEncoder, "run", "stream", w, stream_post,
             None),
            (maintainer.OnlineMaintainer, "step", "online.step", w, None,
             None),
            (maintainer, "batch_omp_matrix", "online.encode", w, None, None),
            (update.OnlineUpdater, "refresh_atoms", "online.refresh", w, None,
             None),
            (maintainer.OnlineMaintainer, "build_generation", "online.build",
             w, None, None),
            (registry.DictionaryRegistry, "add_transform", "registry.warm", w,
             None, None),
        ]

    # ------------------------------------------------------------------
    # install / uninstall around one traced op
    # ------------------------------------------------------------------
    #: The layers of one encode, traced around a gate's reference encode.
    ENCODE_LAYERS = frozenset({"kernel", "dta", "sparse", "gram"})

    def install(self, only=None) -> None:
        if self._saved:
            return
        for owner, attr, layer, wrap, post, pre in self._targets:
            if only is not None and layer not in only:
                continue
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, wrap(layer, original, post, pre))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def op(self):
        """Wrap every layer for one traced op and add it to the op wall."""
        self.install()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.op_wall += time.perf_counter() - t0
            self.uninstall()
            self.ops += 1

    @contextmanager
    def encode_layers(self):
        """Wrap only the encode layers, outside the op wall (a gate's
        reference encode, where the op itself ran in child processes)."""
        self.install(self.ENCODE_LAYERS)
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # derived numbers
    # ------------------------------------------------------------------
    def share(self, layer: str) -> float:
        return self.seconds.get(layer, 0.0) / self.op_wall \
            if self.op_wall > 0 else 0.0

    def summary(self) -> dict:
        """Calls and inclusive seconds per wrapped layer."""
        return {"traced_ops": self.ops, "op_wall_s": self.op_wall,
                "layers": {k: {"calls": self.calls[k], "s": v}
                           for k, v in sorted(self.seconds.items())}}

    def common_metrics(self) -> dict:
        """Per-layer metrics of the layers every workload enters."""
        s, c = self.seconds, self.counts
        iters = c["kernel.iterations"]
        hits, misses = c["gram.hits"], c["gram.misses"]
        return {
            "kernel.s": s["kernel"],
            "kernel.iterations": iters,
            "kernel.us_per_iter": s["kernel"] * 1e6 / iters if iters else 0.0,
            "omp.dta.s": s["dta"],
            "omp.dta.gflops": c["dta.flops"] / s["dta"] / 1e9
            if s["dta"] > 0 else 0.0,
            "sparse.assemble.s": s["sparse"],
            "sparse.nnz": c["sparse.nnz"],
            "gram.s": s["gram"],
            "gram_cache.hits": hits,
            "gram_cache.misses": misses,
            "gram_cache.hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "gram_cache.invalidations": c["gram.invalidations"],
            "pool.tasks": c["pool.tasks"],
            "pool.share": self.share("pool"),
            "tuner.trials": c["tuner.trials"],
            "tuner.share": self.share("tuner"),
            "exd.share": self.share("exd"),
            "spmd.runs": c["spmd.runs"],
            "spmd.messages": c["spmd.messages"],
            "spmd.words": c["spmd.words"],
            "spmd.share": self.share("spmd"),
            "stream.blocks": c["stream.blocks"],
            "store.read_MBps": c["store.read_bytes"] / s["store.read"] / 1e6
            if s["store.read"] > 0 else 0.0,
            "store.read.share": self.share("store.read"),
            "store.append.share": self.share("store.append"),
            "online.step.share": self.share("online.step"),
            "online.encode.share": self.share("online.encode"),
            "online.refresh.share": self.share("online.refresh"),
            "online.build.share": self.share("online.build"),
            "registry.warm.share": self.share("registry.warm"),
        }
