"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Inventory of platform presets and dataset surrogates.
``ingest``
    Chunk a dataset (surrogate or ``.npy`` file) into an on-disk
    column store for out-of-core runs.
``tune``
    Run the platform-aware tuner on a dataset and print the Sec. VII
    tuning table; ``--sketch`` estimates α(L) from very sparse random
    projections of a column sample instead of exact subset encodes
    (a fraction of the bytes — see docs/online.md).
``transform``
    Build an ExD transform (tuned or fixed-L) and save it to ``.npz``;
    ``--fast-dict RC`` factors the sampled dictionary into a sparse
    fast transform before encoding.
``fit-fast``
    Factor a saved transform's dense dictionary into a
    :class:`~repro.core.fastdict.FastDict` post hoc and report the
    modeled apply speedup.
``pca``
    Top-k PCA through a transform, with the exact spectrum and the
    learning error (the Fig. 10/12 measurement for one configuration).
``serve``
    Long-lived HTTP encode service: loads fitted transforms, keeps
    their Gram matrices warm and micro-batches concurrent
    single-column encodes into shared-``G`` Batch-OMP calls
    (see :mod:`repro.serve`).
``maintain``
    Drift-aware online dictionary maintenance: stream minibatches
    from the data source, watch measured (α, error) against the
    fitted α(L) curve, refresh atoms with minibatch surrogate
    updates and re-seed dead ones (see :mod:`repro.online` and
    docs/online.md).

Input data is either a named surrogate (``--dataset salina``), a
``.npy`` file of shape ``(M, N)`` (``--input``), or — for ``tune`` and
``transform`` — a column store directory written by ``ingest``
(``--store``), which is processed out-of-core with optional resumable
checkpoints (``--checkpoint DIR``, ``--resume``).

Every subcommand accepts ``--metrics-json FILE`` (write the unified
:class:`~repro.observability.report.RunReport` — span timings, metric
counters, Gram-cache hits/misses, per-op MPI traffic, virtual-clock
totals — as JSON) and ``--profile`` (pretty-print the same report to
stdout).  Either flag switches the observability layer on for the run.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import observability
from repro.core import (
    CostModel,
    ExtDict,
    exd_transform,
    exd_transform_distributed,
    save_transform,
    tune_dictionary_size,
)
from repro.data import DATASETS, load_dataset
from repro.errors import ReproError
from repro.platform import PAPER_PLATFORM_NAMES, paper_platforms, platform_by_name
from repro.utils import check_positive_int, format_table


def _load_matrix(args):
    if getattr(args, "store", None):
        from repro.store import ColumnStore

        if getattr(args, "input", None):
            raise ReproError("--store and --input are mutually exclusive")
        return ColumnStore.open(args.store)
    if getattr(args, "input", None):
        arr = np.load(args.input)
        if arr.ndim != 2:
            raise ReproError(
                f"--input must hold a 2-D array, got shape {arr.shape}")
        return np.asarray(arr, dtype=np.float64)
    return load_dataset(args.dataset, n=args.n, seed=args.seed).matrix


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=sorted(DATASETS),
                        default="salina",
                        help="named synthetic surrogate (default: salina)")
    parser.add_argument("--input", metavar="FILE.npy",
                        help="load the data matrix from a .npy file "
                             "instead of a surrogate")
    parser.add_argument("--n", type=int, default=1024,
                        help="surrogate column count (default: 1024)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default: 0)")
    parser.add_argument("--eps", type=float, default=0.1,
                        help="transformation error tolerance (default: 0.1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel encode/tuning workers: omit for "
                             "serial, -1 for all cores (results are "
                             "identical for every value)")
    _add_mpi_backend_argument(parser)


def _add_mpi_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mpi-backend", default=None,
                        choices=("threads", "processes", "auto"),
                        help="SPMD execution backend for emulated runs "
                             "(default: the REPRO_MPI_BACKEND "
                             "environment variable, then 'auto'); the "
                             "model accounting is identical either way "
                             "— see docs/mpi_backends.md")


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-json", metavar="FILE", default=None,
                        help="write the unified run report (metrics, "
                             "spans, MPI traffic, virtual clocks) as "
                             "JSON to FILE")
    parser.add_argument("--profile", action="store_true",
                        help="pretty-print the run report to stdout "
                             "after the command")


def cmd_info(_args) -> int:
    """Print platform presets and the dataset registry."""
    rows = [[c.name, c.nodes, c.cores_per_node, c.size,
             f"{c.machine.flop_rate / 1e9:.1f} GF/s"]
            for c in paper_platforms()]
    print(format_table(["platform", "nodes", "cores/node", "P",
                        "per-core rate"], rows,
                       title="Platform presets (paper Sec. VIII)"))
    print()
    rows = [[name, f"{e['paper_shape'][0]} x {e['paper_shape'][1]}",
             e["application"]] for name, e in sorted(DATASETS.items())]
    print(format_table(["dataset", "paper shape", "application"], rows,
                       title="Dataset surrogates (paper Table I)"))
    return 0


def cmd_tune(args) -> int:
    """Run the Sec. VII tuner and print the candidate table."""
    a = _load_matrix(args)
    cluster = platform_by_name(args.platform)
    model = CostModel(cluster)
    if args.sketch or args.sketch_dim or args.sketch_columns:
        from repro.core import SketchConfig, tune_dictionary_size_sketched

        cfg = SketchConfig(dim=args.sketch_dim,
                           columns=args.sketch_columns)
        result = tune_dictionary_size_sketched(
            a, args.eps, model, objective=args.objective,
            sketch=cfg, seed=args.seed, workers=args.workers)
        source = (f"alpha sketched from {result.sketch_columns} "
                  f"columns projected to k={result.sketch_dim} dims")
    else:
        result = tune_dictionary_size(a, args.eps, model,
                                      objective=args.objective,
                                      seed=args.seed, workers=args.workers)
        source = (f"alpha estimated from {result.subset_columns} "
                  f"columns")
    rows = [[l, f"{alpha:.2f}", f"{nnz:.0f}", f"{cost:.4g}",
             "<-- L*" if l == result.best_size else ""]
            for l, alpha, nnz, cost in result.table]
    print(format_table(
        ["L", "alpha(L)", "predicted nnz(C)",
         f"{args.objective} cost (flop-equiv)", ""],
        rows, title=f"Tuning on {cluster.describe()}, eps={args.eps} "
                    f"({source})"))
    if getattr(result, "bytes_read", 0):
        print(f"store bytes read for the sketch: "
              f"{result.bytes_read / 2**20:.2f} MiB "
              f"({result.chunks_read} chunks)")
    return 0


def cmd_ingest(args) -> int:
    """Chunk a dataset into an on-disk column store."""
    from repro.data import synthesize_to_store
    from repro.store import ColumnStore

    if args.input:
        arr = np.load(args.input)
        if arr.ndim != 2:
            raise ReproError(
                f"--input must hold a 2-D array, got shape {arr.shape}")
        store = ColumnStore.from_matrix(
            args.store, np.asarray(arr, dtype=np.float64),
            chunk_width=args.chunk_width, attrs={"source_file": args.input})
    else:
        store = synthesize_to_store(args.dataset, args.store, n=args.n,
                                    seed=args.seed,
                                    chunk_width=args.chunk_width)
    m, n = store.shape
    print(f"ingested {m}x{n} into {store.path} "
          f"({store.n_chunks} chunks of <= {store.chunk_width} columns, "
          f"{store.nbytes / 2**20:.1f} MiB)")
    return 0


def cmd_transform(args) -> int:
    """Build an ExD transform (tuned or fixed-L) and save it."""
    from repro.store import StreamingEncoder, is_column_store

    a = _load_matrix(args)
    streamed = is_column_store(a)
    if not streamed and (args.checkpoint or args.resume
                         or args.memory_budget_mb is not None
                         or args.block_width is not None):
        raise ReproError("--checkpoint/--resume/--memory-budget-mb/"
                         "--block-width require --store")
    if streamed and args.distributed and (args.checkpoint or args.resume
                                          or args.memory_budget_mb
                                          is not None):
        raise ReproError("--distributed streams each rank's shard "
                         "without checkpoints; it cannot be combined "
                         "with --checkpoint/--resume/--memory-budget-mb")
    if args.memory_budget_mb is not None and args.memory_budget_mb <= 0:
        raise ReproError(
            f"--memory-budget-mb must be positive, got "
            f"{args.memory_budget_mb}")
    budget = (int(args.memory_budget_mb * 2**20)
              if args.memory_budget_mb is not None else None)
    fast_cfg = None
    if args.fast_dict is not None:
        from repro.core.fastdict import FastDictConfig

        if args.distributed:
            raise ReproError("--fast-dict cannot be combined with "
                             "--distributed (the SPMD encode shares the "
                             "dense sampled dictionary across ranks)")
        fast_cfg = FastDictConfig(rc=args.fast_dict,
                                  levels=args.fast_levels)
    if args.size is not None:
        if args.distributed:
            # A ColumnStore input is rank-sharded: each emulated rank
            # streams only its shard_plan partition from disk.
            transform, stats, spmd = exd_transform_distributed(
                a, args.size, args.eps, platform_by_name(args.platform),
                seed=args.seed,
                block_width=args.block_width if streamed else None)
            print(f"simulated distributed encode on {args.platform}: "
                  f"{spmd.simulated_time * 1e3:.3f} ms "
                  f"(mpi backend: {spmd.backend})")
        elif streamed:
            encoder = StreamingEncoder(
                a, args.size, args.eps, seed=args.seed,
                workers=args.workers, memory_budget_bytes=budget,
                block_width=args.block_width,
                checkpoint_dir=args.checkpoint,
                fast_dict=fast_cfg)
            transform, stats, rep = encoder.run(resume=args.resume)
            print(f"streamed {rep.blocks_total} blocks of "
                  f"{rep.block_width} columns "
                  f"({rep.blocks_reused} reused from checkpoint); read "
                  f"{rep.chunks_read} chunks / "
                  f"{rep.bytes_read / 2**20:.1f} MiB, wrote "
                  f"{rep.checkpoints_written} checkpoints")
        else:
            transform, stats = exd_transform(a, args.size, args.eps,
                                             seed=args.seed,
                                             workers=args.workers,
                                             fast_dict=fast_cfg)
    elif args.distributed:
        raise ReproError("--distributed requires a fixed --size "
                         "(the distributed encoder skips tuning)")
    else:
        ext = ExtDict(eps=args.eps,
                      cluster=platform_by_name(args.platform),
                      objective=args.objective, seed=args.seed,
                      workers=args.workers,
                      memory_budget_bytes=budget,
                      block_width=args.block_width,
                      checkpoint_dir=args.checkpoint,
                      fast_dict=fast_cfg).fit(
                          a, resume=args.resume)
        transform, stats = ext.transform_, ext.stats_
    path = save_transform(transform, args.out)
    print(f"data {a.shape[0]}x{a.shape[1]} -> D {transform.m}x{transform.l}"
          f" + C with nnz={transform.nnz} (alpha={transform.alpha:.2f})")
    if "fastdict_rc" in transform.meta:
        dense_cost = transform.m * transform.l
        tnnz = transform.dictionary.transform_nnz
        print(f"fast dictionary: RC={transform.meta['fastdict_rc']:.3f} "
              f"(transform_nnz={tnnz}, modeled apply speedup "
              f"{dense_cost / tnnz:.2f}x), factorisation residual "
              f"{transform.meta['fastdict_residual']:.3e}")
    print(f"all columns met eps={args.eps}: {stats.all_converged}")
    print(f"saved transform to {path}")
    return 0


def cmd_fit_fast(args) -> int:
    """Factor a saved transform's dense dictionary into a FastDict."""
    from repro.core import load_transform
    from repro.core.dictionary import Dictionary
    from repro.core.fastdict import fit_fast_dict
    from repro.core.transform import TransformedData

    transform = load_transform(args.transform)
    if not isinstance(transform.dictionary, Dictionary):
        raise ReproError(
            f"{args.transform} already holds a factored dictionary "
            f"({type(transform.dictionary).__name__}); fit-fast needs a "
            f"dense one")
    fd = fit_fast_dict(transform.dictionary, rc=args.rc,
                       levels=args.levels, iters=args.iters,
                       seed=args.seed)
    meta = dict(transform.meta)
    meta["fastdict_rc"] = float(fd.relative_complexity)
    meta["fastdict_residual"] = float(fd.residual)
    updated = TransformedData(dictionary=fd,
                              coefficients=transform.coefficients,
                              eps=transform.eps, method=transform.method,
                              meta=meta)
    out = args.out or args.transform
    path = save_transform(updated, out)
    dense_cost = fd.m * fd.size
    print(f"D {fd.m}x{fd.size} -> {fd.levels} factors, "
          f"transform_nnz={fd.transform_nnz} "
          f"(RC={fd.relative_complexity:.3f}, requested {args.rc})")
    print(f"modeled apply speedup: {dense_cost / fd.transform_nnz:.2f}x; "
          f"factorisation residual |D-S1..SJ|_F/|D|_F = {fd.residual:.3e}")
    print(f"saved factored transform to {path}")
    return 0


def cmd_pca(args) -> int:
    """Top-k PCA via the transform; report learning error."""
    from repro.apps import eigenvalue_error, exact_gram_eigenvalues, run_pca
    a = _load_matrix(args)
    cluster = platform_by_name(args.platform) if args.platform else None
    res = run_pca(a, args.k, method="extdict", eps=args.eps,
                  cluster=cluster, seed=args.seed, workers=args.workers)
    exact = exact_gram_eigenvalues(a, args.k)
    # The power method may return fewer than k eigenpairs when deflation
    # exhausts the numerical spectrum (k > rank of the Gram matrix).
    kk = len(res.eigenvalues)
    rows = [[i + 1, f"{exact[i]:.4g}", f"{res.eigenvalues[i]:.4g}"]
            for i in range(kk)]
    print(format_table(["#", "exact", "ExtDict"], rows,
                       title=f"Top-{args.k} eigenvalues of A'A "
                             f"(eps={args.eps})"))
    if kk < args.k:
        print(f"note: spectrum exhausted after {kk} eigenpairs "
              f"(requested {args.k})")
    print(f"normalised cumulative error: "
          f"{eigenvalue_error(res.eigenvalues, exact[:kk]):.3e}")
    if cluster is not None:
        print(f"simulated runtime on {cluster.name}: "
              f"{res.simulated_time * 1e3:.3f} ms")
    return 0


def _parse_transform_spec(spec: str) -> tuple[str, str]:
    """Split a ``[tenant=]PATH`` --transform argument."""
    tenant, sep, path = spec.partition("=")
    if sep and tenant and "/" not in tenant and "\\" not in tenant:
        return tenant, path
    return "default", spec


def cmd_serve(args) -> int:
    """Run the long-lived encode service (see :mod:`repro.serve`)."""
    import asyncio

    from repro.serve import ServeApp

    if args.max_batch < 1:
        raise ReproError(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.max_queue < 1:
        raise ReproError(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.max_wait_ms < 0:
        raise ReproError(
            f"--max-wait-ms must be >= 0, got {args.max_wait_ms}")
    cost_model = (CostModel(platform_by_name(args.platform))
                  if args.platform else None)
    app = ServeApp(max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
                   max_queue=args.max_queue, timeout_ms=args.timeout_ms,
                   cost_model=cost_model)
    for spec in args.transform or []:
        tenant, path = _parse_transform_spec(spec)
        gen = app.registry.load(tenant, path)
        print(f"loaded {path} as tenant {tenant!r} generation "
              f"{gen.number} (M={gen.transform.m}, L={gen.transform.l})")
    if not args.transform:
        print("warning: no --transform given; load dictionaries via "
              "POST /v1/dictionaries", file=sys.stderr)
    print(f"serving on http://{args.host}:{args.port} "
          f"(max_batch={app.batcher.max_batch}, "
          f"max_wait_ms={args.max_wait_ms})")
    try:
        asyncio.run(app.run_forever(args.host, args.port))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_maintain(args) -> int:
    """Run the drift-aware online maintenance loop (docs/online.md)."""
    import json

    from repro.core import exd_transform, load_transform, save_transform
    from repro.online import MaintenanceConfig, OnlineMaintainer
    from repro.store import is_column_store
    from repro.store.column_store import take_columns

    config = MaintenanceConfig(batch=args.batch,
                               refresh_every=args.refresh_every)
    check_positive_int(args.steps, "steps", minimum=0)
    a = _load_matrix(args)
    if args.transform:
        transform = load_transform(args.transform)
        print(f"maintaining {args.transform}: D {transform.m}x"
              f"{transform.l}, eps={transform.eps}")
    else:
        if args.size is None:
            raise ReproError(
                "maintain needs a dictionary: pass --transform FILE.npz "
                "or --size L to fit one from the data's leading columns")
        init = min(a.shape[1], args.init_columns)
        seed_cols = take_columns(a, np.arange(init)) \
            if is_column_store(a) \
            else np.asarray(a[:, :init], dtype=np.float64)
        transform, _ = exd_transform(seed_cols, args.size, args.eps,
                                     seed=args.seed, workers=args.workers)
        print(f"fitted initial D {transform.m}x{transform.l} from the "
              f"first {init} columns (eps={args.eps})")
    maintainer = OnlineMaintainer(a, transform, config=config,
                                  seed=args.seed, workers=args.workers)
    for rep in maintainer.run(args.steps):
        notes = []
        if rep["drift_fired"]:
            notes.append("drift")
        if rep["atoms_refreshed"]:
            notes.append(f"refreshed {rep['atoms_refreshed']}")
        if rep["atoms_reseeded"]:
            notes.append(f"re-seeded {len(rep['atoms_reseeded'])}")
        if rep["retune_recommended"]:
            notes.append("re-tune recommended")
        print(f"step {rep['step']:>3}: alpha={rep['alpha']:.2f} "
              f"error={rep['error']:.4f}"
              + (f"  [{', '.join(notes)}]" if notes else ""))
    if args.out:
        path = save_transform(maintainer.build_generation(), args.out)
        print(f"saved maintained transform to {path}")
    if args.status_json:
        with open(args.status_json, "w", encoding="utf-8") as fh:
            json.dump(maintainer.status(), fh, indent=2)
        print(f"wrote maintenance status to {args.status_json}")
    else:
        usage = maintainer.status()["atom_usage"]
        print(f"atom usage: {usage['selections']} selections over "
              f"{usage['columns']} columns, "
              f"{usage['dead_atoms']} dead atoms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ExtDict (IPDPS'17) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="list platform presets and "
                                         "datasets")
    _add_observability_arguments(p_info)

    p_ing = sub.add_parser("ingest", help="chunk a dataset into an "
                                          "on-disk column store")
    p_ing.add_argument("--dataset", choices=sorted(DATASETS),
                       default="salina",
                       help="named synthetic surrogate (default: salina)")
    p_ing.add_argument("--input", metavar="FILE.npy",
                       help="ingest a .npy matrix instead of a surrogate")
    p_ing.add_argument("--n", type=int, default=1024,
                       help="surrogate column count (default: 1024)")
    p_ing.add_argument("--seed", type=int, default=0,
                       help="surrogate random seed (default: 0)")
    p_ing.add_argument("--store", required=True, metavar="DIR",
                       help="output column-store directory")
    p_ing.add_argument("--chunk-width", type=int, default=256,
                       help="columns per store chunk (default: 256)")
    _add_observability_arguments(p_ing)

    p_tune = sub.add_parser("tune", help="platform-aware dictionary tuning")
    _add_data_arguments(p_tune)
    _add_observability_arguments(p_tune)
    p_tune.add_argument("--store", metavar="DIR", default=None,
                        help="tune on a column store (subset columns are "
                             "read from disk)")
    p_tune.add_argument("--platform", choices=PAPER_PLATFORM_NAMES,
                        default="2x8")
    p_tune.add_argument("--objective",
                        choices=("time", "energy", "memory"),
                        default="time")
    p_tune.add_argument("--sketch", action="store_true",
                        help="estimate alpha(L) from very sparse random "
                             "projections of a chunk-aligned column "
                             "sample instead of exact subset encodes "
                             "(reads a fraction of the bytes; see "
                             "docs/online.md)")
    p_tune.add_argument("--sketch-dim", type=int, default=None,
                        metavar="K",
                        help="projected row dimension (default: "
                             "max(16, M/4), capped at M); implies "
                             "--sketch")
    p_tune.add_argument("--sketch-columns", type=int, default=None,
                        metavar="COLS",
                        help="columns in the sketch sample (default: "
                             "the tuner's subset size); implies "
                             "--sketch")

    p_tr = sub.add_parser("transform", help="build and save an ExD "
                                            "transform")
    _add_data_arguments(p_tr)
    _add_observability_arguments(p_tr)
    p_tr.add_argument("--size", type=int,
                      help="fixed dictionary size (skips tuning)")
    p_tr.add_argument("--store", metavar="DIR", default=None,
                      help="encode a column store out-of-core (bit-"
                           "identical to the in-memory encode)")
    p_tr.add_argument("--checkpoint", metavar="DIR", default=None,
                      help="spill encoded blocks and a resumable "
                           "checkpoint manifest to DIR (requires "
                           "--store)")
    p_tr.add_argument("--resume", action="store_true",
                      help="resume an interrupted encode from "
                           "--checkpoint (bit-identical to an "
                           "uninterrupted run)")
    p_tr.add_argument("--memory-budget-mb", type=float, default=None,
                      help="cap the encode working set (MiB); sets the "
                           "streaming block width via the Eq. 4 memory "
                           "model")
    p_tr.add_argument("--block-width", type=int, default=None,
                      help="explicit streaming block width (multiple "
                           "of 256; overrides --memory-budget-mb)")
    p_tr.add_argument("--platform", choices=PAPER_PLATFORM_NAMES,
                      default="2x8")
    p_tr.add_argument("--objective",
                      choices=("time", "energy", "memory"),
                      default="time")
    p_tr.add_argument("--distributed", action="store_true",
                      help="encode on the emulated --platform cluster "
                           "(requires --size); populates MPI traffic "
                           "and virtual clocks in the run report")
    p_tr.add_argument("--fast-dict", type=float, default=None,
                      metavar="RC",
                      help="learn a sparse-factor fast-transform "
                           "dictionary with relative complexity RC in "
                           "(0, 1]: applying D costs ~RC*M*L instead "
                           "of M*L (see docs/fastdict.md)")
    p_tr.add_argument("--fast-levels", type=int, default=2, metavar="J",
                      help="number of sparse factors for --fast-dict "
                           "(default: 2)")
    p_tr.add_argument("--out", default="transform.npz",
                      help="output path (default: transform.npz)")

    p_ff = sub.add_parser("fit-fast", help="factor a saved transform's "
                                           "dictionary into a FastDict")
    _add_observability_arguments(p_ff)
    p_ff.add_argument("--transform", required=True, metavar="FILE.npz",
                      help="transform archive written by `transform`")
    p_ff.add_argument("--rc", type=float, default=0.25,
                      help="relative-complexity budget "
                           "nnz(S1..SJ)/(M*L) (default: 0.25)")
    p_ff.add_argument("--levels", type=int, default=2, metavar="J",
                      help="number of sparse factors (default: 2)")
    p_ff.add_argument("--iters", type=int, default=10,
                      help="alternating refinement sweeps (default: 10)")
    p_ff.add_argument("--seed", type=int, default=0,
                      help="factorisation init seed (default: 0)")
    p_ff.add_argument("--out", default=None, metavar="FILE.npz",
                      help="output path (default: overwrite the input)")

    p_srv = sub.add_parser("serve", help="run the low-latency encode "
                                         "service")
    _add_observability_arguments(p_srv)
    p_srv.add_argument("--transform", action="append", default=None,
                       metavar="[TENANT=]FILE.npz",
                       help="fitted transform to load at startup "
                            "(repeatable; tenant defaults to 'default')")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8000)
    p_srv.add_argument("--max-batch", type=int, default=64,
                       help="largest coalesced encode batch (default: 64)")
    p_srv.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="batching window after the first request "
                            "(default: 2.0; 0 disables coalescing)")
    p_srv.add_argument("--timeout-ms", type=float, default=1000.0,
                       help="default per-request deadline (default: 1000)")
    p_srv.add_argument("--max-queue", type=int, default=512,
                       help="queued requests before 429 backpressure "
                            "(default: 512)")
    p_srv.add_argument("--platform", choices=PAPER_PLATFORM_NAMES,
                       default=None,
                       help="bill per-tenant Eq. 2/3 costs against this "
                            "platform's cost model")
    _add_mpi_backend_argument(p_srv)

    p_mnt = sub.add_parser("maintain", help="drift-aware online "
                                            "dictionary maintenance")
    _add_data_arguments(p_mnt)
    _add_observability_arguments(p_mnt)
    p_mnt.add_argument("--store", metavar="DIR", default=None,
                       help="maintain against a column store (the "
                            "append generation counter drives "
                            "fresh-data biasing)")
    p_mnt.add_argument("--transform", metavar="FILE.npz", default=None,
                       help="fitted transform to maintain (written by "
                            "`transform`); without it, --size fits an "
                            "initial dictionary from the data's "
                            "leading columns")
    p_mnt.add_argument("--size", type=int, default=None,
                       help="dictionary size for the initial fit "
                            "(ignored with --transform)")
    p_mnt.add_argument("--init-columns", type=int, default=2048,
                       help="leading columns used for the initial fit "
                            "(default: 2048)")
    p_mnt.add_argument("--steps", type=int, default=10,
                       help="maintenance steps to run (default: 10)")
    p_mnt.add_argument("--batch", type=int, default=256,
                       help="minibatch columns per step (default: 256)")
    p_mnt.add_argument("--refresh-every", type=int, default=1,
                       help="block-coordinate atom refresh cadence in "
                            "steps (default: 1; drift always triggers "
                            "a refresh)")
    p_mnt.add_argument("--out", metavar="FILE.npz", default=None,
                       help="save the maintained dictionary as a new "
                            "transform generation")
    p_mnt.add_argument("--status-json", metavar="FILE", default=None,
                       help="write the final maintainer status digest "
                            "as JSON")

    p_pca = sub.add_parser("pca", help="top-k PCA through the transform")
    _add_data_arguments(p_pca)
    _add_observability_arguments(p_pca)
    p_pca.add_argument("--k", type=int, default=5)
    p_pca.add_argument("--platform", choices=PAPER_PLATFORM_NAMES,
                       default=None,
                       help="simulate distributed execution on this "
                            "platform (default: serial)")

    return parser


_COMMANDS = {
    "info": cmd_info,
    "ingest": cmd_ingest,
    "tune": cmd_tune,
    "transform": cmd_transform,
    "fit-fast": cmd_fit_fast,
    "pca": cmd_pca,
    "serve": cmd_serve,
    "maintain": cmd_maintain,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    observe = bool(getattr(args, "metrics_json", None)
                   or getattr(args, "profile", False))
    if observe:
        observability.reset()
        observability.enable()
    try:
        from repro.mpi import set_default_mpi_backend

        # --mpi-backend installs the process-wide SPMD backend default
        # (argument > this default > REPRO_MPI_BACKEND > auto).
        set_default_mpi_backend(getattr(args, "mpi_backend", None))
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_default_mpi_backend(None)
        if observe:
            report = observability.collect_report(
                command=args.command,
                argv=list(argv) if argv is not None else sys.argv[1:])
            if args.metrics_json:
                report.save(args.metrics_json)
                print(f"wrote run report to {args.metrics_json}",
                      file=sys.stderr)
            if args.profile:
                print(report.pretty())
            observability.disable()
