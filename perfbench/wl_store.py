"""store_maintain: streaming reads beside store writes, online
maintenance and registry generations.

Setup builds a read ``ColumnStore`` of the Salinas surrogate (N=8192)
and, for each of ``MAINTAINED`` further surrogate draws (N=2048 each), a
write store, a fitted dictionary (L=256, eps=0.1) and an
``OnlineMaintainer``, all publishing into one ``DictionaryRegistry``.
The timed part interleaves:

* reads: streaming ``exd_transform(read store, 256, 0.1,
  memory_budget_bytes=8 MiB)``, closed loop;
* writes: ``ROUNDS`` rounds, paced evenly over the run and rotating over
  the maintained draws, of ``append_columns`` (512 held-out columns) on
  the write store -> ``OnlineMaintainer.step()`` ->
  ``build_generation()`` -> ``DictionaryRegistry.add_transform`` (Gram
  warmed before the generation is visible; the previous one retired).
  The dictionary mutates every step, so the Gram cache misses every
  step.

The reads use their own store so every streaming encode covers the same
columns and one in-memory reference gates them all.  The rounds are
paced because contention bursts on a shared host last about a second: a
round sample taken all at once would land in one burst or miss it.  They
rotate over several draws because a round's cost depends on its data
(one draw's rounds run ~35% slower than another's), so a run's round
latencies are over inputs, not over one draw.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.core.exd as exd
from common import (
    latency_summary,
    median,
    modeled_seconds,
    repeated_setup,
    transforms_identical,
)
from repro.data import salina_like
from repro.online import OnlineMaintainer
from repro.platform import platform_by_name
from repro.serve import DictionaryRegistry
from repro.store import ColumnStore
from repro.utils.rng import derive_seed

N, L, EPS = 8192, 256, 0.1
MAINTAINED, WRITE_N = 3, 2048
ROUNDS, APPEND = 45, 512
BUDGET = 8 << 20
SETUP_REPS = 3


@dataclass
class _Lane:
    """One maintained draw: its write store, the columns appended to it
    round by round, its maintainer and its live registry generation."""
    name: str
    writes: ColumnStore
    held: np.ndarray
    maintainer: OnlineMaintainer
    generation: int
    rounds: int = 0


@dataclass
class _State:
    paths: list[Path]
    reads: ColumnStore
    lanes: list[_Lane]
    registry: DictionaryRegistry


def run(ctx) -> dict:
    serial = platform_by_name("1x1")
    reps = iter(range(SETUP_REPS))
    per_lane = math.ceil(ROUNDS / MAINTAINED)

    def setup(previous=None):
        if previous is not None:
            _close(previous)
        rep = next(reps)
        a, _ = salina_like(n=N, seed=derive_seed(ctx.seed, 1))
        paths = [ctx.dirs.scratch(f"reads-{rep}")]
        reads = ColumnStore.from_matrix(paths[0], a)
        registry = DictionaryRegistry()
        lanes = []
        for k in range(MAINTAINED):
            w, _ = salina_like(n=WRITE_N + per_lane * APPEND,
                               seed=derive_seed(ctx.seed, 5, k))
            held = np.ascontiguousarray(w[:, WRITE_N:])
            w = np.ascontiguousarray(w[:, :WRITE_N])
            paths.append(ctx.dirs.scratch(f"writes-{rep}-{k}"))
            writes = ColumnStore.from_matrix(paths[-1], w)
            transform, _ = exd.exd_transform(w, L, EPS,
                                             seed=derive_seed(ctx.seed, 2, k))
            maintainer = OnlineMaintainer(writes, transform,
                                          seed=derive_seed(ctx.seed, 3, k))
            gen = registry.add_transform(f"m{k}", transform)
            lanes.append(_Lane(f"m{k}", writes, held, maintainer, gen.number))
        return _State(paths, reads, lanes, registry)

    state, setup_s = repeated_setup(setup, SETUP_REPS)

    def maintain(lane, cols):
        lane.writes.append_columns(cols)
        report = lane.maintainer.step()
        gen = state.registry.add_transform(
            lane.name, lane.maintainer.build_generation())
        state.registry.retire(lane.name, lane.generation)
        lane.generation = gen.number
        return report

    rounds_ms, errors = [], []

    def round_(r):
        lane = state.lanes[r % MAINTAINED]
        j = lane.rounds
        lane.rounds += 1
        cols = lane.held[:, j * APPEND:(j + 1) * APPEND]
        with ctx.measure(ctx.alternate(r)) as m:
            report = ctx.ops.call(maintain, lane, cols)
        if report is None:
            return
        errors.append(report["error"])
        if ctx.ops.gate(report["converged"] and report["error"] <= EPS * 1.25,
                        f"round {r}: error {report['error']:.4g}, "
                        f"converged {report['converged']}"):
            rounds_ms.append(m.seconds * 1e3)

    stream_seed = derive_seed(ctx.seed, 4)
    reference, _ = exd.exd_transform(state.reads.as_array(), L, EPS,
                                     seed=stream_seed)
    stream_s, ratios = [], []
    start = time.perf_counter()
    i = done = 0
    while i == 0 or time.perf_counter() - start < ctx.seconds:
        # through the module attribute, which a traced op wraps
        with ctx.measure(ctx.alternate(i), overhead=True) as m:
            out = ctx.ops.call(exd.exd_transform, state.reads, L, EPS,
                               seed=stream_seed, memory_budget_bytes=BUDGET)
        i += 1
        if out is not None:
            transform, stats = out
            if ctx.ops.gate(stats.all_converged
                            and transforms_identical(transform, reference),
                            f"stream {i}: differs from the in-memory encode"):
                stream_s.append(m.seconds)
                ratios.append(m.seconds / modeled_seconds(
                    serial, transform.m, L, transform.nnz))
        due = math.ceil(ROUNDS * (time.perf_counter() - start) / ctx.seconds)
        while done < min(due, ROUNDS):
            round_(done)
            done += 1
    while done < ROUNDS:          # a slow host still does every round
        round_(done)
        done += 1
    _close(state)
    if not rounds_ms or not stream_s:
        raise RuntimeError("no maintenance round or stream passed its gate")
    lat = latency_summary(rounds_ms)
    return {
        # work over time summed across the run, so a stream or round
        # that lands in a burst moves a figure by its share of the run
        "e2e": {"setup_s": setup_s,
                "cols_per_s": N * len(stream_s) / sum(stream_s),
                "op_ms": sum(rounds_ms) / len(rounds_ms),
                "tail_ms": lat["tail_ms"]},
        "layer": {"encode.wall_over_modeled": median(ratios)},
        "details": {"rounds": lat, "round_ms": rounds_ms,
                    "stream_s": stream_s, "round_errors": errors,
                    "encode.wall_over_modeled": ratios},
    }


def _close(state: _State) -> None:
    for lane in state.lanes:
        lane.maintainer.close()
    for path in state.paths:
        shutil.rmtree(path, ignore_errors=True)
