"""serve_open_loop: the encode daemon under open-loop load.

Setup fits a transform (Salinas surrogate, N=8192, L=256, eps=0.1),
saves it, and starts ``python -m repro serve --transform ...`` as its
own process with default knobs.  A single-process asyncio client on 2
keep-alive connections sends held-out columns:

* open loop on a seeded Poisson schedule at 100 req/s (``lo``), then
  300 req/s (``hi``), each request timed from when it was due;
* a closed loop on the same 2 connections for the saturation rate.

At ``lo`` a request mostly pays the 2 ms batching window plus one
padded 256-column panel; at ``hi`` coalescing and queueing show.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    latency_summary,
    median,
    modeled_seconds,
    repeated_setup,
    teardown_checks,
    windowed_summary,
)
from loadgen import (
    HttpConnections,
    closed_loop,
    open_loop,
    poisson_schedule,
    windowed_rate,
)
from repro.core import exd_transform, load_transform, save_transform
from repro.data import salina_like
from repro.linalg.parallel_omp import encode_columns
from repro.platform import platform_by_name
from repro.serve.protocol import parse_encode_request
from repro.utils.rng import derive_seed

N, HELD, L, EPS = 8192, 1024, 256, 0.1
LO_RATE, HI_RATE, CONNS = 100.0, 300.0, 2
#: Shares of the run's seconds: lo, hi, saturation (rest: probes).
LO_SHARE, HI_SHARE, SAT_SHARE = 0.35, 0.35, 0.2
#: Every SAMPLE_EVERY-th response is checked against a local encode.
SAMPLE_EVERY = 10
#: The lo latencies and the saturation rate are medians over this many
#: consecutive windows, so one burst on the host moves one window.  At
#: 35 s a lo window holds ~120 requests, so its tail is about the 92nd
#: percentile; fewer, longer windows push it toward the rarest stalls.
WINDOWS = 10
LATE_MS = 1.0
SETUP_REPS = 3
HOST = "127.0.0.1"


@dataclass
class _Daemon:
    proc: subprocess.Popen
    port: int
    npz: Path
    log: object


def _free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def _get(port: int, path: str, timeout: float = 5.0) -> dict:
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {resp.status}")
        return json.loads(body)
    finally:
        conn.close()


def _start(ctx, npz: Path, tag: str) -> _Daemon:
    port = _free_port()
    log = open(ctx.dirs.scratch(f"daemon-{tag}.log"), "wb")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--transform", str(npz),
         "--host", HOST, "--port", str(port)],
        cwd=ctx.root, stdout=log, stderr=subprocess.STDOUT)
    daemon = _Daemon(proc, port, npz, log)
    end = time.monotonic() + 60
    while time.monotonic() < end:
        if proc.poll() is not None:
            _stop(daemon)
            raise RuntimeError(f"daemon exited with {proc.returncode}")
        try:
            _get(port, "/healthz", timeout=1.0)
            return daemon
        except (OSError, RuntimeError):
            time.sleep(0.05)
    _stop(daemon)
    raise RuntimeError("daemon did not become healthy within 60 s")


def _stop(daemon: _Daemon) -> None:
    """SIGINT (the daemon's clean shutdown), then SIGKILL if it hangs;
    removes the daemon's log and transform."""
    if daemon.proc.poll() is None:
        daemon.proc.send_signal(signal.SIGINT)
        try:
            daemon.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            daemon.proc.kill()
            daemon.proc.wait()
    daemon.log.close()
    Path(daemon.log.name).unlink(missing_ok=True)
    daemon.npz.unlink(missing_ok=True)


def run(ctx) -> dict:
    a, _ = salina_like(n=N + HELD, seed=derive_seed(ctx.seed, 1))
    held = np.ascontiguousarray(a[:, N:])
    a = np.ascontiguousarray(a[:, :N])
    bodies = [json.dumps({"column": [float(v) for v in held[:, j]]}).encode()
              for j in range(HELD)]
    raws = [HttpConnections.request_bytes("POST", "/v1/encode", b)
            for b in bodies]
    reps = iter(range(SETUP_REPS))
    daemons: list[_Daemon] = []

    def setup(previous=None):
        if previous is not None:
            _stop(previous)
        tag = str(next(reps))
        transform, _ = exd_transform(a, L, EPS, seed=derive_seed(ctx.seed, 2))
        npz = save_transform(transform, ctx.dirs.scratch(f"t-{tag}.npz"))
        daemons.append(_start(ctx, npz, tag))
        asyncio.run(_warm(daemons[-1].port, raws))
        return daemons[-1]

    try:
        daemon, setup_s = repeated_setup(setup, SETUP_REPS)
        # the generation the daemon serves, for the gate and the probes
        transform = load_transform(daemon.npz)
        out = _load(ctx, daemon.port, raws, held, transform)
        if ctx.tracer is not None:
            out["layer"].update(_probes(
                ctx, daemon.port, transform, held, bodies,
                max(int(round(out["details"]["lo_mean_batch"])), 1),
                out["e2e"]["op_ms"]))
    finally:
        for d in daemons:
            _stop(d)
    out["details"]["leaks"] = teardown_checks(
        ctx.ops, ctx.shm_before, ctx.dirs,
        extra_pids=[d.proc.pid for d in daemons])
    out["e2e"]["setup_s"] = setup_s
    return out


async def _warm(port: int, raws) -> None:
    async with HttpConnections(HOST, port, CONNS) as conns:
        for j in range(50):
            await conns.roundtrip(j % CONNS, raws[j % len(raws)])


def _load(ctx, port: int, raws, held, transform) -> dict:
    """The lo, hi and saturation phases, then the response gate."""
    ops = ctx.ops
    samples: dict[int, list[bytes]] = {}

    async def phase(kind, rate=None, duration=None, seed=None):
        async with HttpConnections(HOST, port, CONNS) as conns:
            async def send(conn, i):
                j = i % len(raws)
                try:
                    status, body = await conns.roundtrip(conn, raws[j])
                except (OSError, asyncio.IncompleteReadError,
                        ValueError) as exc:
                    ops.fail(f"{kind} request {i}: {exc!r}")
                    return False
                if status != 200:
                    ops.fail(f"{kind} request {i}: HTTP {status}")
                    return False
                if i % SAMPLE_EVERY == 0:
                    # counted when its gate runs, after the load phases
                    samples.setdefault(j, []).append(body)
                else:
                    ops.ok()
                return True

            if kind == "sat":
                return await closed_loop(duration, send, CONNS)
            return await open_loop(poisson_schedule(rate, duration, seed),
                                   send, CONNS)

    s = ctx.seconds
    m0 = _get(port, "/v1/metrics")["meta"]
    lo = asyncio.run(phase("lo", LO_RATE, LO_SHARE * s,
                           derive_seed(ctx.seed, 5)))
    m1 = _get(port, "/v1/metrics")["meta"]
    hi = asyncio.run(phase("hi", HI_RATE, HI_SHARE * s,
                           derive_seed(ctx.seed, 6)))
    m2 = _get(port, "/v1/metrics")["meta"]
    sat_s = SAT_SHARE * s
    completions = asyncio.run(phase("sat", duration=sat_s))

    lo_ms = [r.latency * 1e3 for r in lo if r.ok]
    hi_ms = [r.latency * 1e3 for r in hi if r.ok]
    if not lo_ms or not hi_ms or len(completions) < 2:
        raise RuntimeError("a load phase had no successful request")
    lo_lat = windowed_summary(lo_ms, WINDOWS)
    hi_lat = windowed_summary(hi_ms, WINDOWS)
    late = [r.late * 1e3 for r in lo + hi]

    # gate: sampled responses == local encode on the same generation
    cols = sorted(samples)
    local, _ = encode_columns(transform.dictionary, held[:, cols],
                              transform.eps)
    for j, (support, coef, _ok) in zip(cols, local):
        want = ([int(v) for v in support], [float(v) for v in coef])
        for body in samples[j]:
            got = json.loads(body)
            ops.gate((got["support"], got["coefficients"]) == want,
                     f"column {j}: response differs from local encode")

    def per_batch(key, before, after):
        return (after[key] - before[key]) / max(
            after["batches"] - before["batches"], 1)

    return {
        "e2e": {"cols_per_s": windowed_rate(completions, sat_s, WINDOWS),
                "op_ms": lo_lat["p50_ms"], "tail_ms": lo_lat["tail_ms"]},
        "layer": {
            "serve.mean_batch": per_batch("encoded_columns", m1, m2),
            "serve.coalesced_frac": per_batch("coalesced_batches", m1, m2),
            "serve.hi_over_lo_p50": hi_lat["p50_ms"] / lo_lat["p50_ms"],
            "serve.late_frac": sum(x > LATE_MS for x in late) / len(late),
        },
        "details": {"lo": lo_lat, "hi": hi_lat,
                    "sat": {"succeeded": len(completions), "seconds": sat_s},
                    "lo_mean_batch": per_batch("encoded_columns", m0, m1),
                    "hi_mean_batch": per_batch("encoded_columns", m1, m2),
                    "generator_late_ms": latency_summary(late),
                    "sampled_responses": sum(map(len, samples.values()))},
    }


def _probes(ctx, port: int, transform, held, bodies, batch: int,
            lo_p50_ms: float) -> dict:
    """Bench-side probes of one request's path: an HTTP round trip with
    no encode, request parsing, and the encode at the batch size the lo
    phase saw (traced and untraced alternately)."""
    conn = http.client.HTTPConnection(HOST, port, timeout=5)
    try:
        rtt = []
        for _ in range(100):
            t0 = time.perf_counter()
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            rtt.append(time.perf_counter() - t0)
    finally:
        conn.close()
    parsed = [json.loads(b) for b in bodies[:200]]
    t0 = time.perf_counter()
    for body in parsed:
        parse_encode_request(body, default_tenant="default")
    parse_s = (time.perf_counter() - t0) / len(parsed)
    serial = platform_by_name("1x1")
    enc, ratios = [], []
    for i in range(40):
        lo = (i * batch) % (held.shape[1] - batch)
        with ctx.measure(ctx.alternate(i), overhead=True) as m:
            results, _ = encode_columns(transform.dictionary,
                                        held[:, lo:lo + batch], transform.eps)
        enc.append(m.seconds)
        nnz = sum(support.size for support, _c, _ok in results)
        ratios.append(m.seconds / modeled_seconds(serial, transform.m,
                                                  transform.l, nnz))
    lo_s = lo_p50_ms / 1e3
    return {"serve.http_share": median(rtt) / lo_s,
            "serve.parse_share": parse_s / lo_s,
            "serve.encode_share": median(enc) / lo_s,
            "encode.wall_over_modeled": median(ratios)}
