"""End-to-end smoke test for the encode service (CI job ``serve-smoke``).

Run as ``PYTHONPATH=src python tools/serve_smoke.py``.  The script

1. fits an ExD transform on a dataset surrogate and saves it,
2. starts the real HTTP daemon (``ServeApp`` on a background event
   loop) with the transform loaded,
3. fires 64 concurrent single-column encode requests for columns the
   transform was fitted on and checks every answer bit-for-bit against
   that column of the fitted transform's coefficients,
4. checks the run report at ``GET /v1/metrics`` proves at least one
   coalesced batch of size > 1 actually happened,
5. loads a second dictionary generation and hot-swaps the default
   while encode traffic is in flight, then verifies post-swap answers
   come from the new generation — again bit-identical to its fitted
   transform.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

M, N, L, EPS = 48, 256, 32, 0.15
CONCURRENCY = 64


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"serve smoke FAILED: {message}")


class Daemon:
    def __init__(self, app):
        self.app = app
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.addr = self.loop.run_until_complete(self.app.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self):
        self._thread.start()
        check(self._ready.wait(15), "daemon did not start in 15 s")
        return self.addr

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.app.stop(), self.loop).result(15)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(15)
        self.loop.close()


def request(addr, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def fitted_codes(transform, k):
    """``(support, coefficients)`` of the transform's first ``k`` columns."""
    c = transform.coefficients
    out = []
    for j in range(k):
        lo, hi = int(c.indptr[j]), int(c.indptr[j + 1])
        out.append(([int(i) for i in c.indices[lo:hi]],
                    np.asarray(c.data[lo:hi])))
    return out


def check_bit_identity(addr, a, refs, *, generation=None, label=""):
    def encode(j):
        body = {"column": [float(v) for v in a[:, j]]}
        if generation is not None:
            body["generation"] = generation
        status, payload = request(addr, "POST", "/v1/encode", body)
        check(status == 200, f"{label} encode {j} -> HTTP {status}: "
                             f"{payload}")
        return j, payload

    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        results = list(pool.map(encode, range(a.shape[1])))

    max_batch = 0
    for j, payload in results:
        support, coef = refs[j]
        check(payload["support"] == support,
              f"{label} column {j}: support differs from the fitted "
              f"transform")
        check(np.array_equal(np.asarray(payload["coefficients"]), coef),
              f"{label} column {j}: coefficients differ from the fitted "
              f"transform (not bit-identical)")
        max_batch = max(max_batch, payload["batch_size"])
    return max_batch


def main() -> int:
    from repro.core import exd_transform, save_transform
    from repro.data import union_of_subspaces
    from repro.serve import ServeApp

    a, _ = union_of_subspaces(M, N, n_subspaces=4, dim=4, noise=0.01,
                              seed=17)
    t1, _ = exd_transform(a, size=L, eps=EPS, seed=1)
    t2, _ = exd_transform(a, size=L + 8, eps=EPS, seed=2)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        gen2_path = Path(tmp) / "gen2.npz"
        save_transform(t2, gen2_path)

        app = ServeApp(max_batch=CONCURRENCY, max_wait_ms=25.0,
                       max_queue=1024, timeout_ms=60000.0)
        app.registry.add_transform("default", t1)
        daemon = Daemon(app)
        addr = daemon.start()
        try:
            status, body = request(addr, "GET", "/healthz")
            check(status == 200 and body["status"] == "ok",
                  f"healthz answered {status}: {body}")

            cols = a[:, :CONCURRENCY]
            refs1 = fitted_codes(t1, CONCURRENCY)
            max_batch = check_bit_identity(addr, cols, refs1,
                                           label="gen1")
            check(max_batch > 1,
                  f"no coalescing: largest batch was {max_batch}")
            print(f"64 concurrent encodes bit-identical to the fitted "
                  f"transform (largest coalesced batch: {max_batch})")

            status, report = request(addr, "GET", "/v1/metrics")
            check(status == 200, f"metrics answered {status}")
            counters = report["metrics"]["counters"]
            check(counters.get("serve.coalesced_batches", 0) >= 1,
                  "run report shows no coalesced batch")
            hist = report["metrics"]["histograms"].get("serve.batch_size")
            check(hist is not None and hist["max"] > 1,
                  "run report batch-size histogram shows no batch > 1")
            print(f"run report: {counters['serve.batches']:.0f} batches, "
                  f"{counters['serve.coalesced_batches']:.0f} coalesced, "
                  f"largest {hist['max']:.0f}")

            # hot-swap mid-traffic
            stop = threading.Event()
            failures: list = []

            def hammer():
                j = 0
                while not stop.is_set():
                    status, payload = request(
                        addr, "POST", "/v1/encode",
                        {"column": [float(v) for v in a[:, j % N]]})
                    if status != 200:
                        failures.append((status, payload))
                        return
                    j += 1

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for th in threads:
                th.start()
            try:
                time.sleep(0.2)
                status, body = request(
                    addr, "POST", "/v1/dictionaries",
                    {"path": str(gen2_path), "set_default": False})
                check(status == 200 and body["generation"] == 2,
                      f"loading generation 2 failed: {status} {body}")
                status, body = request(
                    addr, "POST", "/v1/dictionaries/default",
                    {"generation": 2})
                check(status == 200, f"hot-swap failed: {status} {body}")
                time.sleep(0.2)
            finally:
                stop.set()
                for th in threads:
                    th.join(15)
            check(not failures,
                  f"requests failed during hot-swap: {failures[:3]}")

            refs2 = fitted_codes(t2, CONCURRENCY)
            check_bit_identity(addr, cols, refs2, label="gen2")
            status, payload = request(
                addr, "POST", "/v1/encode",
                {"column": [float(v) for v in a[:, 0]]})
            check(payload["generation"] == 2,
                  "post-swap traffic still answers from generation 1")
            print("hot-swap mid-traffic OK; post-swap encodes "
                  "bit-identical to generation 2's fitted transform")
        finally:
            daemon.stop()

    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
