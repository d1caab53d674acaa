"""Encode-service tests: protocol, registry, batcher, HTTP end-to-end.

The load-bearing claim is the serving analogue of the store's: a
column's sparse code is bit-identical no matter how the micro-batcher
grouped it — 64 concurrent single-column requests must reproduce one
serial :func:`~repro.linalg.omp.batch_omp_matrix` call over the same
columns, bit for bit, while the run report proves actual coalescing
happened.  Around that sit the service semantics: multi-tenant
generation registry, atomic hot-swap mid-traffic, 429 backpressure and
504 deadlines.
"""

import asyncio
import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import observability
from repro.core import exd_transform
from repro.data.subspaces import union_of_subspaces
from repro.linalg.omp import batch_omp_matrix
from repro.serve import (
    DictionaryRegistry,
    EncodeRequest,
    MicroBatcher,
    ServeApp,
    ServeError,
    parse_encode_request,
    parse_vector,
)

M, N, L, EPS = 32, 220, 24, 0.15


@pytest.fixture(scope="module")
def data():
    a, _ = union_of_subspaces(M, N, n_subspaces=4, dim=3,
                              noise=0.01, seed=11)
    return a


@pytest.fixture(scope="module")
def transform(data):
    t, _ = exd_transform(data, size=L, eps=EPS, seed=3)
    return t


@pytest.fixture(scope="module")
def transform_b(data):
    t, _ = exd_transform(data, size=L + 4, eps=EPS, seed=7)
    return t


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_vector_rejects_bad_payloads(self):
        with pytest.raises(ServeError) as err:
            parse_vector("nope", "column")
        assert err.value.status == 400
        with pytest.raises(ServeError):
            parse_vector([1.0, float("nan")], "column")
        with pytest.raises(ServeError):
            parse_vector([[1.0], [2.0]], "column")
        with pytest.raises(ServeError):
            parse_vector([1.0, 2.0], "column", m=3)

    def test_parse_encode_request_defaults_and_validation(self):
        req = parse_encode_request({"column": [1.0, 2.0]},
                                   default_tenant="default")
        assert req.tenant == "default"
        assert req.generation is None and req.eps is None
        np.testing.assert_array_equal(req.column, [1.0, 2.0])

        for bad in (
            {"column": [1.0], "tenant": ""},
            {"column": []},
            {"column": [1.0], "generation": 0},
            {"column": [1.0], "generation": True},
            {"column": [1.0], "eps": 1.5},
            {"column": [1.0], "eps": 0.0},
            {"column": [1.0], "max_atoms": -2},
            {"column": [1.0], "timeout_ms": 0},
            "not a dict",
        ):
            with pytest.raises(ServeError) as err:
                parse_encode_request(bad, default_tenant="default")
            assert err.value.status == 400


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_generations_and_default(self, transform, transform_b):
        reg = DictionaryRegistry()
        g1 = reg.add_transform("t1", transform)
        assert g1.number == 1
        assert reg.resolve("t1").number == 1
        g2 = reg.add_transform("t1", transform_b, set_default=False)
        assert g2.number == 2
        assert reg.resolve("t1").number == 1  # default unchanged
        assert reg.resolve("t1", 2).transform is transform_b
        reg.set_default("t1", 2)
        assert reg.resolve("t1").number == 2

    def test_resolution_errors(self, transform):
        reg = DictionaryRegistry()
        with pytest.raises(ServeError) as err:
            reg.resolve("ghost")
        assert err.value.status == 404
        reg.add_transform("t1", transform)
        with pytest.raises(ServeError) as err:
            reg.resolve("t1", 99)
        assert err.value.status == 404

    def test_retire_guards_default(self, transform, transform_b):
        reg = DictionaryRegistry()
        reg.add_transform("t1", transform)
        reg.add_transform("t1", transform_b)
        with pytest.raises(ServeError) as err:
            reg.retire("t1", 2)  # default
        assert err.value.status == 409
        reg.retire("t1", 1)
        with pytest.raises(ServeError):
            reg.resolve("t1", 1)

    def test_load_from_disk(self, transform, tmp_path):
        from repro.core import save_transform
        path = tmp_path / "t.npz"
        save_transform(transform, path)
        reg = DictionaryRegistry()
        gen = reg.load("t1", path)
        assert gen.source == str(path)
        np.testing.assert_array_equal(
            gen.transform.dictionary.atoms, transform.dictionary.atoms)

    def test_describe_shape(self, transform):
        reg = DictionaryRegistry()
        reg.add_transform("t1", transform)
        doc = reg.describe()
        info = doc["tenants"]["t1"]
        assert info["default_generation"] == 1
        assert info["generations"][0]["m"] == transform.m
        assert info["generations"][0]["l"] == transform.l

    def test_warm_gram_cache(self, transform_b):
        from repro.linalg.parallel_omp import cached_gram
        reg = DictionaryRegistry()
        reg.add_transform("warm", transform_b)
        atoms = transform_b.dictionary.atoms
        np.testing.assert_array_equal(cached_gram(atoms), atoms.T @ atoms)


# ----------------------------------------------------------------------
# batcher (driven directly through asyncio)
# ----------------------------------------------------------------------
def run_async(coro):
    return asyncio.run(coro)


class TestBatcher:
    def test_submit_before_start_is_503(self, transform):
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)
        batcher = MicroBatcher(reg)

        async def go():
            with pytest.raises(ServeError) as err:
                await batcher.submit(
                    EncodeRequest(tenant="t", column=np.ones(M)))
            assert err.value.status == 503

        run_async(go())

    def test_shape_mismatch_is_400(self, transform):
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)

        async def go():
            batcher = MicroBatcher(reg)
            await batcher.start()
            try:
                with pytest.raises(ServeError) as err:
                    await batcher.submit(
                        EncodeRequest(tenant="t", column=np.ones(M + 1)))
                assert err.value.status == 400
            finally:
                await batcher.stop()

        run_async(go())

    def test_concurrent_submits_coalesce_bit_identically(
            self, data, transform):
        """The tentpole invariant, at the batcher layer."""
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)
        d = transform.dictionary.atoms
        c_ref, _ = batch_omp_matrix(d, data, EPS)

        async def go():
            batcher = MicroBatcher(reg, max_batch=16, max_wait_ms=20.0)
            await batcher.start()
            try:
                results = await asyncio.gather(*[
                    batcher.submit(EncodeRequest(
                        tenant="t", column=data[:, j]))
                    for j in range(N)
                ])
            finally:
                await batcher.stop()
            return results

        results = run_async(go())
        for j, res in enumerate(results):
            lo, hi = int(c_ref.indptr[j]), int(c_ref.indptr[j + 1])
            np.testing.assert_array_equal(res.support,
                                          c_ref.indices[lo:hi])
            np.testing.assert_array_equal(res.coefficients,
                                          c_ref.data[lo:hi])
        assert any(res.batch_size > 1 for res in results)

    def test_queue_full_is_429_with_retry_after(self, transform):
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)

        async def go():
            batcher = MicroBatcher(reg, max_queue=2, max_wait_ms=0.0,
                                   max_batch=1, timeout_ms=30000.0)
            gate = threading.Event()
            real_encode = batcher._encode

            def slow_encode(*a, **kw):
                gate.wait(5.0)
                return real_encode(*a, **kw)

            batcher._encode = slow_encode
            await batcher.start()
            try:
                # let the collector pick up the first request so it
                # blocks inside the slow encode ...
                first = asyncio.create_task(batcher.submit(EncodeRequest(
                    tenant="t", column=np.ones(M))))
                await asyncio.sleep(0.1)
                # ... then fill the queue behind it
                queued = [asyncio.create_task(batcher.submit(EncodeRequest(
                    tenant="t", column=np.ones(M))))
                    for _ in range(2)]
                await asyncio.sleep(0.05)
                with pytest.raises(ServeError) as err:
                    await batcher.submit(EncodeRequest(
                        tenant="t", column=np.ones(M)))
                assert err.value.status == 429
                assert err.value.retry_after is not None
                gate.set()
                await asyncio.gather(first, *queued)
            finally:
                gate.set()
                await batcher.stop()

        run_async(go())

    def test_expired_deadline_is_504(self, transform):
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)

        async def go():
            batcher = MicroBatcher(reg, max_batch=1, max_wait_ms=0.0)
            gate = threading.Event()
            real_encode = batcher._encode

            def slow_encode(*a, **kw):
                gate.wait(5.0)
                return real_encode(*a, **kw)

            batcher._encode = slow_encode
            await batcher.start()
            try:
                first = asyncio.create_task(batcher.submit(EncodeRequest(
                    tenant="t", column=np.ones(M))))
                await asyncio.sleep(0.05)
                # queued behind the stalled encode with a 1 ms deadline
                second = asyncio.create_task(batcher.submit(EncodeRequest(
                    tenant="t", column=np.ones(M), timeout_ms=1.0)))
                await asyncio.sleep(0.05)
                gate.set()
                await first
                with pytest.raises(ServeError) as err:
                    await second
                assert err.value.status == 504
            finally:
                gate.set()
                await batcher.stop()

        run_async(go())

    def test_mixed_eps_groups_stay_bit_identical(self, data, transform):
        """Requests with different eps batch together but encode in
        separate shared-G groups, each bit-identical to its serial run."""
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)
        d = transform.dictionary.atoms
        eps_values = (0.1, 0.3)
        refs = {e: batch_omp_matrix(d, data[:, :8], e)[0]
                for e in eps_values}

        async def go():
            batcher = MicroBatcher(reg, max_batch=16, max_wait_ms=20.0)
            await batcher.start()
            try:
                return await asyncio.gather(*[
                    batcher.submit(EncodeRequest(
                        tenant="t", column=data[:, j], eps=e))
                    for e in eps_values for j in range(8)
                ])
            finally:
                await batcher.stop()

        results = run_async(go())
        for i, (e, j) in enumerate(
                (e, j) for e in eps_values for j in range(8)):
            ref = refs[e]
            lo, hi = int(ref.indptr[j]), int(ref.indptr[j + 1])
            np.testing.assert_array_equal(results[i].support,
                                          ref.indices[lo:hi])
            np.testing.assert_array_equal(results[i].coefficients,
                                          ref.data[lo:hi])


class TestBatcherRegressions:
    """Dedicated regressions for serve-path bugs (each fails pre-fix)."""

    def test_submit_after_stop_is_immediate_503(self, transform):
        # Pre-fix, stop() left self._queue alive: a late submit would
        # enqueue into a queue nothing drains and hang until its own
        # deadline instead of failing fast with 503.
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)

        async def go():
            batcher = MicroBatcher(reg, timeout_ms=30000.0)
            await batcher.start()
            await batcher.stop()
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            with pytest.raises(ServeError) as err:
                await asyncio.wait_for(batcher.submit(EncodeRequest(
                    tenant="t", column=np.ones(M))), 5.0)
            assert err.value.status == 503
            assert loop.time() - t0 < 1.0
            assert batcher.queue_depth == 0

        run_async(go())

    def test_queued_504_arrives_at_the_deadline(self, transform):
        # Pre-fix, deadlines were only checked when the collector
        # dispatched the request: a request stuck behind a slow batch
        # got its 504 only after the batch finished.  The awaiting-side
        # wait_for must deliver it at ~the deadline instead.
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)

        async def go():
            batcher = MicroBatcher(reg, max_batch=1, max_wait_ms=0.0)
            gate = threading.Event()
            real_encode = batcher._encode

            def slow_encode(*a, **kw):
                gate.wait(5.0)
                return real_encode(*a, **kw)

            batcher._encode = slow_encode
            await batcher.start()
            try:
                first = asyncio.create_task(batcher.submit(EncodeRequest(
                    tenant="t", column=np.ones(M))))
                await asyncio.sleep(0.05)  # collector now stalled
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                with pytest.raises(ServeError) as err:
                    await batcher.submit(EncodeRequest(
                        tenant="t", column=np.ones(M), timeout_ms=50.0))
                elapsed = loop.time() - t0
                assert err.value.status == 504
                # the gate holds the batch for seconds; the 504 must
                # arrive at roughly the 50 ms deadline, not after it
                assert elapsed < 0.75, f"504 took {elapsed:.3f}s"
                gate.set()
                await first
            finally:
                gate.set()
                await batcher.stop()

        run_async(go())

    def test_max_batch_clamp_tracks_encode_block_cols(self, transform,
                                                      monkeypatch):
        # Pre-fix the clamp was a bare 256 literal that would silently
        # diverge from the panel width it is supposed to mirror.
        import repro.linalg.omp as omp_mod
        from repro.serve.batcher import MAX_BATCH_LIMIT

        assert MAX_BATCH_LIMIT == omp_mod.ENCODE_BLOCK_COLS
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)
        monkeypatch.setattr(omp_mod, "ENCODE_BLOCK_COLS", 64)
        batcher = MicroBatcher(reg, max_batch=100000)
        assert batcher.max_batch == 64

    @pytest.mark.parametrize("max_queue", [0, -1])
    def test_queue_bound_below_one_fails_at_construction(self, transform,
                                                         max_queue):
        # asyncio.Queue(maxsize=0) is unbounded, so such a batcher would
        # never answer 429; it must be refused as max_batch < 1 is.
        reg = DictionaryRegistry()
        reg.add_transform("t", transform)
        with pytest.raises(ServeError) as exc:
            MicroBatcher(reg, max_queue=max_queue)
        assert exc.value.status == 400
        assert "max_queue" in exc.value.message


# ----------------------------------------------------------------------
# HTTP end-to-end
# ----------------------------------------------------------------------
class _Server:
    """ServeApp on a background event-loop thread, for blocking tests."""

    def __init__(self, app: ServeApp):
        self.app = app
        self.loop = asyncio.new_event_loop()
        self._addr = None
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self._addr = self.loop.run_until_complete(self.app.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self.thread.start()
        assert self._ready.wait(10)
        self.host, self.port = self._addr
        return self

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.app.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()

    def request(self, method, path, body=None, timeout=30):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload)
            resp = conn.getresponse()
            headers = dict(resp.getheaders())
            return resp.status, json.loads(resp.read()), headers
        finally:
            conn.close()


@pytest.fixture()
def server(transform):
    app = ServeApp(max_batch=64, max_wait_ms=25.0, observe=True)
    app.registry.add_transform("default", transform)
    observability.reset()
    with _Server(app) as srv:
        yield srv
    observability.disable()
    observability.reset()


class TestHTTP:
    def test_healthz_and_dictionaries(self, server, transform):
        status, body, _ = server.request("GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["tenants"] == ["default"]
        status, body, _ = server.request("GET", "/v1/dictionaries")
        assert status == 200
        gens = body["tenants"]["default"]["generations"]
        assert gens[0]["l"] == transform.l

    def test_unknown_route_and_method(self, server):
        assert server.request("GET", "/nope")[0] == 404
        assert server.request("POST", "/healthz")[0] == 405

    @staticmethod
    def _assert_answered_and_closed(server, request: bytes, status: int):
        """Send raw ``request`` bytes; the server must answer ``status``
        with a JSON error and close the connection."""
        reply = b""
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            try:
                while chunk := sock.recv(65536):
                    reply += chunk
            except ConnectionResetError:
                # Closing with request bytes still unread resets the
                # connection after the answer.
                pass
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split(" ")[1] == str(status), reply
        assert "Connection: close" in lines
        assert "error" in json.loads(body)

    @pytest.mark.parametrize("declared, status", [
        ("abc", 400), ("-5", 400), ("999999999", 413)])
    def test_bad_content_length_is_answered(self, server, declared, status):
        self._assert_answered_and_closed(
            server, f"POST /v1/encode HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {declared}\r\n\r\n".encode("latin-1"),
            status)

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: "
         + b"a" * 70_000 + b"\r\n\r\n", 431),
    ], ids=["request-line", "header-block"])
    def test_bad_request_head_is_answered(self, server, request_bytes,
                                          status):
        """A request line that is not three fields gets 400 and a header
        block above ``MAX_HEADER_BYTES`` 431, instead of a silent close."""
        self._assert_answered_and_closed(server, request_bytes, status)

    def test_bad_json_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/encode", body="{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_64_concurrent_encodes_bit_identical_to_serial(
            self, server, data, transform):
        """The acceptance criterion, over real HTTP."""
        k = 64
        d = transform.dictionary.atoms
        c_ref, _ = batch_omp_matrix(d, data[:, :k], EPS)

        def encode(j):
            status, body, _ = server.request(
                "POST", "/v1/encode",
                {"column": [float(v) for v in data[:, j]]})
            assert status == 200, body
            return j, body

        with ThreadPoolExecutor(max_workers=k) as pool:
            results = list(pool.map(encode, range(k)))

        coalesced = 0
        for j, body in results:
            lo, hi = int(c_ref.indptr[j]), int(c_ref.indptr[j + 1])
            assert body["support"] == [int(i) for i in
                                       c_ref.indices[lo:hi]]
            ref_coef = np.asarray(c_ref.data[lo:hi])
            got_coef = np.asarray(body["coefficients"])
            np.testing.assert_array_equal(got_coef, ref_coef)
            coalesced = max(coalesced, body["batch_size"])
        assert coalesced > 1, "no request was coalesced into a batch"

        status, report, _ = server.request("GET", "/v1/metrics")
        assert status == 200
        counters = report["metrics"]["counters"]
        assert counters.get("serve.coalesced_batches", 0) >= 1
        hist = report["metrics"]["histograms"].get("serve.batch_size")
        assert hist is not None and hist["max"] > 1
        assert report["meta"]["encoded_columns"] >= k

    def test_hot_swap_mid_traffic(self, server, data, transform,
                                  transform_b, tmp_path):
        """Load a second generation and swap defaults while encoding."""
        from repro.core import save_transform
        path = tmp_path / "gen2.npz"
        save_transform(transform_b, path)

        stop = threading.Event()
        failures = []

        def hammer():
            j = 0
            while not stop.is_set():
                status, body, _ = server.request(
                    "POST", "/v1/encode",
                    {"column": [float(v) for v in data[:, j % N]]})
                if status != 200:
                    failures.append((status, body))
                j += 1

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            time.sleep(0.2)
            status, body, _ = server.request(
                "POST", "/v1/dictionaries",
                {"path": str(path), "set_default": False})
            assert status == 200 and body["generation"] == 2
            status, body, _ = server.request(
                "POST", "/v1/dictionaries/default",
                {"generation": 2})
            assert status == 200
            assert body["default_generation"] == 2
            time.sleep(0.2)
        finally:
            stop.set()
            for t in threads:
                t.join(10)
        assert not failures, failures[:3]

        # traffic after the swap answers with the new generation
        status, body, _ = server.request(
            "POST", "/v1/encode",
            {"column": [float(v) for v in data[:, 0]]})
        assert status == 200 and body["generation"] == 2
        d2 = transform_b.dictionary.atoms
        c_ref, _ = batch_omp_matrix(d2, data[:, :1], EPS)
        assert body["support"] == [int(i) for i in
                                   c_ref.indices[:c_ref.indptr[1]]]

    def test_maintenance_swap_under_load_never_torn(self, server, data,
                                                    transform):
        """Concurrent encodes racing a maintenance hot-swap must each be
        bit-identical to ONE of the two generations — a response mixing
        the old Gram with the new atoms (or vice versa) is a torn read.

        The swapped-in generation comes from the real maintenance path:
        an ``OnlineMaintainer`` refreshes atoms off the serve thread and
        ``build_generation`` snapshots them for the registry swap.
        """
        from repro.online import MaintenanceConfig, OnlineMaintainer

        mnt = OnlineMaintainer(data, transform, seed=0,
                               config=MaintenanceConfig(batch=64))
        try:
            mnt.run(2)  # mutate the working copy: gen2 differs from gen1
            gen2_transform = mnt.build_generation()
        finally:
            mnt.close()
        d1 = transform.dictionary.atoms
        d2 = gen2_transform.dictionary.atoms
        assert not np.array_equal(d1, d2)

        k = 48
        ref = {}
        for number, atoms in ((1, d1), (2, d2)):
            c, _ = batch_omp_matrix(atoms, data[:, :k], EPS)
            ref[number] = c

        stop = threading.Event()
        failures = []
        seen_generations = set()

        def hammer(worker):
            j = worker
            while not stop.is_set():
                col = j % k
                status, body, _ = server.request(
                    "POST", "/v1/encode",
                    {"column": [float(v) for v in data[:, col]]})
                if status != 200:
                    failures.append((status, body))
                    return
                c_ref = ref.get(body["generation"])
                if c_ref is None:
                    failures.append(("generation", body["generation"]))
                    return
                lo = int(c_ref.indptr[col])
                hi = int(c_ref.indptr[col + 1])
                support_ok = body["support"] == [
                    int(i) for i in c_ref.indices[lo:hi]]
                coef_ok = np.array_equal(
                    np.asarray(body["coefficients"]),
                    np.asarray(c_ref.data[lo:hi]))
                if not (support_ok and coef_ok):
                    failures.append(("torn", body["generation"], col))
                    return
                seen_generations.add(body["generation"])
                j += 1

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        try:
            time.sleep(0.15)
            # the maintenance publish: warm-before-visible hot-swap
            gen = server.app.registry.add_transform(
                "default", gen2_transform, source="maintenance:test",
                set_default=True)
            assert gen.number == 2
            time.sleep(0.15)
        finally:
            stop.set()
            for t in threads:
                t.join(10)
        assert not failures, failures[:3]
        assert 2 in seen_generations, "no request saw the new generation"

    def test_pinned_generation_survives_swap(self, server, data,
                                             transform, transform_b,
                                             tmp_path):
        from repro.core import save_transform
        path = tmp_path / "gen2.npz"
        save_transform(transform_b, path)
        server.request("POST", "/v1/dictionaries", {"path": str(path)})
        # generation 1 can still be addressed explicitly
        status, body, _ = server.request(
            "POST", "/v1/encode",
            {"column": [float(v) for v in data[:, 5]], "generation": 1})
        assert status == 200 and body["generation"] == 1
        d1 = transform.dictionary.atoms
        c_ref, _ = batch_omp_matrix(d1, data[:, 5:6], EPS)
        assert body["support"] == [int(i) for i in
                                   c_ref.indices[:c_ref.indptr[1]]]

    def test_reconstruct_round_trip(self, server, data, transform):
        status, code, _ = server.request(
            "POST", "/v1/encode",
            {"column": [float(v) for v in data[:, 3]]})
        assert status == 200
        status, body, _ = server.request(
            "POST", "/v1/reconstruct",
            {"support": code["support"],
             "coefficients": code["coefficients"]})
        assert status == 200
        d = transform.dictionary.atoms
        expect = d[:, code["support"]] @ np.asarray(code["coefficients"])
        np.testing.assert_array_equal(np.asarray(body["column"]), expect)

    def test_reconstruct_validates_support(self, server):
        status, body, _ = server.request(
            "POST", "/v1/reconstruct",
            {"support": [0, 9999], "coefficients": [1.0, 2.0]})
        assert status == 400

    def test_pca_endpoint(self, server, data, transform):
        status, body, _ = server.request("POST", "/v1/pca", {"k": 3})
        assert status == 200
        assert len(body["eigenvalues"]) == 3
        assert body["eigenvalues"] == sorted(body["eigenvalues"],
                                             reverse=True)
        status, _, _ = server.request("POST", "/v1/pca", {"k": 0})
        assert status == 400

    def test_unknown_tenant_is_404(self, server):
        status, _, _ = server.request(
            "POST", "/v1/encode",
            {"column": [1.0] * M, "tenant": "ghost"})
        assert status == 404

    def test_backpressure_sets_retry_after(self, transform, data):
        # A 200 ms deadline must still ask for a whole second: "0" would
        # tell a shed client to retry at once.
        app = ServeApp(max_batch=1, max_wait_ms=0.0, max_queue=1,
                       timeout_ms=200.0, observe=False)
        app.registry.add_transform("default", transform)
        gate = threading.Event()
        real_encode = app.batcher._encode

        def slow_encode(*a, **kw):
            gate.wait(5.0)
            return real_encode(*a, **kw)

        app.batcher._encode = slow_encode
        with _Server(app) as srv:
            def encode(j):
                return srv.request(
                    "POST", "/v1/encode",
                    {"column": [float(v) for v in data[:, j % N]]},
                    timeout=30)

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(encode, j) for j in range(8)]
                time.sleep(0.3)
                gate.set()
                statuses = [f.result()[0] for f in futures]
                rejected = [f.result() for f in futures
                            if f.result()[0] == 429]
            assert any(s == 429 for s in statuses), statuses
            for _status, _body, headers in rejected:
                assert headers["Retry-After"] == "1"
