"""The long-lived encode service: asyncio HTTP/1.1 on stdlib only.

No web framework ships in the reproduction's dependency set, so the
app speaks a deliberately small slice of HTTP/1.1 over
``asyncio.start_server``: request line + headers + ``Content-Length``
bodies, JSON in / JSON out, keep-alive connections.  That slice is all
the service needs and keeps the whole daemon dependency-free.

Endpoints
---------
``GET  /healthz``                liveness + uptime + queue depth
``GET  /v1/dictionaries``        tenants, generations, defaults
``POST /v1/dictionaries``        load a transform as a new generation
``POST /v1/dictionaries/default``  atomic default hot-swap
``POST /v1/encode``              sparse-code one column (micro-batched)
``POST /v1/reconstruct``         ``D[:, support] @ coefficients``
``POST /v1/pca``                 top-k eigenvalues via the transform
``GET  /v1/metrics``             unified RunReport + serving meta

Backpressure and deadlines are the batcher's (429 + ``Retry-After``
in whole seconds, at least 1; 504); every other failure maps through
:class:`~repro.serve.protocol.ServeError`.  A request line that is not
``METHOD TARGET VERSION`` or a ``Content-Length`` that is not a decimal
integer is answered 400, a body above :data:`MAX_BODY_BYTES` 413 and a
header block above :data:`MAX_HEADER_BYTES` 431; each of these answers
closes the connection without reading further.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

import numpy as np

from repro import observability as obs
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import ServeError, parse_encode_request, parse_vector
from repro.serve.registry import DictionaryRegistry

__all__ = ["ServeApp"]

MAX_BODY_BYTES = 64 * 2**20
MAX_HEADER_BYTES = 64 * 2**10

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class ServeApp:
    """One serving daemon: registry + micro-batcher + HTTP front."""

    def __init__(self, registry: DictionaryRegistry | None = None, *,
                 batcher: MicroBatcher | None = None,
                 default_tenant: str = "default",
                 observe: bool = True,
                 **batcher_kwargs) -> None:
        self.observe = observe
        self.registry = registry if registry is not None \
            else DictionaryRegistry()
        self.batcher = batcher if batcher is not None \
            else MicroBatcher(self.registry, **batcher_kwargs)
        self.default_tenant = default_tenant
        self.started_at = time.time()
        self._server: asyncio.AbstractServer | None = None
        self._routes = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/v1/dictionaries"): self._dictionaries,
            ("POST", "/v1/dictionaries"): self._load_dictionary,
            ("POST", "/v1/dictionaries/default"): self._swap_default,
            ("POST", "/v1/encode"): self._encode,
            ("POST", "/v1/reconstruct"): self._reconstruct,
            ("POST", "/v1/pca"): self._pca,
            ("GET", "/v1/metrics"): self._metrics,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Start the batcher and the listener; returns ``(host, port)``.

        Switches the observability layer on (unless ``observe=False``)
        so the serving counters behind ``GET /v1/metrics`` accumulate
        for the daemon's lifetime.
        """
        if self.observe:
            obs.enable()
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_HEADER_BYTES)
        sock = self._server.sockets[0].getsockname()
        self.started_at = time.time()
        return sock[0], sock[1]

    async def stop(self) -> None:
        """Stop accepting, then drain the batcher."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()

    async def run_forever(self, host: str, port: int) -> None:
        """CLI entry: start and serve until cancelled."""
        await self.start(host, port)
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServeError as exc:
                    # The body was left unread, so the stream cannot
                    # carry another request: answer and close.
                    obs.inc(f"serve.errors.{exc.status}")
                    self._write_response(writer, exc.status,
                                         {"error": exc.message}, {}, False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, extra = await self._route(method, path, body)
                self._write_response(writer, status, payload, extra,
                                     keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            # The stream's limit is MAX_HEADER_BYTES (see start()).
            raise ServeError(431, f"header block exceeds the "
                                  f"{MAX_HEADER_BYTES}-byte limit") from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ServeError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise ServeError(400, f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ServeError(413, f"body of {length} bytes exceeds the "
                                  f"{MAX_BODY_BYTES}-byte limit")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    def _write_response(self, writer, status: int, payload: dict,
                        extra_headers: dict, keep_alive: bool) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers += [f"{k}: {v}" for k, v in extra_headers.items()]
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
                     + body)

    async def _route(self, method: str, path: str, body: bytes):
        handler = self._routes.get((method, path))
        if handler is None:
            known_paths = {p for _m, p in self._routes}
            status = 405 if path in known_paths else 404
            return status, {"error": f"no route {method} {path}"}, {}
        parsed: dict = {}
        if body:
            try:
                parsed = json.loads(body)
            except json.JSONDecodeError as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}, {}
        try:
            with obs.span(f"serve.http{path.replace('/', '.')}"):
                payload = await handler(parsed)
            return 200, payload, {}
        except ServeError as exc:
            extra = {}
            if exc.retry_after is not None:
                # Whole seconds, rounded up: "0" would invite an
                # immediate retry.
                extra["Retry-After"] = str(max(math.ceil(exc.retry_after),
                                               1))
            obs.inc(f"serve.errors.{exc.status}")
            return exc.status, {"error": exc.message}, extra
        except Exception as exc:  # noqa: BLE001 - keep the daemon alive
            obs.inc("serve.errors.500")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    async def _healthz(self, _body: dict) -> dict:
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started_at,
            "tenants": self.registry.tenants(),
            "queue_depth": self.batcher.queue_depth,
        }

    async def _dictionaries(self, _body: dict) -> dict:
        return self.registry.describe()

    async def _load_dictionary(self, body: dict) -> dict:
        tenant = body.get("tenant", self.default_tenant)
        path = body.get("path")
        if not isinstance(path, str) or not path:
            raise ServeError(400, "path must be a transform .npz path")
        set_default = bool(body.get("set_default", True))
        from repro.errors import ValidationError
        try:
            gen = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.registry.load(
                    tenant, path, set_default=set_default))
        except ValidationError as exc:
            raise ServeError(400, f"cannot load {path}: {exc}") from exc
        return {"tenant": tenant, "generation": gen.number,
                "default": set_default}

    async def _swap_default(self, body: dict) -> dict:
        tenant = body.get("tenant", self.default_tenant)
        generation = body.get("generation")
        if isinstance(generation, bool) or not isinstance(generation, int):
            raise ServeError(400, "generation must be an integer")
        gen = self.registry.set_default(tenant, generation)
        return {"tenant": tenant, "default_generation": gen.number}

    async def _encode(self, body: dict) -> dict:
        request = parse_encode_request(
            body, default_tenant=self.default_tenant)
        result = await self.batcher.submit(request)
        return result.to_dict()

    async def _reconstruct(self, body: dict) -> dict:
        if not isinstance(body, dict):
            raise ServeError(400, "request body must be a JSON object")
        tenant = body.get("tenant", self.default_tenant)
        gen = self.registry.resolve(tenant, body.get("generation"))
        atoms = gen.transform.dictionary.atoms
        support = body.get("support")
        if not isinstance(support, (list, tuple)):
            raise ServeError(400, "support must be a JSON array of ints")
        try:
            idx = np.asarray(support, dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise ServeError(400, f"support is not integer: {exc}") from exc
        if idx.ndim != 1 or (idx.size and (idx.min() < 0
                                           or idx.max() >= atoms.shape[1])):
            raise ServeError(
                400, f"support indices must lie in [0, {atoms.shape[1]})")
        coef = parse_vector(body.get("coefficients"), "coefficients",
                            m=int(idx.size))
        column = atoms[:, idx] @ coef if idx.size \
            else np.zeros(atoms.shape[0])
        obs.inc(f"serve.tenant.{tenant}.reconstructs")
        return {"column": [float(v) for v in column],
                "generation": gen.number}

    async def _pca(self, body: dict) -> dict:
        if not isinstance(body, dict):
            raise ServeError(400, "request body must be a JSON object")
        tenant = body.get("tenant", self.default_tenant)
        gen = self.registry.resolve(tenant, body.get("generation"))
        k = body.get("k", 5)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ServeError(400, f"k must be a positive integer, got {k!r}")
        transform = gen.transform
        if k > transform.n:
            raise ServeError(
                400, f"k={k} exceeds the transform's N={transform.n}")

        def _run():
            from repro.core.gram import TransformedGramOperator
            from repro.linalg.power_iteration import top_eigenpairs
            op = TransformedGramOperator(transform)
            values, _vectors, iterations = top_eigenpairs(
                op, transform.n, k)
            return values, iterations, op.flops

        with obs.span("serve.pca"):
            values, iterations, flops = \
                await asyncio.get_running_loop().run_in_executor(None, _run)
        obs.inc(f"serve.tenant.{tenant}.pca_requests")
        obs.inc(f"serve.tenant.{tenant}.pca_flops", flops)
        return {"eigenvalues": [float(v) for v in values],
                "iterations": int(iterations),
                "generation": gen.number,
                "k": int(len(values))}

    async def _metrics(self, _body: dict) -> dict:
        meta = {
            "uptime_s": time.time() - self.started_at,
            "tenants": len(self.registry.tenants()),
            "queue_depth": self.batcher.queue_depth,
            "batches": self.batcher.batches,
            "coalesced_batches": self.batcher.coalesced_batches,
            "encoded_columns": self.batcher.encoded_columns,
            "max_batch": self.batcher.max_batch,
            "max_wait_ms": self.batcher.max_wait * 1e3,
        }
        report = obs.collect_report(command="serve", meta=meta)
        return report.to_dict()
