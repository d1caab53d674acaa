"""Async micro-batcher: coalesce single-column encodes into Batch-OMP.

Batch-OMP's economics (paper Fig. 2) come from amortising ``G = DᵀD``
and the ``DᵀA`` product across many columns — economics a naive
request-per-call server throws away.  The batcher restores them on the
request path:

* requests enqueue into a bounded queue; a full queue answers **429**
  with ``Retry-After`` (backpressure) instead of building unbounded
  latency;
* a collector loop drains the queue, waiting at most ``max_wait_ms``
  after the first request and closing a batch at ``max_batch`` columns;
* each batch groups by ``(tenant, generation, eps, max_atoms)``, stacks
  the columns and runs **one**
  :func:`~repro.linalg.parallel_omp.encode_columns` call per group on
  an executor thread (numpy releases the GIL, so the event loop keeps
  accepting work while a batch encodes — arrivals during an encode
  coalesce naturally into the next, larger batch);
* requests whose deadline passed while queued are answered **504**
  without being encoded — enforced both at dispatch (cheap skip) and on
  the awaiting side (``asyncio.wait_for``), so the 504 arrives at the
  deadline even when the collector is stuck behind a slow batch.

Because the encode panels are fixed-width (see
:data:`~repro.linalg.omp.ENCODE_BLOCK_COLS`), a column's coefficients
are bit-identical however it was batched — coalescing is purely a
latency/throughput decision, never a correctness one.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.core.cost_model import CostModel
from repro.linalg.omp import ENCODE_BLOCK_COLS
from repro.linalg.parallel_omp import encode_columns
from repro.serve.protocol import EncodeRequest, EncodeResult, ServeError
from repro.serve.registry import DictionaryRegistry, Generation

__all__ = ["MicroBatcher"]

#: Ceiling on columns per coalesced Batch-OMP call.  One fixed-width
#: compute panel (ENCODE_BLOCK_COLS) is the natural upper bound: beyond
#: it a second GEMM panel starts and the marginal amortisation is zero.
MAX_BATCH_LIMIT = ENCODE_BLOCK_COLS


def _max_batch_limit() -> int:
    """The panel width, read at construction time so the clamp tracks
    :data:`~repro.linalg.omp.ENCODE_BLOCK_COLS` rather than a copy."""
    from repro.linalg import omp

    return int(omp.ENCODE_BLOCK_COLS)


@dataclass
class _Pending:
    """One queued encode request plus its completion future."""

    request: EncodeRequest
    generation: Generation
    eps: float
    max_atoms: int | None
    deadline: float          # event-loop clock
    enqueued: float
    future: asyncio.Future


class MicroBatcher:
    """Coalesce concurrent encode requests into shared-``G`` batches.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.DictionaryRegistry` requests
        resolve against.  Resolution happens at submit time: requests
        already queued keep the generation they resolved, requests
        arriving after a hot-swap see the new default.
    max_batch:
        Largest coalesced batch (clamped to one compute panel).
    max_wait_ms:
        How long the collector holds an open batch for stragglers after
        the first request arrives.  ``0`` disables coalescing.
    max_queue:
        Bound on queued requests, at least 1; beyond it submissions
        fail with 429.
    timeout_ms:
        Default per-request deadline (a request's own ``timeout_ms``
        overrides it).
    cost_model:
        Optional :class:`~repro.core.cost_model.CostModel` for per-
        tenant Eq. 2/3 cost accounting (folded into the metrics
        registry and served at ``GET /v1/metrics``).
    """

    def __init__(self, registry: DictionaryRegistry, *,
                 max_batch: int = 64, max_wait_ms: float = 2.0,
                 max_queue: int = 512, timeout_ms: float = 1000.0,
                 cost_model: CostModel | None = None) -> None:
        if max_batch < 1:
            raise ServeError(400, f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            # asyncio.Queue(maxsize=0) is unbounded: nothing would be shed.
            raise ServeError(400, f"max_queue must be >= 1, got {max_queue}")
        self.registry = registry
        self.max_batch = min(int(max_batch), _max_batch_limit())
        self.max_wait = max(float(max_wait_ms), 0.0) / 1e3
        self.max_queue = int(max_queue)
        self.timeout = max(float(timeout_ms), 1.0) / 1e3
        self.cost_model = cost_model
        self._queue: asyncio.Queue[_Pending] | None = None
        self._task: asyncio.Task | None = None
        # one encode thread: keeps batches strictly ordered and lets
        # the unbatched configuration exhibit honest queueing delay
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-encode")
        self.batches = 0
        self.coalesced_batches = 0
        self.encoded_columns = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the queue and start the collector loop."""
        if self._task is not None:
            return
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the collector and fail whatever is still queued.

        Also drops the queue reference so late :meth:`submit` calls get
        an immediate 503 instead of enqueuing into a queue nothing will
        ever drain (a hang bounded only by the caller's own timeout).
        """
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        while self._queue is not None and not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(
                    ServeError(503, "server shutting down"))
        self._queue = None
        self._executor.shutdown(wait=False)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be batched."""
        return 0 if self._queue is None else self._queue.qsize()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, request: EncodeRequest) -> EncodeResult:
        """Enqueue one request and await its sparse code.

        Raises :class:`ServeError` — 404 (unknown tenant/generation),
        400 (shape mismatch), 429 (queue full), 504 (deadline).
        """
        if self._queue is None:
            raise ServeError(503, "batcher is not running")
        generation = self.registry.resolve(request.tenant,
                                           request.generation)
        transform = generation.transform
        if request.column.size != transform.m:
            raise ServeError(
                400, f"column has {request.column.size} entries, tenant "
                     f"{request.tenant!r} dictionary has M={transform.m}")
        eps = transform.eps if request.eps is None else request.eps
        timeout = (self.timeout if request.timeout_ms is None
                   else request.timeout_ms / 1e3)
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request, generation=generation, eps=eps,
            max_atoms=request.max_atoms,
            deadline=loop.time() + timeout, enqueued=loop.time(),
            future=loop.create_future())
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            obs.inc("serve.rejected_full")
            raise ServeError(
                429, f"encode queue is full ({self.max_queue} waiting); "
                     f"retry later",
                retry_after=max(self.timeout, 2 * self.max_wait)) from None
        obs.inc("serve.requests")
        # Enforce the deadline on the awaiting side too: the dispatch-
        # time check only fires when the collector reaches the request,
        # so a request stuck behind a slow batch would otherwise wait
        # arbitrarily long past its deadline.  ``wait_for`` cancels the
        # future on timeout, which the collector's ``future.done()``
        # guards treat as "skip".
        try:
            return await asyncio.wait_for(pending.future, timeout)
        except asyncio.TimeoutError:
            obs.inc("serve.deadline_exceeded")
            raise ServeError(
                504, "request deadline exceeded while queued") from None

    # ------------------------------------------------------------------
    # the collector loop
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            close_at = loop.time() + self.max_wait
            while len(batch) < self.max_batch:
                remaining = close_at - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(
                        self._queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            await self._dispatch(batch, loop)

    async def _dispatch(self, batch: list[_Pending], loop) -> None:
        now = loop.time()
        live: dict[tuple, list[_Pending]] = {}
        for pending in batch:
            if pending.future.done():
                continue
            if now > pending.deadline:
                obs.inc("serve.deadline_exceeded")
                pending.future.set_exception(ServeError(
                    504, "request deadline exceeded while queued"))
                continue
            key = (pending.request.tenant, pending.generation.number,
                   pending.eps, pending.max_atoms)
            live.setdefault(key, []).append(pending)
        for group in live.values():
            await self._encode_group(group, loop)

    async def _encode_group(self, group: list[_Pending], loop) -> None:
        generation = group[0].generation
        eps = group[0].eps
        max_atoms = group[0].max_atoms
        columns = np.stack([p.request.column for p in group], axis=1)
        try:
            with obs.span("serve.batch_encode"):
                results, stats = await loop.run_in_executor(
                    self._executor, self._encode, generation, columns,
                    eps, max_atoms)
        except ServeError as exc:
            for pending in group:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        except Exception as exc:  # noqa: BLE001 - fail the requests, not the loop
            obs.inc("serve.encode_errors")
            for pending in group:
                if not pending.future.done():
                    pending.future.set_exception(ServeError(
                        500, f"encode failed: {exc}"))
            return
        self.batches += 1
        self.encoded_columns += len(group)
        if len(group) > 1:
            self.coalesced_batches += 1
            obs.inc("serve.coalesced_batches")
        obs.inc("serve.batches")
        obs.observe("serve.batch_size", len(group))
        self._account(group, results, loop)
        for pending, (support, coef, converged) in zip(group, results):
            if pending.future.done():
                continue
            pending.future.set_result(EncodeResult(
                support=support, coefficients=coef, converged=converged,
                generation=generation.number, batch_size=len(group),
                eps=eps))

    def _encode(self, generation: Generation, columns: np.ndarray,
                eps: float, max_atoms: int | None):
        """Executor-side body: one shared-``G`` Batch-OMP call.

        The Gram matrix travels through the process-wide
        :data:`~repro.linalg.parallel_omp.GRAM_CACHE` (warmed at load,
        keyed on the generation's atoms array), so the request path
        never recomputes ``DᵀD``.  The dictionary is passed as an
        operator: a factored generation computes the ``DᵀA`` precompute
        through its factor chain at ``O(transform_nnz)`` per column.
        """
        return encode_columns(generation.transform.dictionary,
                              columns, eps, max_atoms=max_atoms)

    def _account(self, group: list[_Pending], results, loop) -> None:
        """Per-tenant request metrics + Eq. 2/3 cost accounting.

        Every served column is billed one Gram-update at the
        generation's ``(M, L)`` and the column's own ``nnz`` — the
        Eq. 2 (time) and Eq. 3 (energy) FLOP-equivalents a downstream
        learning iteration over this column would cost on the
        configured platform.  Totals land in per-tenant counters and
        surface at ``GET /v1/metrics``.
        """
        now = loop.time()
        for pending, (support, _coef, _ok) in zip(group, results):
            tenant = pending.request.tenant
            t = pending.generation.transform
            obs.inc(f"serve.tenant.{tenant}.columns")
            obs.inc(f"serve.tenant.{tenant}.nnz", int(support.size))
            obs.observe("serve.latency_ms", (now - pending.enqueued) * 1e3)
            if self.cost_model is not None:
                obs.inc(f"serve.tenant.{tenant}.eq2_flops",
                        self.cost_model.time(t.m, t.l, int(support.size)))
                obs.inc(f"serve.tenant.{tenant}.eq3_flops",
                        self.cost_model.energy(t.m, t.l, int(support.size)))
