"""Multiprocess SPMD backend: real parallelism behind the same API.

Architecture — *control plane in the parent, data plane in shared
memory*:

* each rank's program runs in a forked **worker process** (its own GIL,
  its own BLAS threads);
* the authoritative :class:`~repro.mpi.world.World` — mailboxes,
  collective slots, traffic ledger, virtual clocks, deadlock detector —
  lives in the **parent**, exactly as on the thread backend.  A per-rank
  **proxy thread** in the parent owns a real
  :class:`~repro.mpi.communicator.Communicator` and replays the worker's
  communication calls against it, so word counts, α-β clock charges and
  failure semantics are *by construction* identical across backends;
* workers talk to their proxies over duplex pipes; ndarray payloads at
  or above the :func:`~repro.mpi.shm.shm_threshold_bytes` cutover ride
  named shared-memory segments instead of the pipe (see
  :mod:`repro.mpi.shm`).

The proxies decode shared-memory descriptors back into real arrays
*before* invoking the communicator, and re-encode results on the way
out — the accounting layer only ever sees genuine payloads.

User-supplied reduction callables cannot cross the pipe by pickle
(closures), so they stay in the worker and the proxy invokes them
through a callback round-trip on the same pipe: the worker is always
parked in its reply loop while a call is in flight, so it can service
the callback before the reply arrives.
"""

from __future__ import annotations

import contextvars
import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import DeadlockError, MPIEmulatorError, portable_exc
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, deserialize
from repro.mpi.request import Request
from repro.mpi.shm import (
    SegmentRegistry,
    decode_payload,
    encode_payload,
    sweep_orphans,
)
from repro.mpi.world import ABORT_GRACE_CAP, World

__all__ = ["ProcessCommunicator", "run_process_ranks"]

#: Monotone run counter, making segment-name prefixes unique per run
#: even within one parent process.
_RUN_IDS = itertools.count()


@dataclass(frozen=True)
class _CommHandle:
    """Wire representation of a communicator created parent-side."""

    handle: int
    rank: int
    size: int


@dataclass(frozen=True)
class _CallableRef:
    """Wire marker for a worker-side callable (custom reduction op)."""

    cid: int


class _RemoteOp:
    """Parent-side stand-in invoking a worker callable via callback."""

    def __init__(self, link, cid: int) -> None:
        self._link = link
        self._cid = cid

    def __call__(self, a, b):
        return self._link.callback(self._cid, (a, b))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerLink:
    """The worker's end of the RPC pipe (plus shm bookkeeping)."""

    def __init__(self, conn, prefix: str, rank: int) -> None:
        self.conn = conn
        self._prefix = prefix
        self._rank = rank
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self.pins: list = []          # segments backing zero-copy views
        self.callables: dict[int, object] = {}
        self._next_cid = itertools.count()

    def _namer(self) -> str:
        return f"{self._prefix}w{self._rank}n{next(self._seq)}"

    def encode(self, value):
        return encode_payload(value, self._namer)

    def register_callable(self, fn) -> _CallableRef:
        cid = next(self._next_cid)
        self.callables[cid] = fn
        return _CallableRef(cid)

    def call(self, handle: int, method: str, args: tuple,
             kwargs: dict | None = None):
        """One synchronous RPC, servicing callbacks while waiting."""
        with self._lock:
            self.conn.send(("call", handle, method, self.encode(args),
                            self.encode(kwargs or {})))
            while True:
                reply = self.conn.recv()
                if reply[0] != "cb":
                    break
                _, cid, blob = reply
                try:
                    value = self.callables[cid](*decode_payload(blob))
                    self.conn.send(("cbr", self.encode(value)))
                except BaseException as exc:  # noqa: BLE001 - shipped back
                    self.conn.send(("cbe", portable_exc(exc)))
        if reply[0] == "ok":
            # Zero-copy map: results are views pinned until worker exit.
            return decode_payload(reply[1], pin=self.pins)
        _, kind, exc = reply
        if kind == "abort":
            try:
                exc._repro_remote = "abort"
            except Exception:  # noqa: BLE001 - exotic exception type
                pass
        raise exc

    def send_terminal(self, message) -> None:
        with self._lock:
            self.conn.send(message)

    def close(self) -> None:
        for seg in self.pins:
            try:
                seg.close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        self.pins.clear()
        try:
            self.conn.close()
        except OSError:
            pass


class _RemoteClock:
    """Read-only view of this rank's parent-side virtual clock."""

    def __init__(self, comm: "ProcessCommunicator") -> None:
        object.__setattr__(self, "_comm", comm)

    def __getattr__(self, name: str):
        return self._comm._call("_clock_attr", name)


class _RemoteTraffic:
    """Method-forwarding view of the parent-side traffic ledger."""

    def __init__(self, comm: "ProcessCommunicator") -> None:
        self._comm = comm

    def snapshot(self):
        return self._comm._call("_traffic_call", "snapshot")

    def total_payload_words(self, *ops):
        return self._comm._call("_traffic_call", "total_payload_words", *ops)

    def total_wire_words(self, *ops):
        return self._comm._call("_traffic_call", "total_wire_words", *ops)

    def calls(self, op):
        return self._comm._call("_traffic_call", "calls", op)


class ProcessCommunicator:
    """Worker-side endpoint mirroring :class:`Communicator`'s API.

    Every communication/accounting call is replayed by this rank's
    parent proxy on a real communicator; buffer-filling convenience
    methods (``Recv``/``Bcast``/``Reduce``/...) are composed locally
    from the object-returning calls, exactly as the thread backend's
    implementations compose them.
    """

    def __init__(self, link: _WorkerLink, handle: int, rank: int,
                 size: int) -> None:
        self._link = link
        self._handle = handle
        self.rank = rank
        self.size = size

    def _call(self, method: str, *args, **kwargs):
        return self._link.call(self._handle, method, args, kwargs)

    def _wrap(self, result):
        if isinstance(result, _CommHandle):
            return ProcessCommunicator(self._link, result.handle,
                                       result.rank, result.size)
        return result

    # accessors --------------------------------------------------------
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    @property
    def clock(self):
        return _RemoteClock(self)

    @property
    def traffic(self):
        return _RemoteTraffic(self)

    def charge_flops(self, flops) -> None:
        self._call("charge_flops", flops)

    # point-to-point ---------------------------------------------------
    def send(self, obj, dest: int, tag: int = 0) -> None:
        self._call("send", obj, dest, tag)

    def Send(self, buf, dest: int, tag: int = 0) -> None:
        self._call("Send", np.ascontiguousarray(buf), dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        return self._call("recv", source, tag)

    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> None:
        out = np.asarray(buf)
        payload = np.asarray(self._call("_recv_payload", source, tag))
        if payload.size > out.size:
            raise MPIEmulatorError(
                f"receive buffer too small: {out.size} < {payload.size}")
        flat = out.reshape(-1)
        flat[:payload.size] = payload.reshape(-1)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        return self._call("probe", source, tag)

    Iprobe = probe

    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request(kind="send", complete_fn=lambda: None,
                       poll_fn=lambda: (True, None))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return Request(kind="recv",
                       complete_fn=lambda: self.recv(source, tag),
                       poll_fn=lambda: self._call("_poll_recv", source, tag))

    def sendrecv(self, obj, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG):
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    # collectives ------------------------------------------------------
    def barrier(self) -> None:
        self._call("barrier")

    Barrier = barrier

    def bcast(self, obj, root: int = 0):
        return self._call("bcast", obj, root)

    def Bcast(self, buf, root: int = 0) -> None:
        arr = np.asarray(buf)
        payload = np.ascontiguousarray(arr).copy() \
            if self.rank == root else None
        data = self._call("_bcast_value", payload, root)
        if self.rank != root:
            src = np.asarray(data)
            if src.size != arr.size:
                raise MPIEmulatorError(
                    f"Bcast buffer mismatch: {arr.size} != {src.size}")
            arr.reshape(-1)[:] = src.reshape(-1)

    def _op_arg(self, op):
        return self._link.register_callable(op) if callable(op) else op

    def reduce(self, value, op="sum", root: int = 0):
        return self._call("reduce", value, self._op_arg(op), root)

    def allreduce(self, value, op="sum"):
        return self._call("allreduce", value, self._op_arg(op))

    def reduce_scatter(self, values, op="sum"):
        return self._call("reduce_scatter", list(values), self._op_arg(op))

    def Reduce(self, sendbuf, recvbuf, op="sum", root: int = 0) -> None:
        result = self.reduce(np.asarray(sendbuf), op=op, root=root)
        if self.rank == root:
            out = np.asarray(recvbuf)
            out.reshape(-1)[:] = np.asarray(result).reshape(-1)

    def Allreduce(self, sendbuf, recvbuf, op="sum") -> None:
        result = self.allreduce(np.asarray(sendbuf), op=op)
        out = np.asarray(recvbuf)
        out.reshape(-1)[:] = np.asarray(result).reshape(-1)

    def gather(self, value, root: int = 0):
        return self._call("gather", value, root)

    def allgather(self, value):
        return self._call("allgather", value)

    def Gather(self, sendbuf, recvbuf, root: int = 0) -> None:
        parts = self.gather(np.ascontiguousarray(sendbuf), root=root)
        if self.rank == root:
            out = np.asarray(recvbuf)
            stacked = np.stack([np.asarray(p) for p in parts])
            out.reshape(stacked.shape)[:] = stacked

    def Allgather(self, sendbuf, recvbuf) -> None:
        parts = self.allgather(np.ascontiguousarray(sendbuf))
        out = np.asarray(recvbuf)
        stacked = np.stack([np.asarray(p) for p in parts])
        out.reshape(stacked.shape)[:] = stacked

    def scatter(self, values, root: int = 0):
        values = None if values is None else list(values)
        return self._call("scatter", values, root)

    def Scatter(self, sendbuf, recvbuf, root: int = 0) -> None:
        values = None
        if self.rank == root:
            arr = np.asarray(sendbuf)
            values = [np.ascontiguousarray(arr[r]) for r in range(self.size)]
        part = self.scatter(values, root=root)
        out = np.asarray(recvbuf)
        out.reshape(-1)[:] = np.asarray(part).reshape(-1)

    def alltoall(self, values):
        return self._call("alltoall", list(values))

    # communicator management ------------------------------------------
    def Split(self, color: int, key: int = 0):
        return self._wrap(self._call("Split", int(color), int(key)))

    def Dup(self) -> "ProcessCommunicator":
        return self._wrap(self._call("Dup"))


def _worker_main(conn, prefix: str, rank: int, size: int, fn, args,
                 kwargs, observed: bool) -> None:
    """Entry point of one forked rank process."""
    from repro import observability as obs

    if observed:
        # The tables are this rank's private copy from the fork; empty
        # them so what the parent merges is this rank's telemetry alone.
        obs.REGISTRY.reset()
        obs.SPANS.reset()
    link = _WorkerLink(conn, prefix, rank)
    comm = ProcessCommunicator(link, 0, rank, size)
    try:
        try:
            # A fresh context starts the rank at the root span path, as
            # a rank thread starts, not inside the span open at the fork.
            ret = contextvars.Context().run(fn, comm, *args, **kwargs)
        except DeadlockError as exc:
            link.send_terminal(("deadlock", portable_exc(exc)))
        except MPIEmulatorError as exc:
            if getattr(exc, "_repro_remote", None) == "abort":
                link.send_terminal(("aborted",))
            else:
                link.send_terminal(("failed", portable_exc(exc)))
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            link.send_terminal(("failed", portable_exc(exc)))
        else:
            try:
                payload = link.encode(ret)
            except Exception as exc:  # noqa: BLE001 - unpicklable return
                link.send_terminal(("failed", RuntimeError(
                    f"rank {rank} return value could not be "
                    f"transferred: {exc}")))
            else:
                telemetry = (obs.REGISTRY.snapshot(), obs.SPANS.snapshot()) \
                    if observed else None
                link.send_terminal(("finished", payload, telemetry))
    except (BrokenPipeError, OSError):
        pass  # parent is gone; nothing left to report to
    finally:
        link.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _ParentLink:
    """One rank's proxy-side pipe end plus shm bookkeeping."""

    def __init__(self, conn, prefix: str, rank: int,
                 registry: SegmentRegistry) -> None:
        self.conn = conn
        self.rank = rank
        self.registry = registry
        self._prefix = prefix
        self._seq = itertools.count()

    def _namer(self) -> str:
        name = f"{self._prefix}p{self.rank}n{next(self._seq)}"
        self.registry.add(name)
        return name

    def encode(self, value):
        return encode_payload(value, self._namer)

    def decode(self, value):
        return decode_payload(value, on_name=self.registry.discard)

    def callback(self, cid: int, cb_args: tuple):
        """Invoke a worker-side callable (the worker is in its reply
        loop while its call is in flight, so it can service this)."""
        self.conn.send(("cb", cid, self.encode(cb_args)))
        reply = self.conn.recv()
        if reply[0] == "cbr":
            return self.decode(reply[1])
        raise reply[1]


def _dispatch(world: World, comms: dict, link: _ParentLink, handle: int,
              method: str, args: tuple, kwargs: dict, handle_seq):
    """Execute one worker RPC against the real communicator."""
    comm = comms.get(handle)
    if comm is None:
        raise MPIEmulatorError(f"unknown communicator handle {handle}")
    if method == "_recv_payload":
        msg = comm._do_recv(*args)
        return msg.payload if msg.is_buffer else deserialize(msg.payload)
    if method == "_poll_recv":
        source, tag = args
        wsource = comm._source_filter(source)
        with world.cond:
            world.check_abort()
            key = world.find_message(comm.world_rank, wsource,
                                     comm.comm_id, tag)
            if key is None:
                return (False, None)
            msg = world.pop_message(key)
            comm.clock.synchronize_to(msg.arrival_time)
            value = msg.payload if msg.is_buffer \
                else deserialize(msg.payload)
            return (True, value)
    if method == "_bcast_value":
        payload, root = args
        # Same rendezvous/accounting as bcast; the worker fills its own
        # buffer from the returned value.
        return comm.bcast(payload, root=root)
    if method == "_clock_attr":
        value = getattr(world.clocks[comm.world_rank], args[0])
        if callable(value):
            raise MPIEmulatorError(
                f"clock method {args[0]!r} is not available through the "
                f"process backend; read plain attributes instead")
        return value
    if method == "_traffic_call":
        return getattr(world.traffic, args[0])(*args[1:])
    if method not in _ALLOWED_METHODS:
        raise MPIEmulatorError(
            f"method {method!r} is not part of the process-backend "
            f"communicator protocol")
    args = tuple(_RemoteOp(link, a.cid) if isinstance(a, _CallableRef)
                 else a for a in args)
    kwargs = {k: _RemoteOp(link, v.cid) if isinstance(v, _CallableRef)
              else v for k, v in kwargs.items()}
    result = getattr(comm, method)(*args, **kwargs)
    if isinstance(result, Communicator):
        new = next(handle_seq)
        comms[new] = result
        return _CommHandle(new, result.rank, result.size)
    return result


_ALLOWED_METHODS = frozenset({
    "send", "Send", "recv", "probe", "barrier", "bcast", "reduce",
    "allreduce", "reduce_scatter", "gather", "allgather", "scatter",
    "alltoall", "Split", "Dup", "charge_flops",
})


@dataclass
class _RankChannel:
    rank: int
    proc: multiprocessing.Process
    link: _ParentLink
    done: bool = False


def _proxy_loop(world: World, chan: _RankChannel, returns: list,
                deadlock: list) -> None:
    """Parent thread replaying one worker's calls on a real comm."""
    from repro import observability as obs

    rank, conn, link = chan.rank, chan.link.conn, chan.link
    comms: dict[int, Communicator] = {0: Communicator(world, rank)}
    handle_seq = itertools.count(1)

    def worker_died() -> None:
        # Terminal-message-free disappearance.  After an abort this is
        # expected teardown (the runtime reaps stragglers); before one
        # it is a genuine failure that must wake every blocked rank.
        with world.cond:
            aborted = world.abort_exc is not None
        if not aborted:
            code = chan.proc.exitcode
            world.rank_failed(rank, MPIEmulatorError(
                f"rank {rank} worker process died unexpectedly "
                f"(exit code {code})"))
        world.rank_finished()

    try:
        while True:
            try:
                if not conn.poll(0.05):
                    if chan.proc.is_alive():
                        continue
                    if conn.poll(0):  # close the died-after-send race
                        continue
                    worker_died()
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                worker_died()
                return
            kind = msg[0]
            if kind == "call":
                _, handle, method, eargs, ekwargs = msg
                try:
                    result = _dispatch(world, comms, link, handle, method,
                                       link.decode(eargs),
                                       link.decode(ekwargs), handle_seq)
                    reply = ("ok", link.encode(result))
                except DeadlockError as exc:
                    reply = ("err", "deadlock", portable_exc(exc))
                except MPIEmulatorError as exc:
                    tag = "abort" if exc is world.abort_exc else "error"
                    reply = ("err", tag, portable_exc(exc))
                except BaseException as exc:  # noqa: BLE001 - shipped back
                    reply = ("err", "error", portable_exc(exc))
                try:
                    conn.send(reply)
                except (OSError, ValueError):
                    worker_died()
                    return
            elif kind == "finished":
                _, payload, telemetry = msg
                try:
                    returns[rank] = link.decode(payload)
                except Exception as exc:  # noqa: BLE001 - corrupt segment
                    world.rank_failed(rank, exc)
                if telemetry is not None:
                    metrics, spans = telemetry
                    obs.REGISTRY.merge(metrics)
                    obs.SPANS.merge(spans)
                world.rank_finished()
                return
            elif kind == "deadlock":
                deadlock.append(msg[1])
                world.rank_finished()
                return
            elif kind == "failed":
                world.rank_failed(rank, msg[1])
                world.rank_finished()
                return
            elif kind == "aborted":
                world.rank_finished()
                return
    finally:
        chan.done = True


def run_process_ranks(world: World, fn, args, kwargs, returns: list,
                      deadlock: list) -> None:
    """Run ``fn`` on forked rank processes against the parent world.

    Populates ``returns``/``deadlock`` exactly as the thread runner
    does; failure and deadlock state lands in ``world``.  Guarantees
    teardown: once the world aborts, stragglers get a bounded grace
    period (min of the world timeout and :data:`ABORT_GRACE_CAP`) and
    are then terminated and reaped; every shared-memory segment the run
    created is unlinked before returning.
    """
    from repro import observability as obs

    size = world.size
    ctx = multiprocessing.get_context("fork")
    prefix = f"repro-mpi-{os.getpid()}-{next(_RUN_IDS)}-"
    registry = SegmentRegistry()
    observed = obs.enabled()

    channels: list[_RankChannel] = []
    try:
        for rank in range(size):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, prefix, rank, size, fn, args, kwargs,
                      observed),
                name=f"repro-mpi-rank-{rank}", daemon=True)
            proc.start()
            child_conn.close()
            channels.append(_RankChannel(
                rank=rank, proc=proc,
                link=_ParentLink(parent_conn, prefix, rank, registry)))

        proxies = [threading.Thread(target=_proxy_loop,
                                    args=(world, chan, returns, deadlock),
                                    name=f"repro-mpi-proxy-{chan.rank}",
                                    daemon=True)
                   for chan in channels]
        for t in proxies:
            t.start()

        # Join with an abort watchdog: normal runs finish on their own;
        # an aborted world gets a bounded grace before stragglers are
        # terminated (a worker wedged in user code never re-enters the
        # protocol, so waiting longer cannot help).
        grace = min(max(world.timeout, 0.1), ABORT_GRACE_CAP)
        abort_mark = None
        while True:
            alive = [t for t in proxies if t.is_alive()]
            if not alive:
                break
            alive[0].join(timeout=0.05)
            with world.cond:
                aborted = world.abort_exc is not None
            if not aborted:
                abort_mark = None
                continue
            now = time.monotonic()
            if abort_mark is None:
                abort_mark = now
            elif now - abort_mark > grace:
                world.invalidate("aborted world still had live rank "
                                 "processes after the grace period")
                break
    finally:
        stragglers = [c for c in channels if c.proc.is_alive()]
        for chan in stragglers:
            chan.proc.terminate()
        deadline = time.monotonic() + 5.0
        for chan in channels:
            chan.proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if chan.proc.is_alive():
                chan.proc.kill()
                chan.proc.join(timeout=5.0)
        # Terminated workers leave their proxies to observe the dead
        # processes and finish; bound the wait so teardown cannot hang.
        settle = time.monotonic() + 5.0
        while any(not c.done for c in channels) \
                and time.monotonic() < settle:
            time.sleep(0.02)
        for chan in channels:
            try:
                chan.link.conn.close()
            except OSError:
                pass
            try:
                chan.proc.close()
            except ValueError:
                pass  # still alive despite kill; leave it to the OS
        registry.drain()
        sweep_orphans(prefix)
