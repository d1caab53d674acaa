"""Multiprocess SPMD backend: real parallelism behind the same API.

Architecture — *accounting in the parent, every message on one pipe
per rank*:

* each rank's program runs in a forked **worker process** (its own GIL,
  its own BLAS threads);
* the authoritative :class:`~repro.mpi.world.World` — collective
  slots, traffic ledger, virtual clocks, deadlock detector — lives in
  the **parent**, exactly as on the thread backend.  A per-rank **proxy
  thread** in the parent owns a real
  :class:`~repro.mpi.communicator.Communicator` and replays the worker's
  calls against it, so word counts, α-β clock charges and failure
  semantics are *by construction* identical across backends;
* each worker call is one ``("call", method, args)`` RPC to its proxy
  over a duplex pipe, for the five names in :data:`_ALLOWED_METHODS`;
  the arguments, the reply and the rank's return ride that pipe
  pickled.

Everything received is passed through :func:`_reintern` first, so the
accounting layer sees payloads that pickle, and so bill, exactly as on
the thread backend.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.errors import DeadlockError, MPIEmulatorError, portable_exc
from repro.mpi.communicator import Communicator, _resolve_op
from repro.mpi.world import World, join_with_abort_grace

__all__ = ["ProcessCommunicator", "run_process_ranks"]

#: The communicator methods a worker may ask its proxy to run.
_ALLOWED_METHODS = frozenset({
    "charge_flops", "bcast", "reduce", "allreduce", "gather",
})


def _reintern(value):
    """Swap unpickled dtype instances for numpy's interned singletons.

    Unpickling an ndarray rebuilds its dtype as a *fresh* instance, not
    numpy's cached singleton.  That is invisible to computation but not
    to re-pickling: the traffic ledger charges a non-array payload by
    its pickle size, and pickle memoises dtypes by identity — a payload
    whose arrays stopped sharing one ``int64`` instance pickles a few
    bytes larger than the same payload on the thread backend.  Restoring
    the singletons keeps word counts backend-independent.  Arrays inside
    tuples, lists and dicts are reached; the dtypes change in place, so
    ``value`` itself is returned, containers and their types untouched.
    """
    if isinstance(value, np.ndarray):
        try:
            canon = np.dtype(value.dtype.str)
            if canon is not value.dtype and canon == value.dtype:
                value.dtype = canon
        except (TypeError, ValueError):
            pass  # exotic/structured dtypes: equality-sharing not guaranteed
    elif isinstance(value, (tuple, list)):
        for item in value:
            _reintern(item)
    elif isinstance(value, dict):
        for item in value.values():
            _reintern(item)
    return value


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerLink:
    """The worker's end of the RPC pipe."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self._lock = threading.Lock()

    def call(self, method: str, args: tuple):
        """One synchronous RPC to this rank's proxy."""
        with self._lock:
            self.conn.send(("call", method, args))
            reply = self.conn.recv()
        if reply[0] == "ok":
            return _reintern(reply[1])
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
        try:
            self.conn.close()
        except OSError:
            pass


class ProcessCommunicator:
    """Worker-side endpoint mirroring :class:`Communicator`'s API.

    Every call except the two accessors is one RPC that this rank's
    parent proxy replays on a real communicator.
    """

    def __init__(self, link: _WorkerLink, rank: int, size: int) -> None:
        self._link = link
        self._rank = rank
        self._size = size

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._size

    def charge_flops(self, flops) -> None:
        self._link.call("charge_flops", (flops,))

    def bcast(self, obj, root: int = 0):
        return self._link.call("bcast", (obj, root))

    # The op is checked here, before it is pickled: an unknown one
    # raises the thread backend's ValidationError, not a pickling error.
    def reduce(self, value, op: str = "sum", root: int = 0):
        _resolve_op(op)
        return self._link.call("reduce", (value, op, root))

    def allreduce(self, value, op: str = "sum"):
        _resolve_op(op)
        return self._link.call("allreduce", (value, op))

    def gather(self, value, root: int = 0):
        return self._link.call("gather", (value, root))


def _worker_main(conn, rank: int, size: int, fn, args, kwargs,
                 observed: bool) -> None:
    """Entry point of one forked rank process."""
    from repro import observability as obs

    if observed:
        # The tables are this rank's private copy from the fork; empty
        # them so what the parent merges is this rank's telemetry alone.
        obs.REGISTRY.reset()
        obs.SPANS.reset()
    link = _WorkerLink(conn)
    comm = ProcessCommunicator(link, rank, size)
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
            telemetry = (obs.REGISTRY.snapshot(), obs.SPANS.snapshot()) \
                if observed else None
            try:
                link.send_terminal(("finished", ret, telemetry))
            except OSError:
                raise  # the parent is gone: handled below
            except Exception as exc:  # noqa: BLE001 - unpicklable return
                # The pipe pickles the whole message before writing any
                # of it, so nothing of the failed send reached the parent.
                link.send_terminal(("failed", RuntimeError(
                    f"rank {rank} return value could not be "
                    f"transferred: {exc}")))
    except (BrokenPipeError, OSError):
        pass  # parent is gone; nothing left to report to
    finally:
        link.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class _RankChannel:
    rank: int
    proc: multiprocessing.Process
    conn: Connection  # the proxy's end of the rank's duplex pipe
    done: bool = False


def _proxy_loop(world: World, chan: _RankChannel, returns: list,
                deadlock: list) -> None:
    """Parent thread replaying one worker's calls on a real comm."""
    from repro import observability as obs

    rank, conn = chan.rank, chan.conn
    comm = Communicator(world, rank)

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
                _, method, args = msg
                try:
                    if method not in _ALLOWED_METHODS:
                        raise MPIEmulatorError(
                            f"method {method!r} is not part of the "
                            f"process-backend communicator protocol")
                    reply = ("ok", getattr(comm, method)(*_reintern(args)))
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
                returns[rank] = _reintern(payload)
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
    period (:func:`~repro.mpi.world.join_with_abort_grace`) and are then
    terminated and reaped.
    """
    from repro import observability as obs

    size = world.size
    ctx = multiprocessing.get_context("fork")
    observed = obs.enabled()

    channels: list[_RankChannel] = []
    try:
        for rank in range(size):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, rank, size, fn, args, kwargs, observed),
                name=f"repro-mpi-rank-{rank}", daemon=True)
            proc.start()
            child_conn.close()
            channels.append(_RankChannel(rank=rank, proc=proc,
                                         conn=parent_conn))

        proxies = [threading.Thread(target=_proxy_loop,
                                    args=(world, chan, returns, deadlock),
                                    name=f"repro-mpi-proxy-{chan.rank}",
                                    daemon=True)
                   for chan in channels]
        for t in proxies:
            t.start()

        # A worker wedged in user code never re-enters the protocol, so
        # once the world aborts waiting past the grace cannot help: the
        # stragglers are terminated below.
        join_with_abort_grace(world, proxies)
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
                chan.conn.close()
            except OSError:
                pass
            try:
                chan.proc.close()
            except ValueError:
                pass  # still alive despite kill; leave it to the OS
