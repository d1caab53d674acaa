"""The emulated communicator: rooted collectives on the world.

The SPMD algorithms of the paper communicate only through collectives:
Alg. 1 broadcasts the sampled indices and gathers the codes, and each
Alg. 2 Gram update reduces and broadcasts one ``min(M, L)``-vector.  So
a rank's communicator offers exactly ``bcast``, ``reduce``,
``allreduce`` and ``gather`` over every rank of the world, plus
``charge_flops`` to bill local arithmetic.  Values are Python objects
(numpy arrays included); every rank receives a private copy.  Every
operation tallies traffic and — when the world was created with a
cluster — plays the α-β cost model forward on per-rank virtual clocks.

Performance-model conventions (see :mod:`repro.platform.cost`):

==============  ==================================  =========================
operation       critical-path payload words         wire words
==============  ==================================  =========================
bcast           w                                   (P-1)·w
reduce          w                                   (P-1)·w
allreduce       2·w  (reduce + bcast)               2·(P-1)·w
gather          (P-1)·w  (root port bound)          (P-1)·w
==============  ==================================  =========================
"""

from __future__ import annotations

import numpy as np

from repro.errors import MPIEmulatorError, ValidationError
from repro.mpi.datatypes import deserialize, serialize, words_of
from repro.mpi.world import CollectiveSlot, World
from repro.platform.cost import collective_energy, collective_time

#: Supported named reduction operators.
REDUCE_OPS = ("sum", "prod", "max", "min")

_OP_FUNCS = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": lambda a, b: np.maximum(a, b),
    "min": lambda a, b: np.minimum(a, b),
}


def _resolve_op(op: str):
    if isinstance(op, str) and op in _OP_FUNCS:
        return _OP_FUNCS[op]
    raise ValidationError(
        f"unknown reduction op {op!r}; choose from {REDUCE_OPS}")


class Communicator:
    """One rank's endpoint into an emulated MPI world."""

    def __init__(self, world: World, rank: int) -> None:
        if not 0 <= rank < world.size:
            raise MPIEmulatorError(
                f"rank {rank} out of range [0, {world.size})")
        self._world = world
        self._rank = rank
        self._size = world.size
        self._coll_seq = 0

    # mpi4py-style accessors ------------------------------------------------
    def Get_rank(self) -> int:
        """This process's rank in the world."""
        return self._rank

    def Get_size(self) -> int:
        """Number of ranks in the world."""
        return self._size

    # ------------------------------------------------------------------
    # compute accounting
    # ------------------------------------------------------------------
    def charge_flops(self, flops) -> None:
        """Bill local arithmetic to this rank's virtual clock.

        Accepts an int/float or a :class:`repro.sparse.ops.FlopCount`.
        Without a cluster the flops are tallied but no time advances.
        """
        total = getattr(flops, "total", flops)
        if total < 0:
            raise ValidationError(f"flops must be >= 0, got {total}")
        world = self._world
        with world.cond:
            clock = world.clocks[self._rank]
            if world.cluster is not None:
                start = clock.time
                clock.charge_compute(total,
                                     world.cluster.machine_of(self._rank))
                world.record_event("compute", (self._rank,), start,
                                   clock.time)
            else:
                clock.flops += int(total)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _charge_collective(self, op: str, root: int, payload_words: int,
                           phase_words: list[int], wire_words: int) -> None:
        """Advance every rank's clock through the collective (lock held)."""
        world = self._world
        world.traffic.record(op, payload_words, wire_words)
        if world.cluster is None or self._size == 1:
            return
        participants = list(range(self._size))
        clocks = world.clocks
        t0 = max(c.time for c in clocks)
        duration = 0.0
        joules = 0.0
        for w in phase_words:
            duration += collective_time(
                world.cluster, root, participants, w,
                algorithm=world.collective_algorithm)
            joules += collective_energy(
                world.cluster, root, participants, w,
                algorithm=world.collective_algorithm)
        for c in clocks:
            c.synchronize_to(t0 + duration)
        # Energy is a global quantity; bill it once, on the root's clock,
        # so that summing clock energies gives the true total.
        clocks[root].advance(0.0, joules)
        world.record_event(op, participants, t0, t0 + duration,
                           words=payload_words)

    def _rendezvous(self, op: str, root: int, contribution,
                    finalize) -> CollectiveSlot:
        """Join the world's collective number ``seq``."""
        world = self._world
        with world.cond:
            world.check_abort()
            seq = self._coll_seq
            self._coll_seq += 1
            slot = world.collectives.get(seq)
            if slot is None:
                slot = CollectiveSlot(op, root)
                world.collectives[seq] = slot
            elif slot.op != op or slot.root != root:
                exc = MPIEmulatorError(
                    f"collective mismatch at sequence {seq}: rank "
                    f"{self._rank} called {op}(root={root}) but another "
                    f"rank called {slot.op}(root={slot.root})")
                world._abort(exc)
                raise exc
            slot.contributions[self._rank] = contribution
            slot.arrived += 1
            if slot.arrived == self._size:
                slot.result = finalize(slot)
                slot.completed = True
                world.progress += 1
                world.cond.notify_all()
            else:
                world.blocking_wait(lambda: slot.completed,
                                    rank=self._rank,
                                    what=f"collective {op} #{seq}")
            slot.departed += 1
            if slot.departed == self._size:
                del world.collectives[seq]
            return slot

    def bcast(self, obj, root: int = 0):
        """Broadcast a Python object from ``root`` to all ranks."""
        self._check_root(root)
        payload = serialize(obj) if self._rank == root else None

        def finalize(slot):
            blob = slot.contributions[root]
            w = words_of(deserialize(blob))
            self._charge_collective("bcast", root, w, [w],
                                    (self._size - 1) * w)
            return blob
        slot = self._rendezvous("bcast", root, payload, finalize)
        # Each rank deserialises its own copy: no shared mutable state.
        return deserialize(slot.result)

    def _reduce_slot(self, kind: str, root: int, value, op):
        fn = _resolve_op(op)

        def finalize(slot):
            acc = None
            for r in range(self._size):
                v = slot.contributions[r]
                acc = v if acc is None else fn(acc, v)
            w = words_of(acc)
            phases = [w, w] if kind == "allreduce" else [w]
            wire = (2 if kind == "allreduce" else 1) * (self._size - 1) * w
            self._charge_collective(kind, root, sum(phases), phases, wire)
            return acc
        contribution = np.array(value, copy=True) \
            if isinstance(value, np.ndarray) else value
        return self._rendezvous(kind, root, contribution, finalize)

    def reduce(self, value, op: str = "sum", root: int = 0):
        """Reduce Python/numpy values to ``root`` (others get ``None``)."""
        self._check_root(root)
        slot = self._reduce_slot("reduce", root, value, op)
        if self._rank != root:
            return None
        res = slot.result
        return res.copy() if isinstance(res, np.ndarray) else res

    def allreduce(self, value, op: str = "sum"):
        """Reduce values and deliver the result to every rank."""
        slot = self._reduce_slot("allreduce", 0, value, op)
        res = slot.result
        return res.copy() if isinstance(res, np.ndarray) else res

    def gather(self, value, root: int = 0):
        """Gather one value per rank into a list on ``root``."""
        self._check_root(root)

        def finalize(slot):
            values = [slot.contributions[r] for r in range(self._size)]
            w = max(words_of(deserialize(v)) for v in values)
            payload = (self._size - 1) * w
            self._charge_collective("gather", root, payload, [payload],
                                    (self._size - 1) * w)
            return values
        slot = self._rendezvous("gather", root, serialize(value), finalize)
        if self._rank != root:
            return None
        return [deserialize(v) for v in slot.result]

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self._size:
            raise ValidationError(
                f"root {root} out of range [0, {self._size})")
