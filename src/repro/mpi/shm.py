"""Shared-memory data plane of the multiprocess SPMD backend.

The process backend moves control messages (method names, scalars,
pickled small objects) over pipes and *large ndarray payloads* through
named POSIX shared-memory segments: the sender copies the array into a
fresh segment once, ships a tiny :class:`ShmPayload` descriptor over the
pipe, and the receiver maps the segment directly into its address space
— no pickle round-trip, no second copy on the wire.

Lifecycle rules (leak-proofing is the whole point):

* every segment name carries the run's unique prefix, so a teardown
  sweep can reclaim segments whose creator was killed before the
  descriptor ever reached the other side;
* the *receiver* unlinks a segment the moment it maps it (POSIX keeps
  the mapping alive after unlink), so a segment's name lives only for
  the duration of one transfer;
* the parent keeps a :class:`SegmentRegistry` of every segment it
  created whose receiver might never arrive (a worker can die first)
  and drains it when the run ends.

CPython registers every ``SharedMemory`` construction — create *and*
attach — with the process-local ``resource_tracker``, and ``unlink()``
unregisters again.  A creator that never unlinks (the receiver does)
would therefore be flagged as leaking at exit; :func:`untrack` opts the
creator's registration out — ownership is explicit here, not
tracker-inferred.  Attach-side registrations are left alone: the
receiver always unlinks, which balances them.
"""

from __future__ import annotations

import glob
import os
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "SHM_THRESHOLD_BYTES",
    "SegmentRegistry",
    "ShmPayload",
    "decode_payload",
    "encode_payload",
    "export_array",
    "map_array",
    "sweep_orphans",
    "unlink_quiet",
]

#: Arrays at or above this many bytes travel via shared memory; smaller
#: ones ride the pipe inside the pickled control message.  64 KiB sits
#: above the pipe's atomic-write sweet spot and below any panel the
#: encode paths exchange.
SHM_THRESHOLD_BYTES = 1 << 16

#: Containers the payload codec recurses into (descriptors can appear
#: anywhere inside one bcast/gather value, e.g. ``(atoms, idx)``).
_MAX_ENCODE_DEPTH = 4


@dataclass(frozen=True)
class ShmPayload:
    """Pipe-sized descriptor of one ndarray parked in shared memory."""

    name: str
    shape: tuple
    dtype: str


def untrack(name: str) -> None:
    """Remove a segment from this process's resource tracker.

    Best-effort: tracker registration formats changed across CPython
    versions and the segment may simply not be registered here.
    """
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # noqa: BLE001 - tracker APIs are private
        pass


def export_array(arr: np.ndarray, name: str) -> ShmPayload:
    """Copy ``arr`` into a fresh named segment; return its descriptor."""
    arr = np.ascontiguousarray(arr)
    seg = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(arr.nbytes, 1))
    untrack(seg.name)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr
    seg.close()
    return ShmPayload(name=seg.name, shape=tuple(arr.shape),
                      dtype=str(arr.dtype))


def map_array(payload: ShmPayload, *, copy: bool = True):
    """Materialise a descriptor back into an ndarray.

    With ``copy=True`` (the default) the segment is closed and unlinked
    before returning — the caller owns a private array and the name is
    gone.  With ``copy=False`` the array is a zero-copy view; the
    segment is unlinked immediately (the mapping outlives the name) and
    the backing ``SharedMemory`` is returned alongside so the caller
    can pin it for the view's lifetime: returns ``(array, segment)``.
    """
    seg = shared_memory.SharedMemory(name=payload.name)
    view = np.ndarray(payload.shape, dtype=np.dtype(payload.dtype),
                      buffer=seg.buf)
    if copy:
        arr = view.copy()
        seg.close()
        unlink_quiet(payload.name, segment=seg)
        return arr
    unlink_quiet(payload.name, segment=seg)
    return view, seg


def unlink_quiet(name: str, *, segment=None) -> bool:
    """Unlink a segment by name, tolerating its prior disappearance.

    ``unlink()`` both removes the name and unregisters it from the
    resource tracker; when the name is already gone the registration
    (from create or attach) survives the exception, so it is dropped
    explicitly to keep the tracker balanced.
    """
    if segment is not None:
        try:
            segment.unlink()
            return True
        except FileNotFoundError:
            untrack(name)
            return False
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:
        untrack(name)
        return False
    return True


class SegmentRegistry:
    """Thread-safe set of segment names the parent may need to reclaim."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._names: set[str] = set()

    def add(self, name: str) -> None:
        with self._lock:
            self._names.add(name)

    def discard(self, name: str) -> None:
        with self._lock:
            self._names.discard(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._names)

    def drain(self) -> int:
        """Unlink every registered segment; returns how many existed."""
        with self._lock:
            names, self._names = self._names, set()
        return sum(1 for n in names if unlink_quiet(n))


def sweep_orphans(prefix: str) -> int:
    """Unlink every ``/dev/shm`` segment carrying ``prefix``.

    The belt-and-braces pass for segments whose creating worker was
    killed between ``shm_open`` and shipping the descriptor — no
    registry ever heard of them.  No-op on hosts without a visible
    ``/dev/shm`` (shared memory still works there; orphan reclamation
    is simply left to the OS).
    """
    removed = 0
    if not os.path.isdir("/dev/shm"):
        return 0
    for path in glob.glob(f"/dev/shm/{prefix}*"):
        if unlink_quiet(os.path.basename(path)):
            removed += 1
    return removed


# ----------------------------------------------------------------------
# The payload codec used by both ends of the RPC pipe
# ----------------------------------------------------------------------
def encode_payload(value, namer, _depth: int = 0):
    """Replace large ndarrays inside ``value`` with shm descriptors.

    ``namer()`` must return a fresh globally-unique segment name per
    call.  Arrays of at least :data:`SHM_THRESHOLD_BYTES` move; smaller
    ones stay inline.  Containers (tuple/list/dict) are walked up to a
    small fixed depth — deeper or exotic structures simply ride the pipe
    pickled, which is always correct, just slower.
    """
    if isinstance(value, np.ndarray) and value.dtype != object \
            and value.nbytes >= SHM_THRESHOLD_BYTES:
        return export_array(value, namer())
    if _depth >= _MAX_ENCODE_DEPTH:
        return value
    if isinstance(value, tuple):
        return tuple(encode_payload(v, namer, _depth + 1) for v in value)
    if isinstance(value, list):
        return [encode_payload(v, namer, _depth + 1) for v in value]
    if isinstance(value, dict):
        return {k: encode_payload(v, namer, _depth + 1)
                for k, v in value.items()}
    return value


def _canonical_dtype(arr: np.ndarray) -> np.ndarray:
    """Swap a pipe-unpickled dtype instance for the interned singleton.

    Unpickling an ndarray rebuilds its dtype as a *fresh* instance, not
    numpy's cached singleton.  That is invisible to computation but not
    to re-pickling: the traffic ledger charges a non-array payload by
    its pickle size, and pickle memoises dtypes by identity — a payload
    whose arrays stopped sharing one ``int64`` instance pickles a few
    bytes larger than the same payload on the thread backend.  Restoring
    the singleton keeps word counts backend-independent.
    """
    try:
        canon = np.dtype(arr.dtype.str)
        if canon is not arr.dtype and canon == arr.dtype:
            arr.dtype = canon
    except (TypeError, ValueError):
        pass  # exotic/structured dtypes: equality-sharing not guaranteed
    return arr


def decode_payload(value, *, on_name=None, pin=None):
    """Inverse of :func:`encode_payload`.

    ``on_name`` (when given) is called with each segment name seen,
    letting the parent registry drop entries as they are consumed.
    With ``pin`` (a list) the arrays are zero-copy views and their
    backing segments are appended to ``pin``, which the caller must
    keep alive for the views' lifetime and close eventually; without
    it every segment is copy-mapped and released immediately.
    Plain ndarrays (the under-threshold ones that rode the pipe) pass
    through with their dtype re-interned (see :func:`_canonical_dtype`).
    """
    if isinstance(value, np.ndarray):
        return _canonical_dtype(value)
    if isinstance(value, ShmPayload):
        if on_name is not None:
            on_name(value.name)
        if pin is None:
            return map_array(value, copy=True)
        arr, seg = map_array(value, copy=False)
        pin.append(seg)
        return arr
    if isinstance(value, tuple):
        return tuple(decode_payload(v, on_name=on_name, pin=pin)
                     for v in value)
    if isinstance(value, list):
        return [decode_payload(v, on_name=on_name, pin=pin)
                for v in value]
    if isinstance(value, dict):
        return {k: decode_payload(v, on_name=on_name, pin=pin)
                for k, v in value.items()}
    return value
