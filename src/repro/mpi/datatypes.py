"""Message sizing: everything is measured in 8-byte words.

The paper counts communication in words of the working precision
(double); pickled Python objects are charged by their serialised size
rounded up to whole words.
"""

from __future__ import annotations

import math
import pickle

import numpy as np

from repro.platform.machine import BYTES_PER_WORD


def words_for_bytes(nbytes: int) -> int:
    """Whole words needed to carry ``nbytes`` bytes."""
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    return math.ceil(nbytes / BYTES_PER_WORD)


def words_of(obj) -> int:
    """Word count of an arbitrary payload.

    numpy arrays are charged their buffer size; everything else is
    charged its pickle size.  This is what the traffic ledger records
    and what the virtual clock bills.
    """
    if isinstance(obj, np.ndarray):
        return words_for_bytes(obj.nbytes)
    if np.isscalar(obj):
        return 1
    return words_for_bytes(len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)))


def serialize(obj) -> bytes:
    """Pickle a payload for a collective."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize(blob: bytes):
    """Inverse of :func:`serialize`."""
    return pickle.loads(blob)
