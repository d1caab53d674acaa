"""Deterministic random-number-generator plumbing.

Everything stochastic in the library (dictionary subsampling, dataset
synthesis, SGD batching) accepts a ``seed`` argument that may be an int,
``None`` or a ``numpy.random.Generator``; these helpers normalise it.
Reproducibility across processes matters because the SPMD algorithms
(Alg. 1 step 0) require every rank to draw the *same* column subset.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | None | np.random.Generator | np.random.SeedSequence"


def as_generator(seed=None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any seed-like input.

    Passing an existing Generator returns it unchanged so that callers can
    thread one generator through a pipeline without re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed, *key: int) -> int:
    """Derive a child seed deterministically from ``seed`` and a key path.

    Used to give independent-but-reproducible streams to sub-tasks (e.g.
    one stream per trial in the Fig. 4 variance study) without the
    correlated-streams pitfall of ``seed + i``.
    """
    if isinstance(seed, np.random.Generator):
        # Derive from the generator's own bit stream; consumes state.
        base = int(seed.integers(0, 2**63 - 1))
    elif seed is None:
        base = 0
    else:
        base = int(seed)
    ss = np.random.SeedSequence(entropy=base, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
