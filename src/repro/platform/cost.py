"""Communication cost models (α-β) for rooted collectives.

Two collective algorithms are modelled:

``flat``
    Root exchanges one message with every other participant, and the
    per-link transfers overlap (each processor's port moves ``words``
    words simultaneously).  This is the model used by the paper's
    Sec. VI-B analysis, where a reduce/broadcast of an ``M``-vector costs
    ``M`` simultaneously-communicated words per processor.
``tree``
    Binomial tree: ``ceil(log2 P)`` sequential stages of one message
    each.  Provided for ablation; latency-dominated workloads prefer it.

All functions are pure: they map (cluster, participants, words) to a
scalar time or energy, so they can be unit-tested against closed forms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.errors import PlatformError
from repro.platform.cluster import ClusterConfig

COLLECTIVE_ALGORITHMS = ("flat", "tree")


def _link_params(cluster: ClusterConfig, a: int, b: int):
    """(latency, word_time, word_energy) of the a↔b link.

    Heterogeneous clusters: the slower endpoint bottlenecks the link.
    """
    inter = cluster.is_inter_node(a, b)
    ma, mb = cluster.machine_of(a), cluster.machine_of(b)
    return (max(ma.latency(inter_node=inter), mb.latency(inter_node=inter)),
            max(ma.word_time(inter_node=inter),
                mb.word_time(inter_node=inter)),
            max(ma.word_energy(inter_node=inter),
                mb.word_energy(inter_node=inter)))


def _worst_pair_params(cluster: ClusterConfig, root: int,
                       participants: Sequence[int]):
    """(latency, word_time, word_energy) of the slowest root↔rank link."""
    worst = (0.0, 0.0, 0.0)
    found = False
    for r in participants:
        if r == root:
            continue
        params = _link_params(cluster, root, r)
        worst = tuple(max(w, p) for w, p in zip(worst, params))
        found = True
    if not found:
        m = cluster.machine_of(root)
        return (m.latency(inter_node=False), m.word_time(inter_node=False),
                m.word_energy(inter_node=False))
    return worst


def collective_time(cluster: ClusterConfig, root: int,
                    participants: Sequence[int], words: int,
                    *, algorithm: str = "flat") -> float:
    """Seconds for a rooted collective (bcast/reduce/gather-shaped).

    ``words`` is the per-participant message size in words.  For an
    *all*-flavoured collective (allreduce) model it as a reduce
    followed by a bcast — i.e. call this twice.
    """
    if algorithm not in COLLECTIVE_ALGORITHMS:
        raise PlatformError(
            f"unknown collective algorithm {algorithm!r}; "
            f"choose from {COLLECTIVE_ALGORITHMS}")
    if words < 0:
        raise PlatformError(f"words must be >= 0, got {words}")
    p = len(participants)
    if p <= 1 or words == 0:
        # A zero-word collective is still a synchronisation point, but the
        # model charges latency only when data moves between distinct ranks.
        return 0.0 if p <= 1 else _worst_pair_params(
            cluster, root, participants)[0]
    alpha, beta, _ = _worst_pair_params(cluster, root, participants)
    if algorithm == "flat":
        # Overlapping per-link transfers: one latency, `words` words on
        # the (bottleneck) link — matching the paper's
        # "min(M, L) words communicated simultaneously" accounting.
        return alpha + words * beta
    stages = math.ceil(math.log2(p))
    return stages * (alpha + words * beta)


def collective_energy(cluster: ClusterConfig, root: int,
                      participants: Sequence[int], words: int,
                      *, algorithm: str = "flat") -> float:
    """Joules for a rooted collective.

    Energy counts *total* words moved (it is additive, unlike time which
    benefits from overlap): ``(P-1) * words`` link traversals for both
    algorithms (a binomial tree also moves each payload P-1 times).
    """
    if algorithm not in COLLECTIVE_ALGORITHMS:
        raise PlatformError(
            f"unknown collective algorithm {algorithm!r}; "
            f"choose from {COLLECTIVE_ALGORITHMS}")
    if words < 0:
        raise PlatformError(f"words must be >= 0, got {words}")
    p = len(participants)
    if p <= 1 or words == 0:
        return 0.0
    total = 0.0
    for r in participants:
        if r == root:
            continue
        total += words * _link_params(cluster, root, r)[2]
    return total
