"""Hypothesis property tests: emulator collectives vs numpy references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_spmd

SIZES = st.integers(2, 6)
VALUES = st.lists(st.integers(-100, 100), min_size=2, max_size=6)


@settings(max_examples=20, deadline=None)
@given(SIZES, st.integers(0, 2**31 - 1))
def test_allreduce_sum_matches_numpy(size, seed):
    data = np.random.default_rng(seed).integers(-50, 50, size=(size, 4))

    def prog(comm):
        return comm.allreduce(data[comm.Get_rank()].astype(float))
    res = run_spmd(size, prog)
    expected = data.sum(axis=0).astype(float)
    for r in res.returns:
        assert np.array_equal(r, expected)


@settings(max_examples=20, deadline=None)
@given(SIZES, st.sampled_from(["max", "min"]), st.integers(0, 2**31 - 1))
def test_allreduce_extrema(size, op, seed):
    data = np.random.default_rng(seed).integers(-50, 50, size=size)

    def prog(comm):
        return comm.allreduce(int(data[comm.Get_rank()]), op=op)
    res = run_spmd(size, prog)
    expected = data.max() if op == "max" else data.min()
    assert all(r == expected for r in res.returns)


@settings(max_examples=20, deadline=None)
@given(VALUES)
def test_gather_preserves_order(values):
    size = len(values)

    def prog(comm):
        return comm.gather(values[comm.Get_rank()], root=0)
    res = run_spmd(size, prog)
    assert res.returns[0] == values


@settings(max_examples=15, deadline=None)
@given(SIZES, st.integers(0, 5))
def test_bcast_from_any_root(size, root_raw):
    root = root_raw % size

    def prog(comm):
        value = ("secret", root) if comm.Get_rank() == root else None
        return comm.bcast(value, root=root)
    res = run_spmd(size, prog)
    assert all(r == ("secret", root) for r in res.returns)
