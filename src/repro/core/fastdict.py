"""Sparse-factor fast-transform dictionaries (ROADMAP item 3).

Le Magoarou & Gribonval ("Learning computationally efficient
dictionaries and their implementation as fast transforms", PAPERS.md)
observe that classical fast transforms are products of sparse factors,
and that a learned dictionary can be approximated the same way:

    D ≈ S₁ S₂ … S_J,    nnz(S₁…S_J) ≪ M·L

so that ``Dᵀx`` / ``Dx̂`` cost ``O(Σⱼ nnz(Sⱼ))`` instead of the dense
``O(M·L)`` that Eq. 2 of the paper treats as a fixed constant.

This module provides:

``FastFactor``
    One sparse factor ``Sⱼ = Pⱼ·Bⱼ`` — a row permutation times a
    block-diagonal matrix, stored as a stacked ``(nb, r, c)`` array so
    applying it is a single batched ``np.matmul`` (near-BLAS efficiency;
    an unstructured scipy CSR matvec at these densities is slower than
    the dense GEMM it replaces, which is why the Monarch-style fixed
    block structure is used instead of free-form sparsity).
``FastDict``
    A :class:`~repro.core.dictionary.DictOperator`: the factor chain
    plus the sampled-column provenance ``indices``.  Implements
    ``apply`` / ``apply_t`` / ``gram`` and therefore drops into every
    encode path (serial, parallel, streaming, serving).
``BlockDictOperator``
    ``[FastDict | dense C]`` — the evolve path grows a factored base
    with a dense extension block without refactorising.
``fit_fast_dict``
    Greedy hierarchical two-factor splits with alternating
    least-squares refinement — the "greedy sparse-factor fit" variant
    of the reference's hierarchical PALM, chosen because every
    sub-problem here is an exactly solvable (batched) linear LS.

The relative-complexity knob ``RC = nnz(S₁…S_J)/(M·L)`` is the single
budget parameter: the modeled apply speedup is ``1/RC`` and the
measured one tracks it (``benchmarks/bench_fastdict.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.linalg.norms import relative_frobenius_error
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction, check_positive_int

__all__ = [
    "FastFactor",
    "FastDict",
    "BlockDictOperator",
    "FastDictConfig",
    "as_fast_dict_config",
    "fit_fast_dict",
    "operator_to_arrays",
    "operator_from_arrays",
]


class FastFactor:
    """One sparse factor ``S = P·B`` of shape ``(rows, cols)``.

    ``P`` is a ``rows_pad``-permutation and ``B`` is block-diagonal
    with ``nb`` dense blocks of shape ``(r, c)`` (``rows_pad = nb·r``,
    ``cols_pad = nb·c``).  Logical shapes smaller than the padded grid
    are handled by zero-masking the block entries that touch padded
    rows/columns, so ``nnz`` counts only live entries and applying the
    factor to a zero-padded vector is exact.
    """

    __slots__ = ("perm", "inv_perm", "blocks", "rows", "cols", "_bt")

    def __init__(self, perm, blocks, rows: int, cols: int):
        perm = np.asarray(perm, dtype=np.int64)
        blocks = np.ascontiguousarray(blocks, dtype=np.float64)
        if blocks.ndim != 3:
            raise ValidationError(
                f"blocks must be (nb, r, c), got shape {blocks.shape}")
        nb, r, c = blocks.shape
        if perm.shape != (nb * r,):
            raise ValidationError(
                f"perm length {perm.shape} does not match nb*r={nb * r}")
        if not (0 < rows <= nb * r and 0 < cols <= nb * c):
            raise ValidationError(
                f"logical shape ({rows}, {cols}) exceeds padded "
                f"({nb * r}, {nb * c})")
        self.perm = perm
        self.inv_perm = np.argsort(perm)
        self.blocks = blocks
        self.rows = int(rows)
        self.cols = int(cols)
        self._bt = None

    # -- structure ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(rows, cols)``."""
        return (self.rows, self.cols)

    @property
    def rows_pad(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    @property
    def cols_pad(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[2]

    @property
    def nnz(self) -> int:
        """Stored nonzeros (padding entries are exact zeros)."""
        return int(np.count_nonzero(self.blocks))

    def padding_mask(self) -> np.ndarray:
        """Boolean ``(nb, r, c)``: True where an entry is *live*.

        An entry is live when its padded output row is reachable from a
        logical row (``perm[:rows]``) and its padded input column indexes
        a logical column (``< cols``).
        """
        nb, r, c = self.blocks.shape
        live_out = np.zeros(nb * r, dtype=bool)
        live_out[self.perm[:self.rows]] = True
        live_in = np.arange(nb * c) < self.cols
        return (live_out.reshape(nb, r)[:, :, None]
                & live_in.reshape(nb, c)[:, None, :])

    def mask_padding(self) -> None:
        """Zero every entry that touches a padded row/column."""
        self.blocks *= self.padding_mask()
        self._bt = None

    # -- linear maps -------------------------------------------------

    def _blocks_t(self) -> np.ndarray:
        if self._bt is None:
            self._bt = np.ascontiguousarray(self.blocks.transpose(0, 2, 1))
        return self._bt

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``S @ x`` for ``x`` of shape ``(cols, k)``."""
        nb, r, c = self.blocks.shape
        k = x.shape[1]
        if x.shape[0] != self.cols:
            raise ValidationError(
                f"apply: expected {self.cols} rows, got {x.shape[0]}")
        if self.cols_pad != self.cols:
            xp = np.zeros((self.cols_pad, k))
            xp[:self.cols] = x
        else:
            xp = x
        z = np.matmul(self.blocks, xp.reshape(nb, c, k)).reshape(-1, k)
        return z[self.perm[:self.rows]]

    def apply_t(self, a: np.ndarray) -> np.ndarray:
        """``Sᵀ @ a`` for ``a`` of shape ``(rows, k)``."""
        nb, r, c = self.blocks.shape
        k = a.shape[1]
        if a.shape[0] != self.rows:
            raise ValidationError(
                f"apply_t: expected {self.rows} rows, got {a.shape[0]}")
        w = np.zeros((self.rows_pad, k))
        w[self.perm[:self.rows]] = a
        out = np.matmul(self._blocks_t(), w.reshape(nb, r, k)).reshape(-1, k)
        return out[:self.cols]

    def materialize(self) -> np.ndarray:
        """Dense logical ``(rows, cols)`` matrix (fit/debug only)."""
        nb, r, c = self.blocks.shape
        b = np.zeros((self.rows_pad, self.cols_pad))
        for i in range(nb):
            b[i * r:(i + 1) * r, i * c:(i + 1) * c] = self.blocks[i]
        return b[self.perm[:self.rows], :self.cols]

    # -- constructors ------------------------------------------------

    @classmethod
    def permutation(cls, perm) -> "FastFactor":
        """Exact permutation factor (1×1 blocks of ones)."""
        perm = np.asarray(perm, dtype=np.int64)
        n = perm.shape[0]
        return cls(perm, np.ones((n, 1, 1)), n, n)

    @classmethod
    def diagonal(cls, scales) -> "FastFactor":
        """Exact diagonal factor (1×1 blocks)."""
        scales = np.asarray(scales, dtype=np.float64)
        n = scales.shape[0]
        return cls(np.arange(n), scales.reshape(n, 1, 1), n, n)

    def __getstate__(self):
        return (self.perm, self.blocks, self.rows, self.cols)

    def __setstate__(self, state):
        perm, blocks, rows, cols = state
        self.__init__(perm, blocks, rows, cols)


class FastDict:
    """Factored dictionary ``D ≈ S₁S₂…S_J`` (a ``DictOperator``).

    Drop-in replacement for :class:`~repro.core.dictionary.Dictionary`
    on every encode path: ``apply_t`` runs the factor chain (cost
    ``O(transform_nnz)`` per column), ``gram()`` materialises the atoms
    once and warms the process-wide Gram LRU, and ``atoms`` is the
    lazily materialised dense product (needed only for Gram
    precompute, reconstruction and serialisation — never in the
    per-panel hot loop).

    ``residual`` records ``‖D − Ŝ‖_F/‖D‖_F`` of the fit: encoding with
    an approximate factorisation solves the OMP problem for the
    *materialised* ``D̂``, so the reconstruction guarantee
    ``‖a − D̂x̂‖ ≤ ε‖a‖`` holds exactly for ``D̂`` and within
    ``ε + residual·‖x̂‖·‖D‖/‖a‖`` for the original ``D`` (see
    ``docs/fastdict.md``).  A ``residual`` of 0 (e.g. permutation /
    diagonal factors) makes every path bit-identical to dense.
    """

    def __init__(self, factors, indices=None, residual: float = 0.0):
        factors = tuple(factors)
        if not factors:
            raise ValidationError("FastDict needs at least one factor")
        for left, right in zip(factors, factors[1:]):
            if left.cols != right.rows:
                raise ValidationError(
                    f"factor chain mismatch: ({left.rows}, {left.cols}) "
                    f"cannot multiply ({right.rows}, {right.cols})")
        self.factors = factors
        self.indices = (np.arange(factors[-1].cols, dtype=np.int64)
                        if indices is None
                        else np.asarray(indices, dtype=np.int64))
        if self.indices.shape != (factors[-1].cols,):
            raise ValidationError(
                f"indices length {self.indices.shape} does not match "
                f"dictionary size {factors[-1].cols}")
        self.residual = float(residual)
        self._atoms = None

    # -- DictOperator protocol --------------------------------------

    @property
    def m(self) -> int:
        """Row dimension (signal length)."""
        return self.factors[0].rows

    @property
    def size(self) -> int:
        """Number of atoms L."""
        return self.factors[-1].cols

    @property
    def levels(self) -> int:
        """Number of factors J."""
        return len(self.factors)

    @property
    def atoms(self) -> np.ndarray:
        """Dense materialised ``Ŝ = S₁…S_J`` (computed once, cached)."""
        if self._atoms is None:
            x = np.eye(self.size)
            for f in reversed(self.factors):
                x = f.apply(x)
            self._atoms = x
        return self._atoms

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``D̂ @ x`` through the factor chain."""
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        for f in reversed(self.factors):
            x = f.apply(x)
        return x[:, 0] if squeeze else x

    def apply_t(self, a: np.ndarray) -> np.ndarray:
        """``D̂ᵀ @ a`` through the factor chain."""
        squeeze = a.ndim == 1
        if squeeze:
            a = a[:, None]
        for f in self.factors:
            a = f.apply_t(a)
        return a[:, 0] if squeeze else a

    def gram(self) -> np.ndarray:
        """``G = D̂ᵀD̂`` via the process-wide Gram LRU.

        Computed from the materialised atoms so the Gram bits are
        identical to the dense path's for an exact factorisation.
        """
        from repro.linalg.parallel_omp import cached_gram
        return cached_gram(self.atoms)

    @property
    def transform_nnz(self) -> int:
        """``Σⱼ nnz(Sⱼ)`` — the factored Eq. 2 transform term."""
        return sum(f.nnz for f in self.factors)

    @property
    def relative_complexity(self) -> float:
        """``RC = nnz(S₁…S_J)/(M·L)`` (1.0 would match dense cost)."""
        return self.transform_nnz / float(self.m * self.size)

    @property
    def memory_words(self) -> int:
        """Stored float64 words — factor nnz, not the dense M·L."""
        return self.transform_nnz

    def concat(self, other) -> "BlockDictOperator":
        """Append dense atoms (the evolve path) as a block operator."""
        from repro.core.dictionary import Dictionary
        if not isinstance(other, Dictionary):
            other = Dictionary(atoms=np.asarray(other, dtype=np.float64),
                               indices=np.arange(np.asarray(other).shape[1],
                                                 dtype=np.int64))
        return BlockDictOperator(self, other)

    def to_arrays(self) -> dict:
        """Flat array dict for npz round-trips (``fd_``-prefixed)."""
        arrays = {
            "fd_nfactors": np.int64(len(self.factors)),
            "fd_residual": np.float64(self.residual),
            "fd_indices": self.indices,
        }
        for j, f in enumerate(self.factors):
            arrays[f"fd{j}_perm"] = f.perm
            arrays[f"fd{j}_blocks"] = f.blocks
            arrays[f"fd{j}_shape"] = np.array([f.rows, f.cols],
                                              dtype=np.int64)
        return arrays

    @classmethod
    def from_arrays(cls, arrays) -> "FastDict":
        """Inverse of :meth:`to_arrays` (accepts an open npz too)."""
        n = int(np.asarray(arrays["fd_nfactors"]))
        factors = []
        for j in range(n):
            rows, cols = np.asarray(arrays[f"fd{j}_shape"], dtype=np.int64)
            factors.append(FastFactor(arrays[f"fd{j}_perm"],
                                      arrays[f"fd{j}_blocks"],
                                      int(rows), int(cols)))
        return cls(factors, indices=arrays["fd_indices"],
                   residual=float(np.asarray(arrays["fd_residual"])))

    def __getstate__(self):
        return (self.factors, self.indices, self.residual)

    def __setstate__(self, state):
        factors, indices, residual = state
        self.__init__(factors, indices=indices, residual=residual)

    def __repr__(self) -> str:
        return (f"FastDict(m={self.m}, size={self.size}, "
                f"levels={self.levels}, rc={self.relative_complexity:.3f}, "
                f"residual={self.residual:.3g})")


class BlockDictOperator:
    """``[base | ext]`` — factored base plus dense extension atoms.

    The evolve path (Alg. 1) grows a fitted dictionary with extension
    columns ``C``; when the base is a :class:`FastDict` the
    concatenation stays an operator: ``apply_t`` stacks the fast-chain
    result over a dense ``Cᵀ`` panel, so the Eq. 2 transform term is
    ``Σⱼ nnz(Sⱼ) + nnz(C)`` instead of ``M·(L + |C|)``.
    """

    def __init__(self, base: FastDict, ext):
        from repro.core.dictionary import Dictionary
        if not isinstance(ext, Dictionary):
            raise ValidationError("BlockDictOperator ext must be a "
                                  "dense Dictionary")
        if ext.m != base.m:
            raise ValidationError(
                f"extension rows {ext.m} != base rows {base.m}")
        self.base = base
        self.ext = ext
        self._atoms = None

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def size(self) -> int:
        return self.base.size + self.ext.size

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate([self.base.indices, self.ext.indices])

    @property
    def atoms(self) -> np.ndarray:
        if self._atoms is None:
            self._atoms = np.hstack([self.base.atoms, self.ext.atoms])
        return self._atoms

    def apply(self, x: np.ndarray) -> np.ndarray:
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        out = (self.base.apply(x[:self.base.size])
               + self.ext.atoms @ x[self.base.size:])
        return out[:, 0] if squeeze else out

    def apply_t(self, a: np.ndarray) -> np.ndarray:
        squeeze = a.ndim == 1
        if squeeze:
            a = a[:, None]
        out = np.vstack([self.base.apply_t(a), self.ext.atoms.T @ a])
        return out[:, 0] if squeeze else out

    def gram(self) -> np.ndarray:
        from repro.linalg.parallel_omp import cached_gram
        return cached_gram(self.atoms)

    @property
    def transform_nnz(self) -> int:
        return self.base.transform_nnz + int(np.count_nonzero(
            self.ext.atoms))

    @property
    def relative_complexity(self) -> float:
        return self.transform_nnz / float(self.m * self.size)

    @property
    def memory_words(self) -> int:
        return self.base.memory_words + self.ext.memory_words

    def concat(self, other) -> "BlockDictOperator":
        """Further growth extends the dense block."""
        from repro.core.dictionary import Dictionary
        if not isinstance(other, Dictionary):
            other = np.asarray(other, dtype=np.float64)
            other = Dictionary(other, np.full(other.shape[1], -1,
                                              dtype=np.int64))
        return BlockDictOperator(self.base, self.ext.concat(other))

    def to_arrays(self) -> dict:
        arrays = self.base.to_arrays()
        arrays["bd_ext_atoms"] = self.ext.atoms
        arrays["bd_ext_indices"] = self.ext.indices
        return arrays

    @classmethod
    def from_arrays(cls, arrays) -> "BlockDictOperator":
        from repro.core.dictionary import Dictionary
        base = FastDict.from_arrays(arrays)
        ext = Dictionary(atoms=np.asarray(arrays["bd_ext_atoms"],
                                          dtype=np.float64),
                         indices=np.asarray(arrays["bd_ext_indices"],
                                            dtype=np.int64))
        return cls(base, ext)

    def __repr__(self) -> str:
        return (f"BlockDictOperator(m={self.m}, size={self.size}, "
                f"base={self.base!r}, ext_size={self.ext.size})")


def operator_to_arrays(dictionary) -> tuple[str, dict]:
    """``(kind, arrays)`` for persisting a non-dense dictionary."""
    if isinstance(dictionary, FastDict):
        return "fastdict", dictionary.to_arrays()
    if isinstance(dictionary, BlockDictOperator):
        return "block", dictionary.to_arrays()
    raise ValidationError(
        f"cannot serialise dictionary of type {type(dictionary).__name__}")


def operator_from_arrays(kind: str, arrays):
    """Inverse of :func:`operator_to_arrays`."""
    if kind == "fastdict":
        return FastDict.from_arrays(arrays)
    if kind == "block":
        return BlockDictOperator.from_arrays(arrays)
    raise ValidationError(f"unknown dictionary kind {kind!r}")


@dataclass(frozen=True)
class FastDictConfig:
    """Fit budget for :func:`fit_fast_dict`.

    Attributes
    ----------
    rc:
        Relative-complexity target ``nnz(S₁…S_J)/(M·L)`` in (0, 1].
    levels:
        Number of factors J ≥ 2.
    iters:
        Alternating least-squares sweeps per two-factor split (and for
        the final global polish when ``levels == 2``).
    """

    rc: float = 0.25
    levels: int = 2
    iters: int = 10

    def __post_init__(self):
        check_fraction(self.rc, "rc")
        if check_positive_int(self.levels, "levels") < 2:
            raise ValidationError(f"levels must be >= 2, got {self.levels}")
        check_positive_int(self.iters, "iters")


def as_fast_dict_config(value) -> FastDictConfig:
    """Coerce a knob value (float RC or config) to a config."""
    if isinstance(value, FastDictConfig):
        return value
    return FastDictConfig(rc=float(value))


def _block_grid(rows: int, cols: int, budget: float) -> tuple[int, int, int]:
    """Pick ``(nb, r, c)`` so the block-diagonal holds ≈ ``budget`` nnz."""
    nb = max(1, int(round(rows * cols / max(budget, 1.0))))
    nb = min(nb, rows, cols)
    r = -(-rows // nb)
    c = -(-cols // nb)
    return nb, r, c


def _shuffle_perm(n: int, nb: int, r: int) -> np.ndarray:
    """Perfect-shuffle permutation interleaving the ``nb`` row blocks.

    Consecutive output rows are drawn from distinct blocks, so a chain
    of block-diagonal factors has full (not block-diagonal) support.
    """
    return np.arange(n).reshape(nb, r).T.ravel()


def _solve_blocks_given_rhs(factor: FastFactor, target: np.ndarray,
                            rhs: np.ndarray) -> None:
    """LS-optimal blocks for ``P·B·rhs ≈ target`` (batched, in place).

    The block-diagonal structure makes the problem separable: block i
    only sees target rows ``inv_perm`` maps into it and rhs rows
    ``i·c … i·c+c-1``, so each block is an independent ``(r, k)``
    least-squares solved by a batched pseudo-inverse.
    """
    nb, r, c = factor.blocks.shape
    k = target.shape[1]
    tp = np.zeros((factor.rows_pad, k))
    tp[factor.perm[:factor.rows]] = target
    t_blocks = tp.reshape(nb, r, k)
    rp = np.zeros((factor.cols_pad, k))
    rp[:rhs.shape[0]] = rhs
    r_blocks = rp.reshape(nb, c, k)
    factor.blocks[:] = np.matmul(t_blocks, np.linalg.pinv(r_blocks))
    factor.mask_padding()


def _solve_blocks_given_lhs(factor: FastFactor, target: np.ndarray,
                            lhs: np.ndarray) -> None:
    """LS-optimal blocks for ``lhs·P·B ≈ target`` (batched, in place).

    Column-separable: output column block k of ``B`` only multiplies
    the ``lhs·P`` columns of its own block.
    """
    nb, r, c = factor.blocks.shape
    m = target.shape[0]
    wp = np.zeros((m, factor.rows_pad))
    wp[:, :lhs.shape[1]] = lhs
    w2 = wp[:, factor.inv_perm]
    w_blocks = np.ascontiguousarray(
        w2.reshape(m, nb, r).transpose(1, 0, 2))
    tp = np.zeros((m, factor.cols_pad))
    tp[:, :target.shape[1]] = target
    t_blocks = np.ascontiguousarray(
        tp.reshape(m, nb, c).transpose(1, 0, 2))
    factor.blocks[:] = np.matmul(np.linalg.pinv(w_blocks), t_blocks)
    factor.mask_padding()


def _split_two(target: np.ndarray, rows: int, cols: int, budget: float,
               rng: np.random.Generator, iters: int,
               first: bool) -> tuple[FastFactor, np.ndarray]:
    """``target ≈ F · G``: block factor F ``(rows, cols)`` + dense G.

    G is initialised with a randomised range finder (the row space of
    ``target`` compressed to ``cols`` dimensions), then F and G are
    refined by alternating exact LS solves.
    """
    nb, r, c = _block_grid(rows, cols, budget)
    perm = (np.arange(nb * r, dtype=np.int64) if first
            else _shuffle_perm(nb * r, nb, r))
    factor = FastFactor(perm, np.zeros((nb, r, c)), rows, cols)
    y = target @ rng.standard_normal((target.shape[1], cols))
    q, _ = np.linalg.qr(y)
    g = q.T @ target
    for _ in range(max(iters, 1)):
        _solve_blocks_given_rhs(factor, target, g)
        f_dense = factor.materialize()
        g, *_ = np.linalg.lstsq(f_dense, target, rcond=None)
    return factor, g


def _final_factor(target: np.ndarray, rows: int, cols: int,
                  budget: float) -> FastFactor:
    """Project the dense remainder onto the last block factor.

    With a shuffle permutation the projection is just block truncation
    of ``Pᵀ·target`` — the LS-optimal blocks for a fixed identity lhs.
    """
    nb, r, c = _block_grid(rows, cols, budget)
    perm = _shuffle_perm(nb * r, nb, r)
    factor = FastFactor(perm, np.zeros((nb, r, c)), rows, cols)
    tp = np.zeros((factor.rows_pad, factor.cols_pad))
    tp[factor.perm[:rows], :cols] = target
    t_blocks = tp.reshape(nb, r, nb, c)
    factor.blocks[:] = t_blocks[np.arange(nb), :, np.arange(nb), :]
    factor.mask_padding()
    return factor


def _materialize_chain(factors) -> np.ndarray:
    """Dense product of a factor sub-chain."""
    x = np.eye(factors[-1].cols)
    for f in reversed(factors):
        x = f.apply(x)
    return x


def _polish_chain(target: np.ndarray, factors, iters: int) -> None:
    """Global alternating refinement of the chain's endpoint factors.

    The first and last factors admit exact separable LS solves against
    the materialised product of the *other* factors, so sweeping them
    is coordinate descent on ``‖D − S₁…S_J‖_F`` — it monotonically
    decreases the error and, for J = 2, refines the entire chain.
    (Middle factors of deeper chains are not separable; they keep their
    hierarchical fit.)
    """
    for _ in range(max(iters, 1)):
        _solve_blocks_given_rhs(factors[0], target,
                                _materialize_chain(factors[1:]))
        _solve_blocks_given_lhs(factors[-1], target,
                                _materialize_chain(factors[:-1]))


def fit_fast_dict(dictionary, *, rc: float = 0.25, levels: int = 2,
                  iters: int = 10, seed=None) -> FastDict:
    """Fit ``D ≈ S₁…S_J`` with ``nnz(S₁…S_J) ≈ rc·M·L``.

    Greedy hierarchical splits: at each level the current remainder
    ``T`` is factored as ``T ≈ F·G`` with ``F`` block-diagonal-times-
    permutation (exactly solvable per block) and ``G`` dense; the last
    remainder is projected onto the final block factor.  For
    ``levels == 2`` a global alternating polish refines both factors
    against the original ``D``.

    Parameters
    ----------
    dictionary:
        A dense :class:`~repro.core.dictionary.Dictionary` (or a bare
        ``(M, L)`` array).
    rc:
        Relative-complexity budget in (0, 1] — the modeled apply
        speedup is ``1/rc``.
    levels:
        Number of factors J ≥ 2.  More levels allow asymptotically
        lower RC at equal error on structured dictionaries, at the
        price of a harder (purely hierarchical) fit.
    seed:
        Seeds the randomised range-finder initialisation; same seed,
        same factorisation.

    Returns
    -------
    FastDict
        With ``residual = ‖D − Ŝ‖_F/‖D‖_F`` recorded.
    """
    cfg = FastDictConfig(rc=rc, levels=levels, iters=iters)
    atoms = getattr(dictionary, "atoms", None)
    if atoms is None:
        atoms = np.asarray(dictionary, dtype=np.float64)
        indices = np.arange(atoms.shape[1], dtype=np.int64)
    else:
        atoms = np.asarray(atoms, dtype=np.float64)
        indices = dictionary.indices
    if atoms.ndim != 2 or atoms.shape[0] < 2 or atoms.shape[1] < 2:
        raise ValidationError(
            f"fit_fast_dict needs a 2-D dictionary, got shape {atoms.shape}")
    m, l = atoms.shape
    k = min(m, l)
    dims = [m] + [k] * (cfg.levels - 1) + [l]
    budget = cfg.rc * m * l / cfg.levels
    rng = as_generator(seed)

    factors = []
    remainder = atoms
    for j in range(cfg.levels - 1):
        factor, remainder = _split_two(remainder, dims[j], dims[j + 1],
                                       budget, rng, cfg.iters, first=(j == 0))
        factors.append(factor)
    factors.append(_final_factor(remainder, dims[-2], dims[-1], budget))
    _polish_chain(atoms, factors, cfg.iters)

    fd = FastDict(factors, indices=indices)
    fd.residual = relative_frobenius_error(atoms, fd.atoms)
    return fd
