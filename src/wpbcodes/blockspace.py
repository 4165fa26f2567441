"""The weighted poset block space: labelings, weights, distances, balls.

A space is (P, pi, w) over GF(q): poset P on {1..s}, block sizes
pi = (k_1..k_s) partitioning the n coordinates, and a coordinate weight w.
The weight of a vector u is

    sum over maximal blocks of the ideal generated by supp(u)
        of the max coordinate weight in that block,
    plus max_weight for every non-maximal block of the ideal.

Vectors are tuples of ints in the public API.  wpb_weight evaluates the
formula through the order ideal, one vector at a time; it is the oracle the
tests compare the batch engine against.  Exhaustive scans go through the
batch engine, whose kernel is pair_weights: the weights w(x - c) of every
pair of a tile of rows x and words c (batch_weights is the case c = 0),
from the block maxima bm_i of x - c alone.  The non-maximal blocks of the
ideal are exactly the blocks strictly below some nonzero block, its maximal
blocks are nonzero, and every other block has bm_i = 0, so

    w(u) = sum_i (max_weight if block i lies strictly below a nonzero
                  block, else bm_i),

which is one small float32 matmul per tile, or a lookup in a table of all
(max_weight + 1)^s block-max tuples when that table fits in one chunk.

The block maxima come from lookups in pair tables, so x - c is never
formed.  Each block is cut into pieces of at most t coordinates, t the
largest with q^(2t) <= _PIECE_CODES, and the pair table of a piece length m
holds max_j w(a_j - b_j) at a * q^m + b for all a, b in F_q^m.  piece_codes
turns an (N, n) array into the odometer codes of its pieces with one small
float32 product: offset + a * q^m for the rows x (the offset points into
the concatenation of the tables of all lengths), b for the words c.  One
gather on the sums of the two gives every piece maximum of the tile.  When
every block is a single piece (k_i <= t) those are the block maxima; a
block split into several pieces folds each later piece into its first with
one elementwise maximum.  The whole space is enumerated in odometer order
(last coordinate fastest) in chunks.

The table index sum_i (max_weight + 1)^(s-i) bm_i is separable: bm_i
depends on block i alone, so cutting the coordinates at p into a head
0..p-1 and a tail p..n-1 (cut) makes the index of x - c a head part plus a
tail part when x is a head row plus a tail row.  Each part is the same
gather and fold on the piece plan of the blocks' parts on its side
(_Side.index), with the part maxima weighted by their digits.  The block
that p falls inside contributes r_i max(head part max, tail part max),
which no sum of the two gives, so its tail part gets a new top digit
(max_weight + 1)^s and the cut's table, (max_weight + 1) times the size,
takes the maximum.  A pass then costs one add and one gather per (x, c)
entry (_Cut.weights) once the parts are built.

Ball sizes enumerate nothing.  The metric is translation-invariant, so
|B(c, r)| counts the vectors of weight <= r, and the weight depends only on
the ideal I the support generates: with M the maximal elements of I, each
vector generating I has weight max_weight * |I - M| + sum_{i in M} bm_i.
So the vectors of weight r number the coefficient of x^r in

    sum over ideals I of  prod_{i in I - M} q^(k_i) x^max_weight
                        * prod_{i in M} sum_{m >= 1} N_{k_i}(m) x^m,

with N_k(m) = L(m)^k - L(m - 1)^k the blocks of size k with maximum
coordinate weight m, L(m) = #{a : w(a) <= m}.  weight_spectrum sums over
the ideals with a DP that walks the elements top down, each as soon as
every element above it is done (the most recently unlocked first, which
keeps the states few).  A state is the set of unprocessed elements forced
into the ideal by lying strictly below an element taken as maximal.  A
forced element contributes q^(k_i) x^max_weight; a free one is either left
out or taken as maximal, which forces its strict down-set.  Equal states
merge by adding their polynomials, which are exact ints truncated at the
radius.  The states never outnumber the ideals (at most 2^s <= q^n), and
the enumeration cap bounds them.

Every computation that enumerates (vectors, codewords, vector x codeword or
word pairs, words built, DP states) or builds a piece plan (pieces x
coordinates entries in each of its two code matrices) passes its count to
charge before it starts, which raises SpaceTooLarge when the count exceeds
the enumeration cap: DEFAULT_MAX_SPACE unless a caller sets another for a
block of code with `with enumeration_cap(cap):`.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import LengthMismatch, OutOfRange, SpaceTooLarge
from .field import Field
from .poset import Poset
from .weights import WeightFn, hamming_weight

DEFAULT_MAX_SPACE = 1 << 24
_CHUNK = 1 << 14
# bound on the q^(2 len) entries of the pair table of one piece length
_PIECE_CODES = 1 << 16

Vector = tuple[int, ...]

_cap: ContextVar[int] = ContextVar("enumeration_cap", default=DEFAULT_MAX_SPACE)


@contextmanager
def enumeration_cap(cap: int) -> Iterator[None]:
    """Make `cap` the enumeration cap that charge enforces inside the with
    block; the previous cap is restored on leaving it, also on an error."""
    token = _cap.set(cap)
    try:
        yield
    finally:
        _cap.reset(token)


def charge(count: int, what: str) -> None:
    """Raise SpaceTooLarge, before any work starts, when a computation of
    `count` units (`what` names them) exceeds the enumeration cap."""
    cap = _cap.get()
    if count > cap:
        raise SpaceTooLarge(f"{what} = {count} exceeds the enumeration cap {cap}")


class _PiecePlan(NamedTuple):
    """The pair kernel's piece plan (see BlockSpace._pieces)."""

    left: np.ndarray  # (pieces, n) float32: piece code a times q^len
    right: np.ndarray  # (pieces, n) float32: piece code b
    offsets: np.ndarray  # (pieces, 1) float32: start of the piece's pair table
    table: np.ndarray  # the pair tables of all piece lengths, concatenated
    extra: tuple[tuple[int, int], ...]  # (piece, block) for later pieces


def _block_maxima(plan: _PiecePlan, codes: np.ndarray) -> np.ndarray:
    """The max coordinate weight of each block of the plan, for the summed
    piece codes of x and c (pieces first): one gather of the piece maxima
    in the pair tables, then one elementwise maximum per later piece of a
    split block."""
    pieces = plan.table.take(codes)
    blockmax = pieces[: len(pieces) - len(plan.extra)]
    for p, i in plan.extra:
        np.maximum(blockmax[i], pieces[p], out=blockmax[i])
    return blockmax


class _Side(NamedTuple):
    """The coordinates lo..hi-1 of a cut (BlockSpace.cut): the piece plan of
    the parts of the blocks in them, and the digit of each part's maximum
    in the index of the cut's table."""

    lo: int
    hi: int
    plan: _PiecePlan
    digits: np.ndarray  # (parts,) float32

    def row_codes(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(pieces, X) intp left piece codes of the rows x of an (X, |cols|)
        uint8 array, given on the coordinates cols (in lo..hi-1) and zero
        on the rest of the side."""
        plan = self.plan
        return (plan.left[:, cols - self.lo] @ rows.T + plan.offsets).astype(np.intp)

    def word_codes(self, words: np.ndarray) -> np.ndarray:
        """(pieces, C) intp right piece codes of the side's coordinates of
        the words of a (C, n) uint8 array."""
        return (self.plan.right @ words[:, self.lo : self.hi].T).astype(np.intp)

    def index(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """(X, C) intp: the side's part of the cut-table index of x - c for
        the row codes of X rows and the word codes of C words, the block
        maxima weighted by their digits in one float32 product, exact since
        the index stays below _CHUNK."""
        blockmax = _block_maxima(self.plan, left[:, :, None] + right[:, None, :])
        flat = blockmax.reshape(len(self.digits), -1)
        return (self.digits @ flat).astype(np.intp).reshape(blockmax.shape[1:])


class _Cut(NamedTuple):
    """A cut of the coordinates into a head and a tail (BlockSpace.cut)."""

    head: _Side
    tail: _Side
    table: np.ndarray  # weight by head index + tail index

    def weights(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """The (X, C, T) tile w(x - c) for the (X, C) head index of X head
        rows and the (C, T) tail index of T tail rows, x the head row plus
        the tail row: one add and one gather per entry."""
        return self.table.take(head[:, :, None] + tail)


@dataclass(frozen=True)
class Labeling:
    """Block sizes k_1..k_s; block i occupies coordinates offset_i..offset_i+k_i-1."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 1:
            raise ValueError("labeling needs at least one block")
        if any(k < 1 for k in self.sizes):
            raise ValueError(f"block sizes must be >= 1, got {self.sizes}")
        object.__setattr__(self, "sizes", tuple(int(k) for k in self.sizes))

    @property
    def s(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.sizes[:-1], initial=0))

    def block_slice(self, i: int) -> slice:
        """Coordinate slice of block i (1-based)."""
        if not 1 <= i <= self.s:
            raise OutOfRange(f"block {i} outside 1..{self.s}")
        start = self.offsets[i - 1]
        return slice(start, start + self.sizes[i - 1])


class BlockSpace:
    """(GF(q)^n, d_{w,(P,pi)}) for a poset P, labeling pi and weight w."""

    def __init__(self, poset: Poset, labeling: Labeling, field: Field, weight: WeightFn):
        if poset.s != labeling.s:
            raise ValueError(
                f"poset has {poset.s} elements but labeling has {labeling.s} blocks"
            )
        if weight.field != field:
            raise ValueError("weight is defined over a different field")
        self.poset = poset
        self.labeling = labeling
        self.field = field
        self.weight = weight
        self.n = labeling.n
        self.s = labeling.s
        self.q = field.q
        self.size: int = field.q**self.n
        self._slices = tuple(labeling.block_slice(i) for i in range(1, self.s + 1))

        # batch-engine tables
        # (nonzero @ strict)[v, j] > 0  iff  block j lies strictly below a
        # nonzero block of v
        leq = poset.matrix()
        self._strict = (leq & ~np.eye(self.s, dtype=bool)).T.astype(np.float32)
        # radix of a block-max tuple's index in _bm_table, or None when the
        # (max_weight + 1)^s tuples exceed one chunk; exact in float32 since
        # indices stay below _CHUNK <= 2^24
        base = weight.max_weight + 1
        self._bm_radix = (
            (base ** np.arange(self.s - 1, -1, -1)).astype(np.float32)
            if base**self.s <= _CHUNK
            else None
        )
        self._radix = self.q ** np.arange(self.n - 1, -1, -1, dtype=np.int64)

    # vector plumbing --------------------------------------------------------

    def _coerce(self, u: Sequence[int]) -> Vector:
        """u as a validated tuple: length n, every coordinate an integer in
        0..q-1 (floats, bools, strings and other types are rejected, not
        truncated)."""
        if iter(u) is u:  # a one-shot iterator: read it once
            u = tuple(u)
        try:
            v = tuple(map(operator.index, u))
        except TypeError:
            raise ValueError(f"coordinates must be integers in 0..{self.q - 1}") from None
        if len(v) != self.n:
            raise LengthMismatch(f"vector has length {len(v)}, ambient n={self.n}")
        if min(v) < 0 or max(v) >= self.q:
            raise ValueError(f"coordinates must lie in 0..{self.q - 1}")
        if bool in map(type, u):
            raise ValueError(f"coordinates must be integers in 0..{self.q - 1}, got a bool")
        return v

    def _coerce_rows(self, rows: Iterable[Sequence[int]]) -> np.ndarray:
        """Vectors validated as one (m, n) uint8 array: every row of length
        n, every coordinate an integer (floats, bools and other types are
        rejected, not truncated) in 0..q-1.  An array is taken as it is;
        numpy upcasts bools mixed with ints, so rows that are not one array
        are scanned for bools."""
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
            short = next((len(r) for r in rows if len(r) != self.n), None)
            if short is not None:
                raise LengthMismatch(f"vector has length {short}, ambient n={self.n}")
            if not rows:
                return np.zeros((0, self.n), dtype=np.uint8)
            if not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(rows))):
                raise ValueError(f"coordinates must be integers in 0..{self.q - 1}, got a bool")
            rows = np.array(rows).reshape(len(rows), self.n)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise LengthMismatch(f"vector has length {rows.shape[-1]}, ambient n={self.n}")
        if rows.dtype.kind not in "iu":
            raise ValueError(f"coordinates must be integers in 0..{self.q - 1}, got {rows.dtype}")
        if len(rows) and (rows.min() < 0 or rows.max() >= self.q):
            raise ValueError(f"coordinates must lie in 0..{self.q - 1}")
        return rows.astype(np.uint8)

    def zero(self) -> Vector:
        return (0,) * self.n

    def add(self, u: Sequence[int], v: Sequence[int]) -> Vector:
        a, b = self._coerce(u), self._coerce(v)
        return tuple(self.field.add(x, y) for x, y in zip(a, b))

    def sub(self, u: Sequence[int], v: Sequence[int]) -> Vector:
        a, b = self._coerce(u), self._coerce(v)
        return tuple(self.field.sub(x, y) for x, y in zip(a, b))

    def neg(self, u: Sequence[int]) -> Vector:
        return tuple(self.field.neg(x) for x in self._coerce(u))

    def block(self, u: Sequence[int], i: int) -> Vector:
        return self._coerce(u)[self.labeling.block_slice(i)]

    # the metric -------------------------------------------------------------

    def block_support(self, u: Sequence[int]) -> frozenset[int]:
        """Indices of nonzero blocks (1-based)."""
        return frozenset(self._support(self._coerce(u)))

    def _support(self, v: Vector) -> list[int]:
        return [i for i, sl in enumerate(self._slices, 1) if any(v[sl])]

    def block_max_weight(self, u: Sequence[int], i: int) -> int:
        """Max coordinate weight within block i."""
        return max(self.weight(x) for x in self.block(u, i))

    def wpb_weight(self, u: Sequence[int]) -> int:
        """The weighted poset block weight of u (direct formula evaluation)."""
        v = self._coerce(u)
        supp = self._support(v)
        if not supp:
            return 0
        ideal = self.poset.ideal(supp)
        maximal = self.poset.maximal_elements(ideal)
        table = self.weight.table
        top = sum(max(table[x] for x in v[self._slices[i - 1]]) for i in maximal)
        return top + self.weight.max_weight * (len(ideal) - len(maximal))

    def wpb_distance(self, u: Sequence[int], v: Sequence[int]) -> int:
        return self.wpb_weight(self.sub(u, v))

    # siblings ---------------------------------------------------------------

    def with_weight(self, weight: WeightFn) -> BlockSpace:
        """Same poset/labeling/field under a different coordinate weight."""
        return BlockSpace(self.poset, self.labeling, self.field, weight)

    def hamming_sibling(self) -> BlockSpace:
        return self.with_weight(hamming_weight(self.field))

    # batch engine -----------------------------------------------------------

    def batch_weights(self, arr: np.ndarray) -> np.ndarray:
        """Weights of the rows of an (N, n) uint8 array: the pair kernel
        against the zero word (the b = 0 column of the pair tables)."""
        return self.pair_weights(self.piece_codes(arr))

    def piece_codes(self, arr: np.ndarray, left: bool = True) -> np.ndarray:
        """(pieces, N) intp piece codes of the rows of an (N, n) uint8
        array, for pair_weights: offset + a * q^len as its left operand,
        the odometer code b of each piece as its right one."""
        plan = self._pieces
        codes = (plan.left if left else plan.right) @ arr.T
        if left:
            codes += plan.offsets
        return codes.astype(np.intp)

    def pair_weights(self, left: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
        """w(x - c) for the piece codes of x (left) and c (right), which
        broadcast against each other after their leading piece axis (e.g.
        (pieces, X, 1) and (pieces, 1, C) give the (X, C) matrix); without
        right, w(x).  The block maxima (_block_maxima), then the
        strictly-below identity (module docstring), looked up in the table
        of block-max tuples when it has at most _CHUNK entries."""
        blockmax = _block_maxima(self._pieces, left if right is None else left + right)
        flat = blockmax.reshape(self.s, -1)
        if self._bm_radix is None:
            weights = self._below_weights(flat.T)
        else:
            weights = self._bm_table[(self._bm_radix @ flat).astype(np.intp)]
        return weights.reshape(blockmax.shape[1:])

    def cut(self, p: int) -> _Cut | None:
        """The cut of the coordinates into a head 0..p-1 and a tail p..n-1
        (0 < p < n), for passes whose rows x split the same way: the index
        of the block-max tuple of x - c in the table is the sum of a head
        part and a tail part, each a _Side.index.  A block inside one side
        has its usual digit there.  The block that p falls inside has the
        maximum of its head part at its own digit and that of its tail part
        at a new top digit (max_weight + 1)^s; the cut's table then holds
        the weight of the tuple with that block's maximum the larger of the
        two.  None when the space has no block-max table or the cut's table
        would exceed _CHUNK entries."""
        if self._bm_radix is None:
            return None
        base, digits, table = self.weight.max_weight + 1, self._bm_radix, self._bm_table
        spans = [(start, start + k) for start, k in zip(self.labeling.offsets, self.labeling.sizes)]
        head = tuple(min(end, p) - start for start, end in spans if start < p)
        tail = tuple(end - max(start, p) for start, end in spans if end > p)
        tail_digits = digits[len(head) :]
        if len(head) + len(tail) > self.s:  # block b straddles p
            b = len(head) - 1
            if base ** (self.s + 1) > _CHUNK:
                return None
            grid = table.reshape((base,) * self.s)
            table = np.concatenate(
                [grid.take(np.maximum(np.arange(base), m), axis=b).ravel() for m in range(base)]
            )
            tail_digits = np.append(np.float32(base**self.s), digits[b + 1 :])
        return _Cut(
            _Side(0, p, self._plan(head), digits[: len(head)]),
            _Side(p, self.n, self._plan(tail), tail_digits),
            table,
        )

    @cached_property
    def _pieces(self) -> _PiecePlan:
        """The piece plan of the pair kernel, looked up on its first call."""
        return self._plan(self.labeling.sizes)

    def _plan(self, sizes: tuple[int, ...]) -> _PiecePlan:
        """The piece plan of consecutive blocks of the given sizes: t is the
        largest piece length with q^(2t) <= _PIECE_CODES (t >= 1 for every
        q <= 256).  Charges its pieces x sum(sizes) code-matrix entries."""
        t = 1
        while self.q ** (2 * t + 2) <= _PIECE_CODES:
            t += 1
        pieces = sum(-(-k // t) for k in sizes)
        charge(pieces * sum(sizes), "piece-plan entries")
        return _piece_plan(self.field, self.weight.table, sizes, t)

    @cached_property
    def _bm_table(self) -> np.ndarray:
        """Weights of all (max_weight + 1)^s block-max tuples in odometer
        order, built on the first table lookup."""
        base = self.weight.max_weight + 1
        return self._below_weights(np.indices((base,) * self.s).reshape(self.s, -1).T)

    def _below_weights(self, blockmax: np.ndarray) -> np.ndarray:
        below = (blockmax > 0).astype(np.float32) @ self._strict > 0
        return np.where(below, self.weight.max_weight, blockmax).sum(axis=1, dtype=np.int64)

    def unrank(self, r: int) -> Vector:
        """The vector of odometer rank r in 0..q^n-1 (last coordinate
        fastest), in Python ints, so exact at any n."""
        r = operator.index(r)
        if not 0 <= r < self.size:
            raise OutOfRange(f"rank {r} outside 0..{self.size - 1}")
        return tuple(r // self.q ** (self.n - 1 - i) % self.q for i in range(self.n))

    def iter_chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (start_rank, (B, n) uint8 array) covering F_q^n in odometer
        order; charges q^n."""
        charge(self.size, "q^n")
        return odometer_chunks(self.q, self.n)

    def all_vectors(self) -> np.ndarray:
        """The whole space as one (q^n, n) array; charges q^n."""
        charge(self.size, "q^n")
        return odometer_table(self.q, self.n)

    # balls ------------------------------------------------------------------

    def ball(self, center: Sequence[int], radius: int) -> list[Vector]:
        """All v with d(center, v) <= radius, in odometer order."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        c = np.asarray(self._coerce(center), dtype=np.uint8)
        out: list[Vector] = []
        for _, arr in self.iter_chunks():
            d = self.batch_weights(self.field.sub_table[arr, c[None, :]])
            for row in arr[d <= radius]:
                out.append(tuple(int(x) for x in row))
        return out

    def ball_size(self, center: Sequence[int], radius: int) -> int:
        """|B(center, radius)|: d(c, v) = w(v - c) and v -> v - c permutes
        F_q^n, so this is the weight spectrum summed up to the radius; no
        vector is enumerated, and the cap bounds the DP's live states."""
        self._coerce(center)
        return sum(self.weight_spectrum(radius))

    def weight_spectrum(self, radius: int | None = None) -> list[int]:
        """counts[r] = #{u in F_q^n : w(u) = r} for r = 0..top, as exact
        ints; top is s * max_weight (the largest weight), or radius when
        that is smaller.

        The ideal DP of the module docstring: elements are processed top
        down, each as soon as every element above it is done, the most
        recently unlocked first; a state is the set (bitmask) of unprocessed
        elements forced into the ideal, and maps to a polynomial in the
        weight.  Charges the live states of each step, so it raises
        SpaceTooLarge when they exceed the enumeration cap.
        """
        mw = self.weight.max_weight
        top = self.s * mw if radius is None else min(radius, self.s * mw)
        if top < 0:
            raise ValueError("radius must be >= 0")
        # at_most[m] = L(m) = #{a in GF(q) : w(a) <= m}
        at_most = [sum(v <= m for v in self.weight.table) for m in range(mw + 1)]
        leq = self.poset.matrix()
        below = [sum(1 << j for j in range(self.s) if leq[j, i] and j != i) for i in range(self.s)]
        above = [int(leq[i].sum()) - 1 for i in range(self.s)]
        ready = [i for i in range(self.s) if not above[i]]
        states = {0: [1] + [0] * top}
        while ready:
            i = ready.pop()
            k, bit = self.labeling.sizes[i], 1 << i
            # N_k(m) = L(m)^k - L(m-1)^k blocks of maximum m, for m >= 1
            maximal = [
                (m, at_most[m] ** k - at_most[m - 1] ** k)
                for m in range(1, min(mw, top) + 1)
                if at_most[m] > at_most[m - 1]
            ]
            full = self.q**k
            nxt: dict[int, list[int]] = {}
            for state, poly in states.items():
                if state & bit:  # non-maximal: any block, weight max_weight
                    _merge(nxt, state ^ bit, ([0] * mw + [c * full for c in poly])[: top + 1])
                    continue
                _merge(nxt, state, poly)  # outside the ideal
                taken = [0] * (top + 1)  # maximal: a nonzero block
                for m, count in maximal:
                    taken[m:] = [t + count * c for t, c in zip(taken[m:], poly)]
                _merge(nxt, state | below[i], taken)
            charge(len(nxt), "weight-spectrum DP states")
            states = nxt
            for j in range(self.s):
                if below[i] >> j & 1:
                    above[j] -= 1
                    if not above[j]:
                        ready.append(j)
        return states[0]

    def __repr__(self) -> str:
        return (
            f"BlockSpace(q={self.q}, sizes={self.labeling.sizes}, "
            f"weight={self.weight.name}, covers={self.poset.cover_pairs()})"
        )


@lru_cache(maxsize=256)
def _piece_plan(
    field: Field, weights: tuple[int, ...], sizes: tuple[int, ...], t: int
) -> _PiecePlan:
    """The pair kernel's piece plan for block sizes `sizes` under the weight
    table `weights`, a pure function of its arguments, so that equal spaces share
    one plan (its arrays are read-only).  Each block is cut into pieces of
    at most t coordinates; row i < s of the codes is the first piece of
    block i + 1, so those rows are the block maxima once the later pieces
    are folded in.  The pair table of a piece length m holds
    max_j w(a_j - b_j) at a * q^m + b for all a, b in F_q^m; the tables of
    the lengths that occur are concatenated, fewer than 2 * _PIECE_CODES
    entries, so the float32 codes are exact."""
    q = field.q
    wt = np.asarray(weights, dtype=np.min_scalar_type(max(weights)))
    first: list[tuple[int, int]] = []  # (first coordinate, length)
    later: list[tuple[int, int]] = []
    blocks: list[int] = []
    for i, (start, k) in enumerate(zip(accumulate(sizes[:-1], initial=0), sizes)):
        cuts = [(c, min(t, start + k - c)) for c in range(start, start + k, t)]
        first.append(cuts[0])
        later += cuts[1:]
        blocks += [i] * (len(cuts) - 1)
    pieces = first + later
    right = np.zeros((len(pieces), sum(sizes)), dtype=np.float32)
    for p, (c, length) in enumerate(pieces):
        right[p, c : c + length] = q ** np.arange(length - 1, -1, -1)
    lengths = np.array([length for _, length in pieces])
    kinds = sorted(set(lengths.tolist()))
    part = dict(zip(kinds, np.cumsum([0] + [q ** (2 * m) for m in kinds])))
    # w(a - b) for single coordinates, maximised over the coordinates
    # of a piece in one broadcast per coordinate
    single = wt[field.sub_table]
    tables = []
    for m in kinds:
        table = np.zeros((q,) * 2 * m, dtype=wt.dtype)
        for j in range(m):
            shape = [1] * 2 * m
            shape[j] = shape[m + j] = q
            np.maximum(table, single.reshape(shape), out=table)
        tables.append(table.ravel())
    plan = _PiecePlan(
        left=right * (q**lengths)[:, None].astype(np.float32),
        right=right,
        offsets=np.array([[part[m]] for m in lengths.tolist()], dtype=np.float32),
        table=np.concatenate(tables),
        extra=tuple(enumerate(blocks, len(sizes))),
    )
    for arr in plan[:4]:
        arr.flags.writeable = False
    return plan


def _merge(states: dict[int, list[int]], key: int, poly: list[int]) -> None:
    """Add poly into states[key]."""
    old = states.get(key)
    states[key] = poly if old is None else [a + b for a, b in zip(old, poly)]


def odometer_table(q: int, m: int) -> np.ndarray:
    """F_q^m as one (q^m, m) uint8 array in odometer order (last coordinate
    fastest); column j repeats each digit q^(m-1-j) times, q^j times over."""
    out = np.empty((q**m, m), dtype=np.uint8)
    digits = np.arange(q, dtype=np.uint8)
    for j in range(m):
        out.reshape(q**j, q, q ** (m - 1 - j), m)[:, :, :, j] = digits[None, :, None]
    return out


def odometer_chunks(q: int, m: int, rows: int = _CHUNK) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_rank, (B, m) uint8 array) covering F_q^m in odometer
    order, with 1 <= B <= rows.

    The last t coordinates come from one table of F_q^t, the largest with
    q^t <= rows; each chunk tiles it against a few consecutive values of the
    leading m - t coordinates.
    """
    t = 0
    while t < m and q ** (t + 1) <= rows:
        t += 1
    tail = odometer_table(q, t)
    per = rows // len(tail)
    lead = m - t
    heads = q**lead
    radix = q ** np.arange(lead - 1, -1, -1, dtype=np.int64)
    for lo in range(0, heads, per):
        hi = min(lo + per, heads)
        head = (np.arange(lo, hi, dtype=np.int64)[:, None] // radix % q).astype(np.uint8)
        out = np.empty(((hi - lo) * len(tail), m), dtype=np.uint8)
        out[:, :lead] = np.repeat(head, len(tail), axis=0)
        out[:, lead:] = np.tile(tail, (hi - lo, 1))
        yield lo * len(tail), out


def parse_vector(text: str) -> Vector:
    """Comma-separated integers -> vector tuple."""
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    return tuple(int(p) for p in parts)


def format_vector(u: Iterable[int]) -> str:
    return ",".join(str(int(x)) for x in u)
