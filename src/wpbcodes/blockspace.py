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

which is one boolean product per tile, or a lookup in a table of all
(max_weight + 1)^s block-max tuples when that table fits in one chunk.

The block maxima come from lookups in pair tables, so x - c is never
formed.  Each block is cut into pieces of at most t coordinates, t the
largest with q^(2t) <= _PIECE_CODES, and the pair table of a piece length m
holds max_j w(a_j - b_j) at a * q^m + b for all a, b in F_q^m.  The piece
plan (_PiecePlan) owns the odometer codes of the pieces: offset + a * q^m
for the rows x (the offset points into the concatenation of the tables of
all lengths), b for the words c.  It gives those of the rows of an array
with one small integer product (codes), and those of the rows of F_q^cols,
which a pass or a ball enumerates in odometer order (last coordinate
fastest), with one broadcast add per column, no row array being built
(row_codes, odometer_codes).  One gather on the sums of the two gives every
piece maximum of the tile.  When every block is a single piece (k_i <= t)
those are the block maxima; a block split into several pieces folds each
later piece into its first with one elementwise maximum.  The engine is
integer throughout: the piece codes are intp, and every index of a
block-max tuple is uint16, since no table of them, the kernel's or a
cut's, has more than _CHUNK < 2^16 entries.

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
entry (_Cut.weights) once the parts are built.  Both are narrow (_Cut):
the parts are uint16 indices, and the table holds weights of at most
s * max_weight <= 254, so it is uint8.  The kernel's own table and results
stay int64, since callers add weights.

A piece plan depends only on q, the weight table and the block sizes (and
on t and _CHUNK), not on the order relation.  So every plan, a space's
and those of the heads and tails of its cuts, comes from one process-wide
lookup keyed by just those (_plan): spaces that differ only in their poset
share one plan, and so does a cut side whose block sizes are another
space's.  Every other table depends on the space's whole shape: q,
the weight table, the order relation and the block sizes.  So a space
holds a kernel (_Kernel), one per shape in the process (_kernel, an lru
cache keyed by the shape and by the _CHUNK and _PIECE_CODES it was sized
under, so patching either constant gives fresh decisions): its
strictly-below matrix and block-max radix, and, built on first use, its
block-max table and the table and digits of each cut.  Equal spaces,
with_weight siblings under equal tables and every Instance.build() of one
shape share it, and every array a kernel or a plan keeps is read-only.
Every plan lookup charges the plan's entries, whether the cache built the
plan or kept it, so SpaceTooLarge never depends on what the process ran
before.

The kept memory is bounded.  At most 256 piece plans are cached
(_piece_plan), and a cut holds its sides' plans only while a pass uses it,
so the kernels keep none.  A plan of P pieces over n coordinates holds two
P x n intp code matrices and pair tables of fewer than 2 * _PIECE_CODES
entries of at most 8 bytes (16Pn bytes + 1 MiB), and row codes of at most
P * _CHUNK intp in all (P * 128 KiB), those of further column sets being
built on every call.  At most 512 kernels are cached, enough for the
463-495 shapes a full verify run builds at seeds 0-3, so no such run
builds a shape's kernel twice.  A kernel of n coordinates and s blocks
holds at most its bool strictly-below matrix and uint16 radix (s^2 + 2s
bytes), its block-max table of at most _CHUNK int64 (128 KiB) and n - 1
cuts, each a table of at most _CHUNK uint8 (16 KiB) and at most s + 1
uint16 digits.

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
word pairs, words built, DP states), uses a piece plan (pieces x
coordinates entries in each of its two code matrices) or loads an instance
document (its poset elements and coordinates) passes its count to charge
before it starts, which raises SpaceTooLarge when the count exceeds
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
from .field import Field, make_field
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


class _Side(NamedTuple):
    """The coordinates lo..hi-1 of a cut (BlockSpace.cut): the piece plan of
    the parts of the blocks in them, and the digit of each part's maximum
    in the index of the cut's table."""

    lo: int
    hi: int
    plan: _PiecePlan
    digits: np.ndarray  # (parts,) uint16

    def index(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """(X, C) uint16: the side's part of the cut-table index of x - c for
        the left piece codes of X rows and the right ones of C words
        (_PiecePlan.index).  The cut's table has at most _CHUNK < 2^16
        entries, so a head part plus a tail part is a valid uint16 index as
        well."""
        return self.plan.index(left[:, :, None] + right[:, None, :], self.digits)


class _Cut(NamedTuple):
    """A cut of the coordinates into a head and a tail (BlockSpace.cut).

    The table is narrow.  Its weights are at most s * max_weight, and a
    cut exists only when its table has at most _CHUNK = 2^14 entries:
    (max_weight + 1)^s with s >= 2 when the cut falls on a block boundary,
    (max_weight + 1)^(s + 1) when it falls inside a block.  So
    s * max_weight <= 254, reached at s = 2, max_weight = 127, and the
    table is uint8, whose maximum 255 stays above every weight, so a pass
    can mask entries with it.  The indices are uint16 (_Side.index), so a
    tile of a pass costs a uint16 add and a gather from a uint8 table per
    entry."""

    head: _Side
    tail: _Side
    table: np.ndarray  # weight by head index + tail index, uint8 (above)

    def weights(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """The (X, C, T) tile w(x - c), in the table's dtype, for the (X, C)
        head index of X head rows and the (C, T) tail index of T tail rows,
        x the head row plus the tail row: one add and one gather per entry."""
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
        self._kernel = _kernel(weight.table, poset, labeling.sizes, _CHUNK, _PIECE_CODES)
        self._slices = self._kernel.slices

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
        return self.pair_weights(self.plan().codes(arr))

    def plan(self) -> _PiecePlan:
        """The piece plan of the space's kernel, which gives the piece codes
        of rows and words for pair_weights (_PiecePlan.codes, row_codes,
        odometer_codes); charges its entries on every call (_plan)."""
        return self._kernel.plan()

    def pair_weights(self, left: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
        """w(x - c) for the piece codes of x (left) and c (right), which
        broadcast against each other after their leading piece axis (e.g.
        (pieces, X, 1) and (pieces, 1, C) give the (X, C) matrix); without
        right, w(x).  The block maxima (_PiecePlan.block_maxima), then the
        strictly-below identity (module docstring), looked up in the table
        of block-max tuples when it has at most _CHUNK entries."""
        return self._kernel.pair_weights(left if right is None else left + right)

    def columns(self, elements: tuple[int, ...]) -> np.ndarray:
        """The coordinates of the blocks of the given ascending elements,
        ascending, as a read-only intp array (_block_columns)."""
        return _block_columns(self.labeling.sizes, elements)

    def cut(self, p: int) -> _Cut | None:
        """The cut of the coordinates into a head 0..p-1 and a tail p..n-1
        (0 < p < n), for passes whose rows x split the same way: the index
        of the block-max tuple of x - c in the table is the sum of a head
        part and a tail part, each a _Side.index.  A block inside one side
        has its usual digit there.  The block that p falls inside has the
        maximum of its head part at its own digit and that of its tail part
        at a new top digit (max_weight + 1)^s; the cut's table then holds
        the weight of the tuple with that block's maximum the larger of the
        two, in the smallest unsigned dtype whose maximum exceeds
        s * max_weight (uint8 for every table of at most _CHUNK entries; see
        _Cut).  None when the space has no block-max table or the cut's table
        would exceed _CHUNK entries.  The table is kept by the space's
        kernel, and the two piece plans are looked up, each charged, on
        every call (_Kernel.cut)."""
        return self._kernel.cut(p)

    def unrank(self, r: int) -> Vector:
        """The vector of odometer rank r in 0..q^n-1 (last coordinate
        fastest), in Python ints, so exact at any n."""
        r = operator.index(r)
        if not 0 <= r < self.size:
            raise OutOfRange(f"rank {r} outside 0..{self.size - 1}")
        return tuple(r // self.q ** (self.n - 1 - i) % self.q for i in range(self.n))

    def all_vectors(self) -> np.ndarray:
        """The whole space as one (q^n, n) array; charges q^n."""
        charge(self.size, "q^n")
        return odometer_table(self.q, self.n)

    # balls ------------------------------------------------------------------

    def ball(self, center: Sequence[int], radius: int) -> list[Vector]:
        """All v with d(center, v) = w(v - center) <= radius, in odometer
        order; charges q^n.  The pair kernel runs on the piece codes of
        F_q^n in chunks (_PiecePlan.odometer_codes) against those of the
        center, and only the ranks kept become vectors."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        c = np.array([self._coerce(center)], dtype=np.uint8)
        charge(self.size, "q^n")
        plan = self.plan()
        right = plan.codes(c, left=False)
        radix = self.q ** np.arange(self.n - 1, -1, -1, dtype=np.intp)
        out: list[Vector] = []
        for start, left in plan.odometer_codes(np.arange(self.n), _CHUNK):
            ranks = start + np.flatnonzero(self.pair_weights(left, right) <= radius)
            out += map(tuple, (ranks[:, None] // radix % self.q).tolist())
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


class _Kernel:
    """The batch engine's tables that a space's shape fixes, sized under
    the given _CHUNK and _PIECE_CODES (module docstring): one per shape
    (_kernel), held by every space of that shape.  Its piece plans come
    from the plan cache (_plan)."""

    def __init__(
        self,
        weights: tuple[int, ...],
        poset: Poset,
        sizes: tuple[int, ...],
        chunk: int,
        piece_codes: int,
    ):
        self.weights, self.sizes, self.chunk = weights, sizes, chunk
        self.q, self.s, self.n = len(weights), len(sizes), sum(sizes)
        self.max_weight = max(weights)
        starts = accumulate(sizes[:-1], initial=0)
        self.slices = tuple(slice(a, a + k) for a, k in zip(starts, sizes))
        # t: the largest piece length with q^(2t) <= piece_codes (t >= 1 for
        # every q <= 256)
        self.t = 1
        while self.q ** (2 * self.t + 2) <= piece_codes:
            self.t += 1
        # (strict @ nonzero)[j, v]  iff  block j lies strictly below a nonzero
        # block of v
        self.strict = poset.matrix() & ~np.eye(self.s, dtype=bool)
        self.strict.flags.writeable = False
        # radix of a block-max tuple's index in bm_table, or None when the
        # (max_weight + 1)^s tuples exceed one chunk
        base = self.max_weight + 1
        self.radix = None
        if base**self.s <= chunk:
            self.radix = (base ** np.arange(self.s - 1, -1, -1)).astype(np.uint16)
            self.radix.flags.writeable = False
        # cut point -> the block sizes of its head and tail, its tail digits
        # and its table (_cut_parts), or None without a cut
        self._cuts: dict[int, tuple | None] = {}

    def plan(self, sizes: tuple[int, ...] | None = None) -> _PiecePlan:
        """The piece plan of blocks of the given sizes (the kernel's own by
        default) under the kernel's weights, t and chunk: _plan, which
        charges it on every call."""
        return _plan(self.weights, self.sizes if sizes is None else sizes, self.t, self.chunk)

    def pair_weights(self, codes: np.ndarray) -> np.ndarray:
        """BlockSpace.pair_weights for the summed piece codes of x and c."""
        plan = self.plan()
        if self.radix is not None:
            return self.bm_table[plan.index(codes, self.radix)]
        blockmax = plan.block_maxima(codes)
        return self._below_weights(blockmax.reshape(self.s, -1)).reshape(blockmax.shape[1:])

    @cached_property
    def bm_table(self) -> np.ndarray:
        """Weights of all (max_weight + 1)^s block-max tuples in odometer
        order, built on the first table lookup."""
        base = self.max_weight + 1
        table = self._below_weights(np.indices((base,) * self.s).reshape(self.s, -1))
        table.flags.writeable = False
        return table

    def _below_weights(self, blockmax: np.ndarray) -> np.ndarray:
        """The (N,) weights of the (s, N) block maxima of N vectors."""
        below = self.strict @ (blockmax > 0)
        return np.where(below, self.max_weight, blockmax).sum(axis=0, dtype=np.int64)

    def cut(self, p: int) -> _Cut | None:
        """BlockSpace.cut.  Looks up the head's and then the tail's piece
        plan (_plan, which charges each) on every call."""
        if p not in self._cuts:
            self._cuts[p] = self._cut_parts(p)
        if self._cuts[p] is None:
            return None
        head, tail, tail_digits, table = self._cuts[p]
        return _Cut(
            _Side(0, p, self.plan(head), self.radix[: len(head)]),
            _Side(p, self.n, self.plan(tail), tail_digits),
            table,
        )

    def _cut_parts(self, p: int) -> tuple | None:
        """The block sizes of the head's and the tail's parts of the blocks
        at a cut at p, the tail's digits and the cut's table (BlockSpace.cut),
        read-only, or None when there is no cut (no block-max table, or one
        whose straddling digit would exceed chunk entries)."""
        if self.radix is None:
            return None
        spans = [(s.start, s.stop) for s in self.slices]
        head = tuple(min(end, p) - start for start, end in spans if start < p)
        tail = tuple(end - max(start, p) for start, end in spans if end > p)
        base, digits = self.max_weight + 1, self.radix
        straddles = len(head) + len(tail) > self.s
        if straddles and base ** (self.s + 1) > self.chunk:
            return None
        table, tail_digits = self.bm_table, digits[len(head) :]
        if straddles:  # block b straddles p
            b = len(head) - 1
            grid = table.reshape((base,) * self.s)
            table = np.concatenate(
                [grid.take(np.maximum(np.arange(base), m), axis=b).ravel() for m in range(base)]
            )
            tail_digits = np.append(np.uint16(base**self.s), digits[b + 1 :])
            tail_digits.flags.writeable = False
        table = table.astype(np.min_scalar_type(self.s * self.max_weight + 1))
        table.flags.writeable = False
        return head, tail, tail_digits, table


@lru_cache(maxsize=512)
def _kernel(
    weights: tuple[int, ...],
    poset: Poset,
    sizes: tuple[int, ...],
    chunk: int,
    piece_codes: int,
) -> _Kernel:
    """The kernel of the spaces of one shape (the weight table, whose
    length is q, the order relation and the block sizes), sized under the
    given _CHUNK and _PIECE_CODES: equal spaces, and with_weight siblings
    under equal weight tables, share one (module docstring)."""
    return _Kernel(weights, poset, sizes, chunk, piece_codes)


class _PiecePlan:
    """The pair kernel's piece plan of consecutive blocks of the given sizes
    under the weight table `weights`, cut into pieces of at most t
    coordinates, and the owner of their piece codes.  Row i < s of the codes
    is the first piece of block i + 1, so those rows are the block maxima
    once the later pieces are folded in.  The pair table of a piece length
    m holds max_j w(a_j - b_j) at a * q^m + b for all a, b in F_q^m; the
    tables of the lengths that occur are concatenated, fewer than
    2 * _PIECE_CODES entries, which the intp codes index.  Built once per
    (weights, sizes, t, chunk) in the process (_plan); its arrays are
    read-only."""

    def __init__(self, weights: tuple[int, ...], sizes: tuple[int, ...], t: int, chunk: int):
        field = make_field(len(weights))  # a weight table has q entries
        q = self.q = field.q
        self.chunk = chunk
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
        right = np.zeros((len(pieces), sum(sizes)), dtype=np.intp)
        for p, (c, length) in enumerate(pieces):
            right[p, c : c + length] = q ** np.arange(length - 1, -1, -1)
        lengths = np.array([length for _, length in pieces], dtype=np.intp)
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
        self.left = right * (q**lengths)[:, None]  # code a times q^len
        self.right = right  # (pieces, n) intp: piece code b
        # (pieces, 1) intp: start of the piece's pair table
        self.offsets = np.array([[part[m]] for m in lengths.tolist()], dtype=np.intp)
        self.table = np.concatenate(tables)
        self.extra = tuple(enumerate(blocks, len(sizes)))  # (piece, block) for later pieces
        for arr in (self.left, self.right, self.offsets, self.table):
            arr.flags.writeable = False
        self._rows: dict[bytes, np.ndarray] = {}
        self._kept = 0  # row-code entries in _rows

    def codes(self, arr: np.ndarray, left: bool = True) -> np.ndarray:
        """(pieces, N) intp piece codes of the rows of an (N, n) uint8
        array, for pair_weights: offset + a * q^len as its left operand,
        the odometer code b of each piece as its right one."""
        if left:
            return self.left @ arr.T + self.offsets
        return self.right @ arr.T

    def row_codes(self, cols: np.ndarray) -> np.ndarray:
        """The left piece codes of the rows of F_q^cols in odometer order
        (zero off the columns cols), as a read-only (pieces, q^|cols|) intp
        array.  The codes of each cols are kept while the kept ones total at
        most pieces x chunk entries; later ones are built on every call."""
        key = cols.tobytes()
        codes = self._rows.get(key)
        if codes is None:
            codes = self._odometer(cols, self.offsets)
            codes.flags.writeable = False
            if self._kept + codes.size <= len(self.left) * self.chunk:
                self._kept += codes.size
                self._rows[key] = codes
        return codes

    def odometer_codes(self, cols: np.ndarray, rows: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (start_rank, (pieces, B) intp left piece codes) of the rows
        of F_q^cols (zero off the columns cols) in odometer order, in chunks
        of 1 <= B <= rows rows: the codes of the prefixes on the leading
        columns plus the kept codes (row_codes) of the table of the last t
        columns, t the largest with q^t <= rows, one broadcast add per
        chunk.  Each chunk but the last holds rows // q^t prefixes.  The
        codes of all q^(len(cols) - t) prefixes are built once per call,
        fewer than q * q^len(cols) / rows per piece."""
        q, m = self.q, len(cols)
        t = 0
        while t < m and q ** (t + 1) <= rows:
            t += 1
        tail = self.row_codes(cols[m - t :])
        if t == m:  # one chunk holds F_q^cols
            yield 0, tail
            return
        pieces, width = tail.shape
        lead = self._odometer(cols[: m - t], np.zeros((pieces, 1), dtype=np.intp))
        per = rows // width
        for lo in range(0, lead.shape[1], per):
            yield lo * width, (lead[:, lo : lo + per, None] + tail[:, None, :]).reshape(pieces, -1)

    def _odometer(self, cols: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """(pieces, R * q^|cols|) intp: each of the R columns of the
        (pieces, R) codes plus the left codes, without offsets, of the rows
        of F_q^cols in odometer order (zero off cols), the given columns
        most significant; one broadcast add per column of cols."""
        digits = np.arange(self.q, dtype=np.intp)
        for c in cols.tolist():
            step = self.left[:, c, None] * digits
            codes = (codes[:, :, None] + step[:, None, :]).reshape(len(step), -1)
        return codes

    def block_maxima(self, codes: np.ndarray) -> np.ndarray:
        """The max coordinate weight of each block of the plan, for the summed
        piece codes of x and c (pieces first): one gather of the piece maxima
        in the pair tables, then one elementwise maximum per later piece of a
        split block."""
        pieces = self.table.take(codes)
        blockmax = pieces[: len(pieces) - len(self.extra)]
        for p, i in self.extra:
            np.maximum(blockmax[i], pieces[p], out=blockmax[i])
        return blockmax

    def index(self, codes: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """The block maxima of summed piece codes weighted by their uint16
        digits in one uint16 product, shaped as the codes after their piece
        axis: the index of a block-max tuple in a kernel's or a cut's table,
        exact since no such table has more than _CHUNK < 2^16 entries."""
        blockmax = self.block_maxima(codes)
        return (digits @ blockmax.reshape(len(digits), -1)).reshape(blockmax.shape[1:])


# the plan cache: one _PiecePlan per (weights, sizes, t, chunk), shared by
# every kernel and cut side whose blocks have these sizes (_plan)
_piece_plan = lru_cache(maxsize=256)(_PiecePlan)


def _plan(weights: tuple[int, ...], sizes: tuple[int, ...], t: int, chunk: int) -> _PiecePlan:
    """The piece plan of consecutive blocks of the given sizes under the
    weight table `weights`, in pieces of at most t, keeping row codes within
    pieces x chunk entries, from the plan cache.  Charges its pieces x
    sum(sizes) code-matrix entries on every call, built or kept."""
    charge(sum(-(-k // t) for k in sizes) * sum(sizes), "piece-plan entries")
    return _piece_plan(weights, sizes, t, chunk)


@lru_cache(maxsize=4096)
def _block_columns(sizes: tuple[int, ...], elements: tuple[int, ...]) -> np.ndarray:
    """BlockSpace.columns for block sizes `sizes`, shared by equal labelings
    (the array is read-only)."""
    starts = tuple(accumulate(sizes[:-1], initial=0))
    cols = [c for e in elements for c in range(starts[e - 1], starts[e - 1] + sizes[e - 1])]
    cols = np.array(cols, dtype=np.intp)
    cols.flags.writeable = False
    return cols


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


def parse_vector(text: str) -> Vector:
    """Comma-separated integers -> vector tuple."""
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    return tuple(int(p) for p in parts)


def format_vector(u: Iterable[int]) -> str:
    return ",".join(str(int(x)) for x in u)
