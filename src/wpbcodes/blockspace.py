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
batch engine, whose kernel is pair_weights: the weights w(x + c) of every
pair of a tile of rows x and words c (batch_weights is the case c = 0),
from the block maxima bm_i of x + c alone.  A distance d(x, c) = w(x - c)
is the weight of x against the word -c.  The non-maximal blocks of the
ideal are exactly the blocks strictly below some nonzero block, its maximal
blocks are nonzero, and every other block has bm_i = 0, so

    w(u) = sum_i (max_weight if block i lies strictly below a nonzero
                  block, else bm_i).

That is a lookup in a table of all (max_weight + 1)^s block-max tuples
when the table fits in one chunk.  Otherwise the kernel marks the blocks
strictly below a nonzero block from the poset's covers: block i is one iff
an upper cover c of i is nonzero or is one itself, so one pass over the
covers, top down (in descending order of down-set size, never of labels),
costs one OR per cover and entry, and no s x s array is built.

The block maxima come from lookups in pair tables, so x + c is never
formed.  Each block is cut into pieces of at most t coordinates, t the
largest with q^(2t) <= _PIECE_CODES, and the pair table of a piece length m
holds max_j w(a_j + b_j) at a * q^m + b for all a, b in F_q^m.  A piece
plan (_PiecePlan) keeps one pair table, that of its longest piece, of L
coordinates, and owns the odometer codes of the pieces: a * q^L for the
rows x, b for the words c.  A piece of m < L coordinates indexes that
table as an L-digit pair with its digits in the low places: its high
digits are 0 in both operands and w(0 + 0) = 0, so the maximum is the
piece's own.  Its pieces are numbered in column order, so each piece is a
run of consecutive columns and each block a run of consecutive pieces,
and a plan keeps one place value per column.  Every piece code comes from
one path (codes): one product of the rows by the place values and one sum
over each piece's run of columns, which a left code multiplies by q^L.
The rows of F_q^cols, which a pass or a ball enumerates in odometer order
(last coordinate fastest), take that path too, as rows of odometer_table
zero off cols: those on the trailing columns once (row_codes, which keeps
them) and the prefixes on the leading ones once per enumeration, each
chunk being one broadcast add of the two (odometer_codes), so F_q^cols is
never built as one row array.  One gather on the sums of the two gives
every piece maximum of the tile.  When every block is a single piece
(k_i <= t) those are the block maxima; otherwise one maximum over each
block's run of pieces gives them.  The engine is integer throughout: the
piece codes are intp, and every index of a block-max tuple is uint16,
since no table of them, the kernel's or a cut's, has more than
_CHUNK < 2^16 entries.

The table index sum_i (max_weight + 1)^(s-i) bm_i is separable: bm_i
depends on block i alone, so cutting the coordinates at p into a head
0..p-1 and a tail p..n-1 (cut) makes the index of x + c a head part plus a
tail part when x is a head row plus a tail row.  Each part is the same
gather and block maximum on the piece plan of the blocks' parts on its side
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
lookup keyed by just those (_Kernel.plan, which reads the plan cache
_piece_plan): spaces that differ only in their poset
share one plan, and so does a cut side whose block sizes are another
space's.  Every other table depends on the space's whole shape: q,
the weight table, the order relation and the block sizes.  So a space
holds a kernel (_Kernel), one per shape in the process (_kernel, an lru
cache keyed by the shape and by the _CHUNK and _PIECE_CODES it was sized
under, so patching either constant gives fresh decisions): its
covers and block-max radix, and, built on first use, its
block-max table and the table and digits of each cut.  Equal spaces,
with_weight siblings under equal tables and every Instance.build() of one
shape share it; every array a kernel or a plan keeps is read-only, and
a kernel's covers are a tuple.
Every plan lookup charges the plan's columns, whether the cache built the
plan or kept it, so SpaceTooLarge never depends on what the process ran
before.

The kept memory is bounded.  At most 256 piece plans are cached
(_piece_plan), and a cut holds its sides' plans only while a pass uses it,
so the kernels keep none.  A plan of P pieces over n coordinates and s
blocks holds one intp place value per coordinate (8n bytes, at most
128 MiB at the default cap, since each plan lookup charges n), the intp
starts of its pieces and the first pieces of its blocks (8(P + s) <= 16n
bytes), one shared pair table of at most _PIECE_CODES entries, and row
codes of at most P * _CHUNK intp in all (P * 128 KiB), those of further
column sets being built on every call.  The pair table of each weight
table and piece length is built once and kept (_pair_table, at most 64
tables of at most _PIECE_CODES entries of at most 8 bytes), and a plan
keeps that array itself, so plans with the same longest piece, those of a
space's restrictions (restrict) among them, share one table.  At most 512
kernels are cached, enough for the 476-503 shapes a full verify run builds
at seeds 0-3, so no such run builds a shape's kernel twice.  A kernel of
n coordinates and s blocks holds its covers (a tuple of one pair of ints
per cover of the poset), its uint16 radix (2s bytes), its block-max table
of at most _CHUNK int64 (128 KiB) and n - 1 cuts, each a table of at most
_CHUNK uint8 (16 KiB) and at most s + 1 uint16 digits.  A space keeps each
space it restricts to (restrict), one per set of elements asked for: the
tree reading asks for one per part of a split (a series split's fibers
share one), each smaller than the space.

The transient memory of a call is bounded too: the enumeration cap bounds
counts, the tiles bound bytes.  batch_weights takes its rows in tiles of
max(_TILE // n, 1), so a tile's (n, rows) intp product, its (pieces, rows)
piece codes and maxima and its (s, rows) block maxima and marks each hold
at most max(_TILE, n) entries (4 MiB of intp at _TILE = 2^19).  ball takes
F_q^n in chunks of _CHUNK rows: pieces x _CHUNK intp codes per chunk, plus
the codes of fewer than q * q^n / _CHUNK prefixes, each 9n + 8 * pieces
bytes with its row (_PiecePlan.odometer_codes, which serves a pass's rows
the same way).  pair_weights forms the sums of the piece codes it is given,
whose tiles its callers size (the codes module states them), and
weight_spectrum holds its charged DP states, one polynomial of at most
s * max_weight + 1 ints each.  Only output-sized results are exempt:
all_vectors (q^n * n bytes), the vectors ball lists, and the (N,) int64
weights of batch_weights.

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

Every computation that enumerates (vectors, codewords, vector x word
pairs, words built, DP states), uses a piece plan (its n coordinates, each
holding one place value) or loads an instance document (its poset's
order relation, s^2 for s elements, and its coordinates)
passes its count to charge before it starts, which raises SpaceTooLarge
when the count exceeds the enumeration cap: DEFAULT_MAX_SPACE unless a
caller sets another for a block of code with `with enumeration_cap(cap):`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import LengthMismatch, OutOfRange, SpaceTooLarge
from .field import Field, make_field
from .poset import Poset, bits
from .weights import WeightFn, exact_ints, exact_radius, hamming_weight

DEFAULT_MAX_SPACE = 1 << 24
_CHUNK = 1 << 14
# bound on the entries of a tile's intp transients (4 MiB): the (n, rows)
# product of batch_weights, and the (n, X) and (n, C) products and the
# (pieces, X, C) piece sums of a whole-row tile (codes)
_TILE = 1 << 19
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
        """(X, C) uint16: the side's part of the cut-table index of x + c for
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
        """The (X, C, T) tile w(x + c), in the table's dtype, for the (X, C)
        head index of X head rows and the (C, T) tail index of T tail rows,
        x the head row plus the tail row: one add and one gather per entry."""
        return self.table.take(head[:, :, None] + tail)


@dataclass(frozen=True)
class Labeling:
    """Block sizes k_1..k_s; block i occupies coordinates offset_i..offset_i+k_i-1."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = exact_ints(self.sizes, "block sizes")
        if len(sizes) < 1:
            raise ValueError("labeling needs at least one block")
        if any(k < 1 for k in sizes):
            raise ValueError(f"block sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

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
        """Coordinate slice of block i (1-based), an integer (exact_ints)."""
        (i,) = exact_ints([i], "block indices")
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
        self._restricted: dict[tuple[int, ...], BlockSpace] = {}

    # vector plumbing --------------------------------------------------------

    def _coerce(self, u: Sequence[int]) -> Vector:
        """u as a validated tuple: length n, every coordinate an integer
        (exact_ints: floats, bools, strings and other types are rejected,
        not truncated) in 0..q-1."""
        v = exact_ints(u, "coordinates")
        if len(v) != self.n:
            raise LengthMismatch(f"vector has length {len(v)}, ambient n={self.n}")
        if min(v) < 0 or max(v) >= self.q:
            raise ValueError(f"coordinates must lie in 0..{self.q - 1}")
        return v

    def _coerce_rows(self, rows: Iterable[Sequence[int]]) -> np.ndarray:
        """Vectors validated as one (m, n) uint8 array: every row of length
        n, every coordinate an integer (floats, bools and other types are
        rejected, not truncated) in 0..q-1.  An array is taken as it is;
        numpy upcasts bools mixed with ints, so rows that are not one array
        are scanned for bools.  Python ints beyond int64 and uint64 make a
        float or object array, so rows of Python ints alone that make one
        are out of range."""
        listed = None
        if not isinstance(rows, np.ndarray):
            listed = list(rows)
            short = next((len(r) for r in listed if len(r) != self.n), None)
            if short is not None:
                raise LengthMismatch(f"vector has length {short}, ambient n={self.n}")
            if not listed:
                return np.zeros((0, self.n), dtype=np.uint8)
            if not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(listed))):
                raise ValueError(f"coordinates must be integers in 0..{self.q - 1}, got a bool")
            rows = np.array(listed).reshape(len(listed), self.n)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise LengthMismatch(f"vector has length {rows.shape[-1]}, ambient n={self.n}")
        if rows.dtype.kind not in "iu":
            if listed is not None and all(type(x) is int for x in chain.from_iterable(listed)):
                raise ValueError(f"coordinates must lie in 0..{self.q - 1}")
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

    def restrict(self, elements: tuple[int, ...]) -> BlockSpace:
        """The space of the blocks of the given ascending elements, under the
        order they induce (Poset.induced, element elements[i] becoming
        i + 1), with the same field and weight; its coordinates are those of
        the given blocks, in the same order.  When every element outside
        lying below one inside lies below all of them, as around a node of
        the decomposition tree, a nonzero vector zero off the blocks weighs
        max_weight times those outside elements plus its weight here.  Built
        once per elements on each space, which keeps it."""
        sub = self._restricted.get(elements)
        if sub is None:
            sizes = self.labeling.sizes
            labeling = Labeling(tuple(sizes[e - 1] for e in elements))
            sub = BlockSpace(self.poset.induced(elements), labeling, self.field, self.weight)
            self._restricted[elements] = sub
        return sub

    # batch engine -----------------------------------------------------------

    def batch_weights(self, arr: np.ndarray) -> np.ndarray:
        """Weights of the rows of an (N, n) uint8 array as an (N,) int64
        array: the pair kernel against the zero word (the b = 0 column of
        the pair tables), in tiles of max(_TILE // n, 1) rows, so the
        (n, rows) intp product of a tile's piece codes (_PiecePlan.codes)
        holds at most max(_TILE, n) entries and every other transient
        fewer."""
        plan, step = self.plan(), max(_TILE // self.n, 1)
        out = np.empty(len(arr), dtype=np.int64)
        for lo in range(0, len(arr), step):
            out[lo : lo + step] = self.pair_weights(plan.codes(arr[lo : lo + step]))
        return out

    def plan(self) -> _PiecePlan:
        """The piece plan of the space's kernel, which gives the piece codes
        of rows and words for pair_weights (_PiecePlan.codes, row_codes,
        odometer_codes); charges its coordinates on every call
        (_Kernel.plan)."""
        return self._kernel.plan()

    def pair_weights(self, left: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
        """w(x + c) for the piece codes of x (left) and c (right), which
        broadcast against each other after their leading piece axis (e.g.
        (pieces, X, 1) and (pieces, 1, C) give the (X, C) matrix); without
        right, w(x).  The block maxima (_PiecePlan.block_maxima), then the
        strictly-below identity (module docstring): looked up in the table
        of block-max tuples when it has at most _CHUNK entries, else marked
        top down over the covers."""
        return self._kernel.pair_weights(left if right is None else left + right)

    def cut(self, p: int) -> _Cut | None:
        """The cut of the coordinates into a head 0..p-1 and a tail p..n-1
        (0 < p < n), for passes whose rows x split the same way: the index
        of the block-max tuple of x + c in the table is the sum of a head
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
        (r,) = exact_ints([r], "ranks")
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
        F_q^n in chunks (_PiecePlan.odometer_codes) against those of
        -center, its one word, and only the ranks kept become vectors.  The
        radius is an integer, at least 0 (exact_radius)."""
        radius = exact_radius(radius)
        c = self.field.neg_table[np.array([self._coerce(center)], dtype=np.uint8)]
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
        that is smaller; a radius is an integer, at least 0 (exact_radius).

        The ideal DP of the module docstring: elements are processed top
        down, each as soon as every element above it is done, the most
        recently unlocked first; a state is the set (bitmask) of unprocessed
        elements forced into the ideal, and maps to a polynomial in the
        weight.  Charges the live states of each step, so it raises
        SpaceTooLarge when they exceed the enumeration cap.
        """
        mw = self.weight.max_weight
        if radius is not None:
            radius = exact_radius(radius)
        top = self.s * mw if radius is None else min(radius, self.s * mw)
        # at_most[m] = L(m) = #{a in GF(q) : w(a) <= m}
        at_most = [sum(v <= m for v in self.weight.table) for m in range(mw + 1)]
        below = self.poset.below
        above = [m.bit_count() for m in self.poset.above]
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
            for j in bits(below[i]):
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
    from the plan cache (plan)."""

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
        # the covers (a, b), 0-based, highest level of a first, so the
        # covers out of b come before those into b (_below_weights)
        self.covers = tuple((a - 1, b - 1) for a, b in reversed(poset.covers()))
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
        default) under the kernel's weights, t and chunk, from the plan
        cache (_piece_plan).  Charges its sum(sizes) columns, each holding
        one place value, on every call, built or kept."""
        sizes = self.sizes if sizes is None else sizes
        charge(sum(sizes), "piece-plan entries")
        return _piece_plan(self.weights, sizes, self.t, self.chunk)

    def pair_weights(self, codes: np.ndarray) -> np.ndarray:
        """BlockSpace.pair_weights for the summed piece codes of x and c."""
        plan = self.plan()
        if self.radix is not None:
            return self.bm_table.take(plan.index(codes, self.radix))
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
        """The (N,) weights of the (s, N) block maxima of N vectors.  Block
        a lies strictly below a nonzero block iff an upper cover b of a is
        nonzero or lies so itself, which the covers mark top down, one OR
        per cover and vector."""
        nonzero = blockmax > 0
        below = np.zeros_like(nonzero)
        for a, b in self.covers:
            below[a] |= nonzero[b] | below[b]
        return np.where(below, self.max_weight, blockmax).sum(axis=0, dtype=np.int64)

    def cut(self, p: int) -> _Cut | None:
        """BlockSpace.cut.  Looks up the head's and then the tail's piece
        plan (plan, which charges each) on every call."""
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


# the kernel cache: one _Kernel per shape (the weight table, whose length is
# q, the order relation and the block sizes) and per the _CHUNK and
# _PIECE_CODES it is sized under, so equal spaces, and with_weight siblings
# under equal weight tables, share one (module docstring)
_kernel = lru_cache(maxsize=512)(_Kernel)


class _PiecePlan:
    """The pair kernel's piece plan of consecutive blocks of the given sizes
    under the weight table `weights`, cut into pieces of at most t
    coordinates, and the owner of their piece codes.  The pieces are
    numbered in column order, so each piece is a run of consecutive columns
    (from its start to the next piece's) and each block a run of
    consecutive pieces (from its first piece to the next block's).  A piece
    code is a sum over the piece's columns of the coordinate times the
    column's place value, q^(len - 1 - j) at the piece's j-th column, for
    the right operand, and that sum times q^L (lift) for the left one, L
    the longest piece's length.  The plan's one pair table is that of
    length L (_pair_table, the cached array itself): max_j w(a_j + b_j) at
    a * q^L + b for all a, b in F_q^L, which a shorter piece indexes with
    its digits in the low places, its high digits 0 in both operands.
    Built once per (weights, sizes, t, chunk) in the process (_piece_plan,
    read by _Kernel.plan); its arrays are read-only."""

    def __init__(self, weights: tuple[int, ...], sizes: tuple[int, ...], t: int, chunk: int):
        q = self.q = len(weights)  # a weight table has q entries
        self.chunk, self.n = chunk, sum(sizes)
        starts: list[int] = []
        firsts: list[int] = []
        for start, k in zip(accumulate(sizes[:-1], initial=0), sizes):
            firsts.append(len(starts))
            starts += range(start, start + k, t)
        lengths = np.diff(starts + [self.n])
        longest = int(lengths.max())
        place = np.concatenate([q ** np.arange(m - 1, -1, -1, dtype=np.intp) for m in lengths])
        self.right = place[:, None]  # (n, 1) intp place values of b: q^(len - 1 - j)
        self.lift = q**longest  # q^L: a left code is the right one times it
        self.starts = np.array(starts, dtype=np.intp)
        self.firsts = np.array(firsts, dtype=np.intp)
        self.table = _pair_table(weights, longest)
        for arr in (self.right, self.starts, self.firsts):
            arr.flags.writeable = False
        self._rows: dict[bytes, np.ndarray] = {}
        self._kept = 0  # row-code entries in _rows

    def codes(self, arr: np.ndarray, left: bool = True) -> np.ndarray:
        """(pieces, N) intp piece codes of the rows of an (N, n) uint8
        array, for pair_weights: a * q^L as its left operand, the odometer
        code b of each piece as its right one.  One product by the place
        values and one sum over each piece's run of columns, and for the
        left operand one scalar product."""
        codes = np.add.reduceat(arr.T * self.right, self.starts, axis=0)
        return codes * self.lift if left else codes

    def row_codes(self, cols: np.ndarray) -> np.ndarray:
        """The left piece codes of the rows of F_q^cols in odometer order
        (zero off the columns cols), as a read-only (pieces, q^|cols|) intp
        array.  The codes of each cols are kept while the kept ones total at
        most pieces x chunk entries; later ones are built on every call."""
        key = cols.tobytes()
        codes = self._rows.get(key)
        if codes is None:
            codes = self.codes(space_rows(self.q, self.n, cols))
            codes.flags.writeable = False
            if self._kept + codes.size <= len(self.starts) * self.chunk:
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
        lead = self.codes(space_rows(q, self.n, cols[: m - t]))
        per = rows // width
        for lo in range(0, lead.shape[1], per):
            yield lo * width, (lead[:, lo : lo + per, None] + tail[:, None, :]).reshape(pieces, -1)

    def block_maxima(self, codes: np.ndarray) -> np.ndarray:
        """The max coordinate weight of each block of the plan, for the summed
        piece codes of x and c (pieces first): one gather of the piece maxima
        in the pair tables, then, unless every block is one piece, one
        maximum over each block's run of pieces."""
        pieces = self.table.take(codes)
        if len(self.firsts) == len(pieces):
            return pieces
        return np.maximum.reduceat(pieces, self.firsts, axis=0)

    def index(self, codes: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """The block maxima of summed piece codes weighted by their uint16
        digits and summed over the blocks in uint16, shaped as the codes
        after their piece axis: the index of a block-max tuple in a kernel's
        or a cut's table, exact since no such table has more than
        _CHUNK < 2^16 entries.  A weighted sum, not an integer matmul, which
        numpy runs without BLAS at several times the cost per entry."""
        blockmax = self.block_maxima(codes)
        weighted = digits.reshape((-1,) + (1,) * (blockmax.ndim - 1)) * blockmax
        return weighted.sum(axis=0, dtype=np.uint16)


@lru_cache(maxsize=64)
def _pair_table(weights: tuple[int, ...], m: int) -> np.ndarray:
    """The flat pair table of piece length m under the weight table
    `weights`: max_j w(a_j + b_j) at a * q^m + b for all a, b in F_q^m, w(a + b)
    of single coordinates maximised over the m coordinates in one broadcast
    each.  Shared by every plan whose longest piece has that length, which
    keeps this array itself (read-only)."""
    field = make_field(len(weights))
    q = field.q
    wt = np.asarray(weights, dtype=np.min_scalar_type(max(weights)))
    single = wt[field.add_table]
    table = np.zeros((q,) * 2 * m, dtype=wt.dtype)
    for j in range(m):
        shape = [1] * 2 * m
        shape[j] = shape[m + j] = q
        np.maximum(table, single.reshape(shape), out=table)
    table = table.ravel()
    table.flags.writeable = False
    return table


# the plan cache: one _PiecePlan per (weights, sizes, t, chunk), shared by
# every kernel and cut side whose blocks have these sizes (_Kernel.plan)
_piece_plan = lru_cache(maxsize=256)(_PiecePlan)


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


def space_rows(q: int, n: int, cols: np.ndarray) -> np.ndarray:
    """The rows of F_q^cols in odometer order as a (q^|cols|, n) uint8
    array, zero off the columns cols."""
    rows = np.zeros((q ** len(cols), n), dtype=np.uint8)
    rows[:, cols] = odometer_table(q, len(cols))
    return rows


def parse_vector(text: str) -> Vector:
    """Comma-separated ASCII decimal integers -> vector tuple; whitespace
    around a field is allowed, and an empty field, a sign, an underscore or
    any other character raises ValueError naming the field."""
    fields = text.split(",")
    for i, field in enumerate(fields, 1):
        digits = field.strip()
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"vector field {i} of {text!r} is not a decimal integer: {field!r}")
    return tuple(int(field) for field in fields)


def format_vector(u: Iterable[int]) -> str:
    return ",".join(str(int(x)) for x in u)
