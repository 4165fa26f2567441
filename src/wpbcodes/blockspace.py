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
batch engine: the full space is enumerated in odometer order (last
coordinate fastest) in chunks, and batch_weights evaluates whole (N, n)
arrays at once from the block maxima bm_i alone.  The non-maximal blocks of
the ideal are exactly the blocks strictly below some nonzero block, its
maximal blocks are nonzero, and every other block has bm_i = 0, so

    w(u) = sum_i (max_weight if block i lies strictly below a nonzero
                  block, else bm_i),

which is one small float32 matmul per array, or a lookup in a table of all
(max_weight + 1)^s block-max tuples when that table fits in one chunk.

The block maxima themselves come from a lookup too.  Each block is cut into
pieces of at most t coordinates, t the largest with q^t <= _PIECE_CODES, so
every piece of every space has a small table of the maxima of all its q^len
values.  One float32 product with an (n, pieces) matrix of q-powers gives
each piece's odometer code (exact: codes stay below 2^12), an offset per
piece points it into one concatenated table, and one gather gives the piece
maxima.  When every block is a single piece (k_i <= t) those are the block
maxima; a block split into several pieces folds each later piece into its
first with one elementwise maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import LengthMismatch, OutOfRange, SpaceTooLarge
from .field import Field
from .poset import Poset
from .weights import WeightFn, hamming_weight

DEFAULT_MAX_SPACE = 1 << 24
_CHUNK = 1 << 14
# bound on the odometer codes of one piece of a block in batch_weights
_PIECE_CODES = 1 << 12

Vector = tuple[int, ...]


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
        self._wt = np.asarray(weight.table, dtype=np.min_scalar_type(weight.max_weight))
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
        v = tuple(int(x) for x in u)
        if len(v) != self.n:
            raise LengthMismatch(f"vector has length {len(v)}, ambient n={self.n}")
        if min(v) < 0 or max(v) >= self.q:
            raise ValueError(f"coordinates must lie in 0..{self.q - 1}")
        return v

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
        """Weights of the rows of an (N, n) uint8 array: block maxima by the
        piece lookup, then the strictly-below identity (both in the module
        docstring), looked up in the table of block-max tuples when it has
        at most _CHUNK entries."""
        radix, offsets, table, extra = self._pieces
        codes = arr @ radix
        codes += offsets
        pieces = table.take(codes.astype(np.uint16))
        blockmax = pieces[:, : self.s]
        for p, i in extra:
            np.maximum(blockmax[:, i], pieces[:, p], out=blockmax[:, i])
        if self._bm_radix is None:
            return self._below_weights(blockmax)
        return self._bm_table[(blockmax @ self._bm_radix).astype(np.intp)]

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
        """The piece lookup of batch_weights, built on its first call: the
        (n, pieces) float32 radix giving each piece's odometer code, each
        piece's float32 offset into the table, the concatenated table of
        piece maxima (one part per piece length), and (column, block) for
        every piece after a block's first.  Column i < s holds the first
        piece of block i + 1, so those columns are the block maxima once the
        later pieces are folded in."""
        q, t = self.q, 1
        while q ** (t + 1) <= _PIECE_CODES:
            t += 1
        first: list[tuple[int, int]] = []  # (first coordinate, length)
        later: list[tuple[int, int]] = []
        blocks: list[int] = []
        for i, (start, k) in enumerate(zip(self.labeling.offsets, self.labeling.sizes)):
            cuts = [(c, min(t, start + k - c)) for c in range(start, start + k, t)]
            first.append(cuts[0])
            later += cuts[1:]
            blocks += [i] * (len(cuts) - 1)
        pieces = first + later
        radix = np.zeros((self.n, len(pieces)), dtype=np.float32)
        for p, (c, length) in enumerate(pieces):
            radix[c : c + length, p] = q ** np.arange(length - 1, -1, -1)
        # the table part of each piece length; all parts hold fewer than
        # 2 * _PIECE_CODES <= 2^16 entries, so uint16 codes index them
        kinds = sorted({length for _, length in pieces})
        part = dict(zip(kinds, np.cumsum([0] + [q**m for m in kinds])))
        table = np.concatenate([self._wt[odometer_table(q, m)].max(axis=1) for m in kinds])
        offsets = np.array([part[length] for _, length in pieces], dtype=np.float32)
        return radix, offsets, table, tuple(enumerate(blocks, self.s))

    @cached_property
    def _bm_table(self) -> np.ndarray:
        """Weights of all (max_weight + 1)^s block-max tuples in odometer
        order, built on the first table lookup."""
        base = self.weight.max_weight + 1
        return self._below_weights(np.indices((base,) * self.s).reshape(self.s, -1).T)

    def _below_weights(self, blockmax: np.ndarray) -> np.ndarray:
        below = (blockmax > 0).astype(np.float32) @ self._strict > 0
        return np.where(below, self.weight.max_weight, blockmax).sum(axis=1, dtype=np.int64)

    def batch_sub(self, arr: np.ndarray, v: Sequence[int]) -> np.ndarray:
        row = np.asarray(self._coerce(v), dtype=np.uint8)
        return self.field.sub_table[arr, row[None, :]]

    def vector_rank(self, u: Sequence[int]) -> int:
        """Position of u in odometer enumeration order."""
        return int(np.dot(np.asarray(self._coerce(u), dtype=np.int64), self._radix))

    def unrank(self, r: int) -> Vector:
        return tuple(int(r // self._radix[i] % self.q) for i in range(self.n))

    def iter_chunks(self, max_space: int = DEFAULT_MAX_SPACE) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (start_rank, (B, n) uint8 array) covering F_q^n in odometer order."""
        if self.size > max_space:
            raise SpaceTooLarge(
                f"q^n = {self.size} exceeds the enumeration cap {max_space}"
            )
        return odometer_chunks(self.q, self.n)

    def all_vectors(self, max_space: int = DEFAULT_MAX_SPACE) -> np.ndarray:
        """The whole space as one (q^n, n) array; respects the cap."""
        if self.size > max_space:
            raise SpaceTooLarge(
                f"q^n = {self.size} exceeds the enumeration cap {max_space}"
            )
        return odometer_table(self.q, self.n)

    # balls ------------------------------------------------------------------

    def ball(
        self,
        center: Sequence[int],
        radius: int,
        max_space: int = DEFAULT_MAX_SPACE,
    ) -> list[Vector]:
        """All v with d(center, v) <= radius, in odometer order."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        c = self._coerce(center)
        out: list[Vector] = []
        for _, arr in self.iter_chunks(max_space):
            d = self.batch_weights(self.batch_sub(arr, c))
            for row in arr[d <= radius]:
                out.append(tuple(int(x) for x in row))
        return out

    def ball_size(
        self,
        center: Sequence[int],
        radius: int,
        max_space: int = DEFAULT_MAX_SPACE,
    ) -> int:
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self._coerce(center)
        # d(c, v) = w(v - c), and v -> v - c permutes F_q^n: count weights
        total = 0
        for _, arr in self.iter_chunks(max_space):
            total += int(np.count_nonzero(self.batch_weights(arr) <= radius))
        return total

    def __repr__(self) -> str:
        return (
            f"BlockSpace(q={self.q}, sizes={self.labeling.sizes}, "
            f"weight={self.weight.name}, covers={self.poset.cover_pairs()})"
        )


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
