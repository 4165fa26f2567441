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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import LengthMismatch, OutOfRange, SpaceTooLarge
from .field import Field
from .poset import Poset
from .weights import WeightFn, hamming_weight

DEFAULT_MAX_SPACE = 1 << 24
_CHUNK = 1 << 14

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

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for k in self.sizes:
            out.append(acc)
            acc += k
        return tuple(out)

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

        # batch-engine tables
        self._wt = np.asarray(weight.table, dtype=np.min_scalar_type(weight.max_weight))
        self._offsets = np.asarray(labeling.offsets, dtype=np.intp)
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
        if any(not 0 <= x < self.q for x in v):
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
        v = self._coerce(u)
        return frozenset(
            i for i in range(1, self.s + 1) if any(v[self.labeling.block_slice(i)])
        )

    def block_max_weight(self, u: Sequence[int], i: int) -> int:
        """Max coordinate weight within block i."""
        return max(self.weight(x) for x in self.block(u, i))

    def wpb_weight(self, u: Sequence[int]) -> int:
        """The weighted poset block weight of u (direct formula evaluation)."""
        v = self._coerce(u)
        supp = self.block_support(v)
        if not supp:
            return 0
        ideal = self.poset.ideal(supp)
        maximal = self.poset.maximal_elements(ideal)
        top = sum(self.block_max_weight(v, i) for i in maximal)
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
        """Weights of the rows of an (N, n) uint8 array (the strictly-below
        identity of the module docstring), looked up in the table of
        block-max tuples when it has at most _CHUNK entries."""
        blockmax = np.maximum.reduceat(self._wt[arr], self._offsets, axis=1)
        if self._bm_radix is None:
            return self._below_weights(blockmax)
        return self._bm_table[(blockmax @ self._bm_radix).astype(np.intp)]

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
