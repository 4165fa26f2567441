"""Codes inside a block space and their exact parameters.

A code is either linear (generator rows, row-reduced at construction,
rank deficiency accepted silently) or explicit (a deduplicated word set).
All parameters are computed by exhaustive enumeration:

- min_distance: minimum nonzero codeword weight for linear codes
  (translation invariance), minimum pairwise distance for explicit ones
  (word pairs in tiles of at most _CHUNK, one kernel call each);
- covering_radius: max over vectors of the distance to the code;
- packing_radius: (min over vectors of the second-smallest distance to
  the code) - 1, which equals the largest radius with pairwise disjoint
  balls around codewords;
- is_r_perfect(r): covering radius <= r <= packing radius (for a one-word
  code, covering radius <= r): every vector lies within r of a codeword
  and of no second one;
- coset_table: minimum-weight leader per coset of a linear code, with
  ties broken by enumeration order.

Linear codes get all of these but the minimum distance from one coset-major
pass.  The generator is in reduced row-echelon form, so every vector splits
uniquely as x + c with x zero on the pivot columns and c a codeword, and the
metric is translation-invariant, so the distances from any vector of the
coset x + C to the code are the row W[x, .] of W[x, c] = w(x + c).  The pass
enumerates x in odometer order over the free columns (row x is
coset_index(x)) and evaluates W in tiles of at most _CHUNK vectors: q^n
weights in all, instead of q^n * |C| for a per-codeword scan.  Explicit
codes get the covering and packing radius from one pass over
D[x, c] = d(x, c) with x over all of F_q^n, tiled the same way (one kernel
call per tile of at most _CHUNK vectors) but with its own merge; that pass
is also the independent oracle the covering-oracle check compares the
linear pass against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blockspace import _CHUNK, DEFAULT_MAX_SPACE, BlockSpace, Vector, odometer_chunks
from .errors import NotAChain, NotLinear, SpaceTooLarge, TooFewWords
from .weights import WeightFn

_BIG = np.iinfo(np.int64).max


def _row_reduce(space: BlockSpace, rows: Sequence[Sequence[int]]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    f = space.field
    mat = [list(space._coerce(r)) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(space.n):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = f.inv(mat[r][c])
        mat[r] = [f.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                coef = mat[i][c]
                mat[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


@dataclass(frozen=True)
class CosetTable:
    """One minimum-weight leader per coset, indexed by Code.coset_index."""

    leaders: tuple[Vector, ...]
    weights: tuple[int, ...]
    max_weight: int


class Code:
    """A linear or explicit code in a BlockSpace; immutable after construction."""

    def __init__(self, space: BlockSpace, *, generators=None, words=None):
        self.space = space
        if (generators is None) == (words is None):
            raise ValueError("exactly one of generators/words must be given")
        if generators is not None:
            self.kind = "linear"
            self.generators, self.pivots = _row_reduce(space, generators)
            self.dimension = len(self.generators)
            self.size: int = space.q**self.dimension
            self._free = tuple(c for c in range(space.n) if c not in self.pivots)
            self.words = None
        else:
            self.kind = "explicit"
            dedup = sorted({space._coerce(w) for w in words})
            if not dedup:
                raise ValueError("an explicit code needs at least one word")
            self.words = tuple(dedup)
            self.generators = None
            self.pivots = None
            self._free = None
            self.dimension = None
            self.size = len(dedup)
        self._cw: np.ndarray | None = None
        self._memo: dict = {}

    @classmethod
    def linear(cls, space: BlockSpace, rows: Sequence[Sequence[int]]) -> "Code":
        return cls(space, generators=rows)

    @classmethod
    def explicit(cls, space: BlockSpace, words: Sequence[Sequence[int]]) -> "Code":
        return cls(space, words=words)

    @property
    def is_linear(self) -> bool:
        return self.kind == "linear"

    # enumeration ------------------------------------------------------------

    def codeword_array(self, max_space: int = DEFAULT_MAX_SPACE) -> np.ndarray:
        """(|C|, n) uint8 array in deterministic order.

        Linear codes enumerate messages in odometer order (first generator
        coefficient most significant); explicit codes are sorted.
        """
        if self._cw is not None:
            return self._cw
        if self.kind == "explicit":
            self._cw = np.asarray(self.words, dtype=np.uint8).reshape(self.size, self.space.n)
            return self._cw
        if self.size > max_space:
            raise SpaceTooLarge(f"q^k = {self.size} exceeds the enumeration cap {max_space}")
        f = self.space.field
        arr = np.zeros((1, self.space.n), dtype=np.uint8)
        for g in self.generators:
            row = np.asarray(g, dtype=np.uint8)
            mults = f.mul_table[np.arange(self.space.q, dtype=np.intp)[:, None], row[None, :]]
            arr = f.add_table[arr[:, None, :], mults[None, :, :]].reshape(-1, self.space.n)
        self._cw = arr
        return arr

    def codewords(self, max_space: int = DEFAULT_MAX_SPACE) -> list[Vector]:
        return [tuple(int(x) for x in row) for row in self.codeword_array(max_space)]

    # distances --------------------------------------------------------------

    def min_distance(self, max_space: int = DEFAULT_MAX_SPACE) -> int:
        """Minimum distance over distinct codeword pairs."""
        if "min_distance" in self._memo:
            return self._memo["min_distance"]
        if self.size < 2:
            raise TooFewWords("min distance needs at least two distinct words")
        arr = self.codeword_array(max_space)
        if self.is_linear:
            d = int(self.space.batch_weights(arr[1:]).min())
        else:
            d = self._pairwise_min(arr)
        self._memo["min_distance"] = d
        return d

    def covering_radius(self, max_space: int = DEFAULT_MAX_SPACE) -> int:
        """max over F_q^n of the distance to the code."""
        if "covering_radius" not in self._memo:
            (self._coset_pass if self.is_linear else self._explicit_pass)(max_space)
        return self._memo["covering_radius"]

    def packing_radius(self, max_space: int = DEFAULT_MAX_SPACE) -> int:
        """Largest radius with pairwise disjoint balls around codewords."""
        if "packing_radius" in self._memo:
            return self._memo["packing_radius"]
        if self.size < 2:
            raise TooFewWords("packing radius needs at least two distinct words")
        (self._coset_pass if self.is_linear else self._explicit_pass)(max_space)
        return self._memo["packing_radius"]

    def is_r_perfect(self, r: int, max_space: int = DEFAULT_MAX_SPACE) -> bool:
        """True iff radius-r balls around codewords tile the space: every
        vector lies within r of a codeword (covering radius <= r) and, for two
        or more codewords, within r of no second one (r <= packing radius)."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        # the packing scan memoizes the covering radius as well
        if self.size >= 2 and r > self.packing_radius(max_space):
            return False
        return self.covering_radius(max_space) <= r

    def is_perfect(self, max_space: int = DEFAULT_MAX_SPACE) -> bool:
        return self.is_r_perfect(self.packing_radius(max_space), max_space)

    def _pairwise_min(self, cw: np.ndarray) -> int:
        """min over word pairs i < j of w(c_j - c_i), one kernel call per
        tile of at most _CHUNK pairs in row-major order."""
        m, q = len(cw), self.space.q
        total = m * (m - 1) // 2
        # row i holds the pairs (i, j > i), from pair rank starts[i] on
        counts = np.arange(m - 1, 0, -1)
        starts = np.cumsum(counts) - counts
        # c_j - c_i through the flat subtraction table, uint16 as in the passes
        sub, cwq = self.space.field.sub_table.ravel(), np.multiply(cw, q, dtype=np.uint16)
        d = _BIG
        for lo in range(0, total, _CHUNK):
            r = np.arange(lo, min(lo + _CHUNK, total))
            i = np.searchsorted(starts, r, side="right") - 1
            j = r - starts[i] + i + 1
            d = min(d, int(self.space.batch_weights(sub[cwq[j] + cw[i]]).min()))
        return d

    # the word-set pass (explicit codes) ----------------------------------------

    def _explicit_pass(self, max_space: int) -> None:
        """One pass over D[x, c] = d(x, c) = w(x - c) for an explicit code.

        x runs over F_q^n in odometer order and c over the words.  Each tile
        holds at most _CHUNK vectors (x-rows times a block of words) and
        costs one kernel call; per row only the two smallest distances are
        kept, which memoizes the covering radius (max row minimum) and, for
        two or more words, the packing radius (min second-smallest - 1).
        """
        space = self.space
        if space.size > max_space:
            raise SpaceTooLarge(f"q^n = {space.size} exceeds the enumeration cap {max_space}")
        cw = self.codeword_array(max_space)
        # x - c through the flat subtraction table: sub[a, b] = sub.flat[a * q + b]
        sub = space.field.sub_table.ravel()
        cols = min(len(cw), _CHUNK)
        covering, second = 0, _BIG
        for _, xs in odometer_chunks(space.q, space.n, max(_CHUNK // len(cw), 1)):
            xq = np.multiply(xs, space.q, dtype=np.uint16)
            best = np.full((len(xs), 2), _BIG, dtype=np.int64)
            for lo in range(0, len(cw), cols):
                c = cw[lo : lo + cols]
                w = space.batch_weights(sub[xq[:, None, :] + c[None, :, :]].reshape(-1, space.n))
                tile = np.concatenate([best, w.reshape(len(xs), len(c))], axis=1)
                tile.partition(1, axis=1)
                best = tile[:, :2].copy()
            covering = max(covering, int(best[:, 0].max()))
            second = min(second, int(best[:, 1].min()))
        self._memo["covering_radius"] = covering
        if self.size >= 2:
            self._memo["packing_radius"] = second - 1

    # the coset-major pass (linear codes) ---------------------------------------

    def _coset_pass(self, max_space: int, leaders: bool = False):
        """One pass over W[x, c] = w(x + c) for a linear code.

        x runs over the coset representatives (zero on the pivot columns) in
        odometer order over the free columns, so row x is coset x; c runs over
        the codewords.  Each tile holds at most _CHUNK vectors: whole rows
        when q^k <= _CHUNK, else one row split over codeword blocks.  Per row
        only the smallest and second-smallest entry are kept, which
        memoizes the covering radius (max row minimum) and, for two or more
        codewords, the packing radius (min second-smallest entry - 1).

        With leaders=True, returns per coset its minimum weight and the
        odometer rank of its first minimum-weight vector.
        """
        space = self.space
        if space.size > max_space:
            raise SpaceTooLarge(f"q^n = {space.size} exceeds the enumeration cap {max_space}")
        cw = self.codeword_array(max_space)
        # x + c through the flat addition table: add[a, b] = add.flat[a * q + b]
        add, radix = space.field.add_table.ravel(), space._radix
        cols = min(len(cw), _CHUNK)
        if leaders:
            cosets = space.q ** len(self._free)
            best_w = np.empty(cosets, dtype=np.int64)
            best_rank = np.empty(cosets, dtype=np.int64)
        covering, second = 0, _BIG
        rows = max(_CHUNK // len(cw), 1)
        for start, xs in odometer_chunks(space.q, len(self._free), rows):
            # q * x fits uint16 for q <= 256, which keeps the index tiles small
            xq = np.zeros((len(xs), space.n), dtype=np.uint16)
            xq[:, self._free] = np.multiply(xs, space.q, dtype=np.uint16)
            d1 = np.full(len(xq), _BIG, dtype=np.int64)
            d2 = np.full(len(xq), _BIG, dtype=np.int64)
            if leaders:
                rank = np.full(len(xq), _BIG, dtype=np.int64)
            for lo in range(0, len(cw), cols):
                c = cw[lo : lo + cols]
                v = add[xq[:, None, :] + c[None, :, :]].reshape(-1, space.n)
                w = space.batch_weights(v).reshape(len(xq), len(c))
                t1 = w.min(axis=1)
                if leaders:
                    hit = w == t1[:, None]
                    t_rank = np.full(w.shape, _BIG, dtype=np.int64)
                    t_rank[hit] = v[hit.ravel()].astype(np.int64) @ radix
                    t_rank = t_rank.min(axis=1)
                    tie = np.minimum(rank, t_rank)
                    rank = np.where(t1 < d1, t_rank, np.where(t1 == d1, tie, rank))
                # merge the tile's two smallest entries per row into (d1, d2)
                if len(c) > 1:
                    np.minimum(d2, np.partition(w, 1, axis=1)[:, 1], out=d2)
                np.minimum(d2, np.maximum(d1, t1), out=d2)
                np.minimum(d1, t1, out=d1)
            covering = max(covering, int(d1.max()))
            second = min(second, int(d2.min()))
            if leaders:
                best_w[start : start + len(xq)] = d1
                best_rank[start : start + len(xq)] = rank
        self._memo["covering_radius"] = covering
        if self.size >= 2:
            self._memo["packing_radius"] = second - 1
        return (best_w, best_rank) if leaders else None

    # cosets -----------------------------------------------------------------

    def coset_index(self, v: Sequence[int]) -> int:
        """Index of the coset of v: rank of the canonical form's free coordinates."""
        if not self.is_linear:
            raise NotLinear("cosets are defined for linear codes only")
        f = self.space.field
        canon = np.asarray(self.space._coerce(v), dtype=np.uint8)
        for g, p in zip(self.generators, self.pivots):
            canon = f.sub_table[canon, f.mul_table[canon[p], np.asarray(g, dtype=np.uint8)]]
        index = 0
        for c in self._free:
            index = index * self.space.q + int(canon[c])
        return index

    def coset_table(self, max_space: int = DEFAULT_MAX_SPACE) -> CosetTable:
        """Minimum-weight leader per coset; leader = first minimum in odometer order."""
        if "coset_table" in self._memo:
            return self._memo["coset_table"]
        if not self.is_linear:
            raise NotLinear("cosets are defined for linear codes only")
        best_w, best_rank = self._coset_pass(max_space, leaders=True)
        digits = best_rank[:, None] // self.space._radix % self.space.q
        table = CosetTable(
            leaders=tuple(map(tuple, digits.tolist())),
            weights=tuple(best_w.tolist()),
            max_weight=int(best_w.max()),
        )
        self._memo["coset_table"] = table
        return table

    # projections ------------------------------------------------------------

    def project(self, i: int, max_space: int = DEFAULT_MAX_SPACE) -> set[Vector]:
        """Values of block i over all codewords."""
        sl = self.space.labeling.block_slice(i)
        arr = self.codeword_array(max_space)
        return {tuple(int(x) for x in row) for row in arr[:, sl]}

    def trailing_full_index(self, max_space: int = DEFAULT_MAX_SPACE) -> int:
        """s if C_s is not all of F_q^{k_s}; otherwise the least l such that the
        joint projection onto blocks l+1..s is the full product space."""
        if not self.space.poset.is_chain():
            raise NotAChain("trailing_full_index requires a chain poset")
        s = self.space.s
        sizes = self.space.labeling.sizes
        offsets = self.space.labeling.offsets
        if len(self.project(s, max_space)) != self.space.q ** sizes[s - 1]:
            return s
        arr = self.codeword_array(max_space)
        for l in range(s):
            off = offsets[l]
            tail = {bytes(row) for row in arr[:, off:]}
            if len(tail) == self.space.q ** (self.space.n - off):
                return l
        return s  # unreachable: l = s-1 always succeeds once C_s is full

    # alternative weights ----------------------------------------------------

    def with_weight(self, weight: WeightFn) -> "Code":
        """The same word set viewed in the sibling space under another weight."""
        sibling = self.space.with_weight(weight)
        if self.is_linear:
            return Code.linear(sibling, self.generators)
        return Code.explicit(sibling, self.words)

    def max_poset_weight(self, weight: WeightFn, max_space: int = DEFAULT_MAX_SPACE) -> int:
        """Max codeword weight under the given coordinate weight."""
        sibling = self.space.with_weight(weight)
        arr = self.codeword_array(max_space)
        return int(sibling.batch_weights(arr).max())

    def __repr__(self) -> str:
        if self.is_linear:
            return f"Code(linear, k={self.dimension}, {self.space!r})"
        return f"Code(explicit, {self.size} words, {self.space!r})"
