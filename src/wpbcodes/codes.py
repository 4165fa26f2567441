"""Codes inside a block space and their exact parameters.

A code is either linear (generator rows, row-reduced at construction,
rank deficiency accepted silently) or explicit (a deduplicated word set,
validated as one array: integer coordinates in 0..q-1, no truncation).
All parameters are computed by exhaustive enumeration:

- min_distance: minimum nonzero codeword weight for linear codes
  (translation invariance), minimum pairwise distance for explicit ones
  (word pairs in tiles of at most _CHUNK, one pair-kernel call each);
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
coset_index(x)): q^n weights in all, instead of q^n * |C| for a
per-codeword scan.  Explicit codes get the covering and packing radius from
one pass over D[x, c] = d(x, c) with x over all of F_q^n.  W[x, c] =
w(x - (-c)), so both are one reduction (_pass) over w(x - c) with x over
F_q^(enumerated columns), the coset pass on the negated codewords; the
word-set pass enumerates all of F_q^n against the words instead of the
cosets, which the covering-oracle check compares the coset pass against.

A pass holds at most _CHUNK pairs per tile.  It cuts the enumerated columns
into a head and a tail of t columns, t the largest with q^t * |C| within
one tile, at the first tail column (BlockSpace.cut): x is a head row plus a
tail row, and the index of the block-max tuple of x - c in the cut's table
is a head part plus a tail part.  The (C, T) tail index of all q^t tail rows
is built once per pass and the head index once per chunk of head rows, both
with the pair tables, so each entry of a (head rows, C, T) tile costs one
add and one gather.  The odometer rank of x - c is additive the same way,
so the coset table ranks the entries that tie with a row minimum with one
add.  Without a cut (one tile holds the pass, q * |C| exceeds a tile, or
the space has no table for the cut) tiles are whole rows times a block of
words, one pair-kernel call each (BlockSpace.pair_weights on piece codes
computed once per tile and once per pass), and a leader rank forms x - c
for the tied entries only.  The word pairs of the minimum distance take the
same pair-kernel tiles.  No scan builds a difference vector for its
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blockspace import (
    _CHUNK,
    BlockSpace,
    Vector,
    _Cut,
    _Side,
    charge,
    odometer_chunks,
    odometer_table,
)
from .errors import NotAChain, NotLinear, TooFewWords
from .weights import WeightFn

_BIG = np.iinfo(np.int64).max


def _two_smallest(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Along axis 1 of a tile: its smallest entry t1, then t1 again if it
    occurs twice, else the least entry above it, and the mask of the
    entries equal to t1."""
    t1 = w.min(axis=1)
    hit = w == t1[:, None]
    t2 = np.maximum(w, hit * _BIG).min(axis=1)  # branch-free masking: w >= 0
    np.copyto(t2, t1, where=hit.sum(axis=1) > 1)
    return t1, t2, hit


def _rank_part(
    space: BlockSpace, side: _Side, rows: np.ndarray, cols: np.ndarray, words: np.ndarray
) -> np.ndarray:
    """(X, C) int64: the part of the odometer rank of x - c that the side's
    coordinates give, for the rows x of an (X, |cols|) array given on the
    columns cols (zero on the rest of the side) and the words c."""
    x = np.zeros((len(rows), side.hi - side.lo), dtype=np.uint8)
    x[:, cols - side.lo] = rows
    diff = space.field.sub_table[x[:, None, :], words[None, :, side.lo : side.hi]]
    return diff.astype(np.int64) @ space._radix[side.lo : side.hi]


def _tile(space: BlockSpace, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The (X, C) matrix w(x - c) for the piece codes of X x-rows (left,
    (pieces, X)) and C words (right, (pieces, C)), one pair-kernel call.  The
    longer of the two axes is laid out last in memory, where numpy's inner
    loops run: with few words and many rows the matrix is the transpose of
    a (C, X) array."""
    if left.shape[1] > right.shape[1]:
        return space.pair_weights(left[:, None, :], right[:, :, None]).T
    return space.pair_weights(left[:, :, None], right[:, None, :])


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
            dedup = sorted(set(map(tuple, space._coerce_rows(words).tolist())))
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

    def codeword_array(self) -> np.ndarray:
        """(|C|, n) uint8 array in deterministic order.

        Linear codes enumerate messages in odometer order (first generator
        coefficient most significant), which charges q^k; explicit codes are
        sorted.
        """
        if self._cw is not None:
            return self._cw
        if self.kind == "explicit":
            self._cw = np.asarray(self.words, dtype=np.uint8).reshape(self.size, self.space.n)
            return self._cw
        charge(self.size, "q^k")
        f = self.space.field
        arr = np.zeros((1, self.space.n), dtype=np.uint8)
        for g in self.generators:
            row = np.asarray(g, dtype=np.uint8)
            mults = f.mul_table[np.arange(self.space.q, dtype=np.intp)[:, None], row[None, :]]
            arr = f.add_table[arr[:, None, :], mults[None, :, :]].reshape(-1, self.space.n)
        self._cw = arr
        return arr

    def codewords(self) -> list[Vector]:
        return [tuple(int(x) for x in row) for row in self.codeword_array()]

    # distances --------------------------------------------------------------

    def min_distance(self) -> int:
        """Minimum distance over distinct codeword pairs."""
        if "min_distance" in self._memo:
            return self._memo["min_distance"]
        if self.size < 2:
            raise TooFewWords("min distance needs at least two distinct words")
        arr = self.codeword_array()
        if self.is_linear:
            d = int(self.space.batch_weights(arr[1:]).min())
        else:
            d = self._pairwise_min(arr)
        self._memo["min_distance"] = d
        return d

    def covering_radius(self) -> int:
        """max over F_q^n of the distance to the code."""
        if "covering_radius" not in self._memo:
            (self._coset_pass if self.is_linear else self._explicit_pass)()
        return self._memo["covering_radius"]

    def packing_radius(self) -> int:
        """Largest radius with pairwise disjoint balls around codewords."""
        if "packing_radius" in self._memo:
            return self._memo["packing_radius"]
        if self.size < 2:
            raise TooFewWords("packing radius needs at least two distinct words")
        (self._coset_pass if self.is_linear else self._explicit_pass)()
        return self._memo["packing_radius"]

    def is_r_perfect(self, r: int) -> bool:
        """True iff radius-r balls around codewords tile the space: every
        vector lies within r of a codeword (covering radius <= r) and, for two
        or more codewords, within r of no second one (r <= packing radius)."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        # the packing scan memoizes the covering radius as well
        if self.size >= 2 and r > self.packing_radius():
            return False
        return self.covering_radius() <= r

    def is_perfect(self) -> bool:
        return self.is_r_perfect(self.packing_radius())

    def _pairwise_min(self, cw: np.ndarray) -> int:
        """min over word pairs i < j of w(c_j - c_i), one pair-kernel call
        per tile of at most _CHUNK pairs in row-major order; charges the
        pairs."""
        space, m = self.space, len(cw)
        total = m * (m - 1) // 2
        charge(total, "|C|(|C|-1)/2 word pairs")
        # row i holds the pairs (i, j > i), from pair rank starts[i] on
        counts = np.arange(m - 1, 0, -1)
        starts = np.cumsum(counts) - counts
        left, right = space.piece_codes(cw), space.piece_codes(cw, left=False)
        d = _BIG
        for lo in range(0, total, _CHUNK):
            r = np.arange(lo, min(lo + _CHUNK, total))
            i = np.searchsorted(starts, r, side="right") - 1
            j = r - starts[i] + i + 1
            d = min(d, int(space.pair_weights(left[:, j], right[:, i]).min()))
        return d

    # the full-space passes ----------------------------------------------------

    def _explicit_pass(self) -> None:
        """One pass over D[x, c] = d(x, c) = w(x - c) for an explicit code,
        x over F_q^n in odometer order and c over the words (_pass).
        Charges the q^n * |C| pairs."""
        space = self.space
        charge(space.size * self.size, "q^n * |C| pairs")
        self._pass(np.arange(space.n), self.codeword_array())

    def _coset_pass(self, leaders: bool = False):
        """One pass over W[x, c] = w(x + c) = w(x - (-c)) for a linear code.

        x runs over the coset representatives (zero on the pivot columns) in
        odometer order over the free columns, so row x is coset x; c runs over
        the codewords, negated once for the kernel (_pass).  With
        leaders=True, returns per coset its minimum weight and the odometer
        rank of its first minimum-weight vector.  Charges the q^n entries of
        W.
        """
        space = self.space
        charge(space.size, "q^n")
        words = space.field.neg_table[self.codeword_array()]
        return self._pass(np.asarray(self._free, dtype=np.intp), words, leaders)

    def _pass(self, cols: np.ndarray, words: np.ndarray, leaders: bool = False):
        """One pass over w(x - c) for the rows x of F_q^cols in odometer order
        (zero off the columns cols) and the words c.  Per row only the
        smallest and second-smallest entry are kept, which memoizes the
        covering radius (max row minimum) and, for two or more words, the
        packing radius (min second-smallest entry - 1); with leaders=True,
        returns per row its minimum and the odometer rank of the first
        vector x - c reaching it."""
        if leaders:
            best_w = np.empty(self.space.q ** len(cols), dtype=np.int64)
            best_rank = np.empty_like(best_w)
        covering, second = 0, _BIG
        for start, d1, d2, rank in self._rows(cols, words, leaders):
            covering = max(covering, int(d1.max()))
            second = min(second, int(d2.min()))
            if leaders:
                best_w[start : start + len(d1)] = d1
                best_rank[start : start + len(d1)] = rank
        self._memo["covering_radius"] = covering
        if self.size >= 2:
            self._memo["packing_radius"] = second - 1
        return (best_w, best_rank) if leaders else None

    def _rows(self, cols: np.ndarray, words: np.ndarray, leaders: bool):
        """Yield (rank of the first row, d1, d2, rank) per chunk of the rows
        of _pass, each tile at most _CHUNK pairs.  The last t columns, t the
        largest below len(cols) with q^t * |C| <= _CHUNK, are the tail of a
        cut (BlockSpace.cut) at the first of them; without such a cut (one
        tile holds the pass, q * |C| > _CHUNK, or the space has no table for
        the cut) the pass runs on whole rows."""
        space = self.space
        t = 0
        while t < len(cols) and space.q ** (t + 1) * len(words) <= _CHUNK:
            t += 1
        cut = space.cut(int(cols[-t])) if 0 < t < len(cols) else None
        if cut is None:
            return self._whole_rows(cols, words, leaders)
        return self._cut_rows(cut, cols[:-t], cols[-t:], words, leaders)

    def _whole_rows(self, cols: np.ndarray, words: np.ndarray, leaders: bool):
        """_rows on whole rows x: tiles of x-rows times a block of words, one
        pair-kernel call each, merged per row over the blocks (whole rows
        when |C| <= _CHUNK, else one row split over word blocks); with
        leaders, x - c is formed only for the entries that tie with their
        row minimum."""
        space = self.space
        sub, radix = space.field.sub_table, space._radix
        right = space.piece_codes(words, left=False)
        block = min(len(words), _CHUNK)
        for start, xs in odometer_chunks(space.q, len(cols), max(_CHUNK // len(words), 1)):
            x = xs
            if len(cols) < space.n:
                x = np.zeros((len(xs), space.n), dtype=np.uint8)
                x[:, cols] = xs
            left = space.piece_codes(x)
            d1 = np.full(len(x), _BIG, dtype=np.int64)
            d2 = np.full(len(x), _BIG, dtype=np.int64)
            rank = np.full(len(x), _BIG, dtype=np.int64) if leaders else None
            for lo in range(0, len(words), block):
                w = _tile(space, left, right[:, lo : lo + block])
                t1, t2, hit = _two_smallest(w)
                if leaders:
                    tied = np.nonzero(hit)
                    t_rank = np.full_like(w, _BIG)
                    t_rank[tied] = sub[x[tied[0]], words[lo + tied[1]]].astype(np.int64) @ radix
                    t_rank = t_rank.min(axis=1)
                    tie = np.minimum(rank, t_rank)
                    rank = np.where(t1 < d1, t_rank, np.where(t1 == d1, tie, rank))
                # merge the tile's (t1, t2) into the row's (d1, d2)
                np.minimum(d2, np.minimum(t2, np.maximum(d1, t1)), out=d2)
                np.minimum(d1, t1, out=d1)
            yield start, d1, d2, rank

    def _cut_rows(
        self, cut: _Cut, head_cols: np.ndarray, tail_cols: np.ndarray, words: np.ndarray,
        leaders: bool,
    ):
        """_rows through a cut: x is a head row (on head_cols) plus a tail row
        (on tail_cols).  The (C, T) tail index of all T = q^t tail rows is
        built once and the head index once per chunk of head rows, so each
        (X, C, T) tile costs one add and one gather per entry.  The odometer
        rank of x - c is additive in the same way: its head and tail parts
        are built with the indices, and a row's first minimum costs one add
        per entry."""
        space = self.space
        tail_rows = odometer_table(space.q, len(tail_cols))
        # (C, T) and contiguous: a tile's last axis runs over the tail rows
        tail_codes = cut.tail.row_codes(tail_rows, tail_cols)
        tail = cut.tail.index(tail_codes, cut.tail.word_codes(words)).T.copy()
        head_words = cut.head.word_codes(words)
        if leaders:
            tail_rank = _rank_part(space, cut.tail, tail_rows, tail_cols, words).T.copy()
        for start, xs in odometer_chunks(space.q, len(head_cols), max(_CHUNK // tail.size, 1)):
            head = cut.head.index(cut.head.row_codes(xs, head_cols), head_words)
            t1, t2, hit = _two_smallest(cut.weights(head, tail))
            rank = None
            if leaders:
                ranks = _rank_part(space, cut.head, xs, head_cols, words)[:, :, None] + tail_rank
                rank = np.maximum(ranks, ~hit * _BIG).min(axis=1).ravel()
            yield start * len(tail_rows), t1.ravel(), t2.ravel(), rank

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

    def coset_table(self) -> CosetTable:
        """Minimum-weight leader per coset; leader = first minimum in odometer order."""
        if "coset_table" in self._memo:
            return self._memo["coset_table"]
        if not self.is_linear:
            raise NotLinear("cosets are defined for linear codes only")
        best_w, best_rank = self._coset_pass(leaders=True)
        digits = best_rank[:, None] // self.space._radix % self.space.q
        table = CosetTable(
            leaders=tuple(map(tuple, digits.tolist())),
            weights=tuple(best_w.tolist()),
            max_weight=int(best_w.max()),
        )
        self._memo["coset_table"] = table
        return table

    # projections ------------------------------------------------------------

    def project(self, i: int) -> set[Vector]:
        """Values of block i over all codewords."""
        sl = self.space.labeling.block_slice(i)
        arr = self.codeword_array()
        return {tuple(int(x) for x in row) for row in arr[:, sl]}

    def trailing_full_index(self) -> int:
        """s if C_s is not all of F_q^{k_s}; otherwise the least l such that the
        joint projection onto blocks l+1..s is the full product space."""
        if not self.space.poset.is_chain():
            raise NotAChain("trailing_full_index requires a chain poset")
        s = self.space.s
        sizes = self.space.labeling.sizes
        offsets = self.space.labeling.offsets
        if len(self.project(s)) != self.space.q ** sizes[s - 1]:
            return s
        arr = self.codeword_array()
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

    def max_poset_weight(self, weight: WeightFn) -> int:
        """Max codeword weight under the given coordinate weight."""
        sibling = self.space.with_weight(weight)
        arr = self.codeword_array()
        return int(sibling.batch_weights(arr).max())

    def __repr__(self) -> str:
        if self.is_linear:
            return f"Code(linear, k={self.dimension}, {self.space!r})"
        return f"Code(explicit, {self.size} words, {self.space!r})"
