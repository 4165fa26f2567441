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
coset_index(x)) and evaluates W in tiles of at most _CHUNK pairs: q^n
weights in all, instead of q^n * |C| for a per-codeword scan.  Explicit
codes get the covering and packing radius from one pass over
D[x, c] = d(x, c) with x over all of F_q^n, tiled the same way but with its
own merge; that pass is also the independent oracle the covering-oracle
check compares the linear pass against.

All three scans (pairs, D and W) get a tile from one call of the pair
kernel BlockSpace.pair_weights on the piece codes of its rows and words,
which are computed once per tile and once per pass; no difference vector is
built.  W[x, c] = w(x - (-c)), so the coset pass negates the codewords once
and forms x + c only for the entries that tie with a row minimum, to rank
the coset leaders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blockspace import _CHUNK, BlockSpace, Vector, charge, odometer_chunks
from .errors import NotAChain, NotLinear, TooFewWords
from .weights import WeightFn

_BIG = np.iinfo(np.int64).max


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

    # the word-set pass (explicit codes) ----------------------------------------

    def _explicit_pass(self) -> None:
        """One pass over D[x, c] = d(x, c) = w(x - c) for an explicit code.

        x runs over F_q^n in odometer order and c over the words.  Each tile
        holds at most _CHUNK pairs (x-rows times a block of words) and costs
        one pair-kernel call; per row only the two smallest distances are
        kept, which memoizes the covering radius (max row minimum) and, for
        two or more words, the packing radius (min second-smallest - 1).
        Charges the q^n * |C| pairs.
        """
        space = self.space
        charge(space.size * self.size, "q^n * |C| pairs")
        cw = self.codeword_array()
        right = space.piece_codes(cw, left=False)
        cols = min(len(cw), _CHUNK)
        covering, second = 0, _BIG
        for _, xs in odometer_chunks(space.q, space.n, max(_CHUNK // len(cw), 1)):
            left = space.piece_codes(xs)
            best = np.full((len(xs), 2), _BIG, dtype=np.int64)
            for lo in range(0, len(cw), cols):
                w = _tile(space, left, right[:, lo : lo + cols])
                tile = np.concatenate([best, w], axis=1)
                tile.partition(1, axis=1)
                best = tile[:, :2].copy()
            covering = max(covering, int(best[:, 0].max()))
            second = min(second, int(best[:, 1].min()))
        self._memo["covering_radius"] = covering
        if self.size >= 2:
            self._memo["packing_radius"] = second - 1

    # the coset-major pass (linear codes) ---------------------------------------

    def _coset_pass(self, leaders: bool = False):
        """One pass over W[x, c] = w(x + c) = w(x - (-c)) for a linear code.

        x runs over the coset representatives (zero on the pivot columns) in
        odometer order over the free columns, so row x is coset x; c runs over
        the codewords, negated once for the pair kernel.  Each tile holds at
        most _CHUNK pairs: whole rows when q^k <= _CHUNK, else one row split
        over codeword blocks.  Per row only the smallest and second-smallest
        entry are kept, which memoizes the covering radius (max row minimum)
        and, for two or more codewords, the packing radius (min
        second-smallest entry - 1).

        With leaders=True, returns per coset its minimum weight and the
        odometer rank of its first minimum-weight vector; x + c is formed
        only for the entries that tie with their row minimum.  Charges the
        q^n entries of W.
        """
        space = self.space
        charge(space.size, "q^n")
        cw = self.codeword_array()
        right = space.piece_codes(space.field.neg_table[cw], left=False)
        cols = min(len(cw), _CHUNK)
        if leaders:
            add, radix = space.field.add_table, space._radix
            cosets = space.q ** len(self._free)
            best_w = np.empty(cosets, dtype=np.int64)
            best_rank = np.empty(cosets, dtype=np.int64)
        covering, second = 0, _BIG
        rows = max(_CHUNK // len(cw), 1)
        for start, xs in odometer_chunks(space.q, len(self._free), rows):
            x = np.zeros((len(xs), space.n), dtype=np.uint8)
            x[:, self._free] = xs
            left = space.piece_codes(x)
            d1 = np.full(len(x), _BIG, dtype=np.int64)
            d2 = np.full(len(x), _BIG, dtype=np.int64)
            if leaders:
                rank = np.full(len(x), _BIG, dtype=np.int64)
            for lo in range(0, len(cw), cols):
                w = _tile(space, left, right[:, lo : lo + cols])
                # the tile's two smallest entries per row: t1, then t1 again
                # if it occurs twice, else the least entry above it
                t1 = w.min(axis=1)
                hit = w == t1[:, None]
                t2 = np.where(hit, _BIG, w).min(axis=1)
                np.copyto(t2, t1, where=hit.sum(axis=1) > 1)
                if leaders:
                    tied = np.nonzero(hit)
                    t_rank = np.full_like(w, _BIG)
                    t_rank[tied] = add[x[tied[0]], cw[lo + tied[1]]].astype(np.int64) @ radix
                    t_rank = t_rank.min(axis=1)
                    tie = np.minimum(rank, t_rank)
                    rank = np.where(t1 < d1, t_rank, np.where(t1 == d1, tie, rank))
                # merge them into the row's (d1, d2)
                np.minimum(d2, np.minimum(t2, np.maximum(d1, t1)), out=d2)
                np.minimum(d1, t1, out=d1)
            covering = max(covering, int(d1.max()))
            second = min(second, int(d2.min()))
            if leaders:
                best_w[start : start + len(x)] = d1
                best_rank[start : start + len(x)] = rank
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
