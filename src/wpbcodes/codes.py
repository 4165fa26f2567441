"""Codes inside a block space and their exact parameters.

A code is either linear (generator rows, row-reduced at construction,
rank deficiency accepted silently) or explicit (a deduplicated word set).
Either kind's rows are validated as one array: integer coordinates in
0..q-1, no truncation.  The parameters are exact:

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
  ties broken by odometer order.

Every code reads its covering and packing radius from one pass (_pass)
over w(x - c), x over F_q^cols (zero off the columns cols) and c over some
words, keeping per row its two smallest entries: the max row minimum is a
covering radius, the min second-smallest entry - 1 a packing radius.
Linearity only changes what the pass enumerates (Code._levels).  An
explicit code has one level, all of F_q^n against its words.  A linear
code reads its covering radius, packing radius and minimum distance from
one summand of the poset's finest ordinal sum P = P_1 + ... + P_h
(Poset.summands, bottom first), every element of a lower summand below
every element of a higher one.  A nonzero vector u whose top nonzero
summand is j weighs M_w * N_{<j} + w_{P_j}(pi_j u), with N_{<j} the blocks
below summand j, so the weights of different j do not overlap.  With
V_{<=j} the vectors zero above summand j:

- covering radius = M_w * N_{<j*} + R(D), j* the least j with pi_{>j}(C)
  the whole space above j and D = pi_{j*}(C meet V_{<=j*}); 0 when C is
  the whole space (j* = 0);
- packing radius = M_w * N_{<j0} + rho(D0) and minimum distance =
  M_w * N_{<j0} + d(D0), j0 the least j with C meet V_{<=j} nonzero and
  D0 = pi_{j0}(C meet V_{<=j0}).

All of it comes from one echelon form of the generators with the columns
taken top summand first, so no codeword of C is enumerated: D's
parameters come from a sub-pass over D's cosets inside its summand and
d(D0) from D0's words.  On a single summand (an antichain, or any poset
that is no ordinal sum) D = D0 = C and the sub-pass is the full coset pass.

The coset pass: the generator is in reduced row-echelon form, so every
vector splits uniquely as x + c with x zero on the pivot columns and c a
codeword, and by translation invariance the distances from the coset
x + C to the code are the row x of W[x, c] = w(x + c) = w(x - (-c)): the
pass on the free columns against the negated codewords, q^n entries
instead of q^n * |C|, row x being coset_index(x).  A sub-pass runs on D's
free columns inside summand j against D's negated words; each nonzero
x + d is zero above summand j and nonzero in it, so it already weighs
M_w * N_{<j} + w_{P_j}(pi_j(x + d)).  Negating an explicit code's words
changes no reading, since x -> -x permutes F_q^n and w(-u) = w(u).  Every
pass charges its q^|cols| * |words| vector x word pairs.  The coset table
takes the full coset pass, keeping per row the first word that reaches the
row minimum, and memoizes its max leader weight as the covering radius
where none is memoized yet.

The coset table's leader x + c is the first minimum in odometer order
because the generators are in reduced row-echelon form in natural column
order and the words come in _span's message order.  With x zero on the
pivot columns p_1 < ... < p_k and c of message (m_1, ..., m_k), x + c holds
m_i at p_i, and before p_i it depends on m_1..m_{i-1} alone.  So inside
every coset, odometer order is message order, first coefficient most
significant, and the first word reaching a row's minimum gives its leader.

A pass cuts the enumerated columns into a head and a tail of t columns, t
the largest with q^t * |C| <= _CHUNK, at the first tail column
(BlockSpace.cut): x is a head row plus a tail row, and the index of the
block-max tuple of x - c in the cut's table is a head part plus a tail
part.  The (C, T) tail index of all q^t tail rows is built once per pass
and the head index once per chunk of head rows, both with the pair tables,
so each entry of a (head rows, C, T) tile costs one add and one gather.
The cut's tiles are narrow (uint16 indices into a uint8 table, _Cut), so a
chunk takes 4 * _CHUNK entries, at least one head row.  Without a cut (one
tile holds the pass, q * |C| exceeds a tile, or the space has no table for
the cut) tiles are whole rows times a block of words, at most _CHUNK int64
weights, one pair-kernel call each (BlockSpace.pair_weights on piece codes
computed once per tile and once per pass).  The word pairs of the minimum
distance take the same pair-kernel tiles.  No scan builds a difference
vector for its weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .blockspace import (
    _CHUNK,
    BlockSpace,
    Vector,
    _Cut,
    charge,
    odometer_chunks,
    odometer_table,
)
from .errors import NotAChain, NotLinear, TooFewWords
from .field import Field
from .weights import WeightFn

_BIG = np.iinfo(np.int64).max


def _two_smallest(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Along axis 1 of a tile: its smallest entry t1, then t1 again if it
    occurs twice, else the least entry above it, and the mask of the
    entries equal to t1, all in the tile's dtype.  The entries equal to t1
    are masked with the dtype's maximum, which lies above every weight (a
    cut's uint8 table holds at most 254, BlockSpace.cut).  It is left as t2
    in the rows of a tile with one word, and reaches a pass's reading only
    when the pass has one word (a later one-word block of a whole-row pass
    merges into real entries), whose packing reading no code stores."""
    t1 = w.min(axis=1)
    hit = w == t1[:, None]
    big = w.dtype.type(np.iinfo(w.dtype).max)
    t2 = np.maximum(w, hit * big).min(axis=1)  # branch-free masking: w >= 0
    np.copyto(t2, t1, where=hit.sum(axis=1) > 1)
    return t1, t2, hit


def _tile(space: BlockSpace, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The (X, C) matrix w(x - c) for the piece codes of X x-rows (left,
    (pieces, X)) and C words (right, (pieces, C)), one pair-kernel call.  The
    longer of the two axes is laid out last in memory, where numpy's inner
    loops run: with few words and many rows the matrix is the transpose of
    a (C, X) array."""
    if left.shape[1] > right.shape[1]:
        return space.pair_weights(left[:, None, :], right[:, :, None]).T
    return space.pair_weights(left[:, :, None], right[:, None, :])


def _row_reduce(
    field: Field, rows: np.ndarray, order: Sequence[int]
) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """The reduced row-echelon form of a validated (m, n) uint8 array with
    its columns taken in the given order, and its pivot columns in that
    order.  The matrices are a few rows, so this is list code on the
    field's tables as lists."""
    mul, sub, inv = _list_tables(field)
    mat = rows.tolist()
    pivots: list[int] = []
    r = 0
    for c in order:
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        scale = mul[inv[mat[r][c]]]
        mat[r] = [scale[x] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                times = mul[mat[i][c]]
                mat[i] = [sub[x][times[y]] for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


@lru_cache(maxsize=None)
def _list_tables(field: Field) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The multiplication, subtraction and inverse tables of a field as
    Python lists (one per field), for scalar list code."""
    return field.mul_table.tolist(), field.sub_table.tolist(), field.inv_table.tolist()


def _span(field: Field, rows: np.ndarray) -> np.ndarray:
    """The span of the rows of an (m, n) uint8 array as a (q^m, n) array in
    odometer message order (first row's coefficient most significant)."""
    n = rows.shape[1]
    # every multiple of every row, (m, q, n): one gather
    mults = field.mul_table[np.arange(field.q)[None, :, None], rows[:, None, :]]
    arr = mults[0] if len(rows) else np.zeros((1, n), dtype=np.uint8)
    for row_mults in mults[1:]:
        arr = field.add_table[arr[:, None, :], row_mults[None, :, :]].reshape(-1, n)
    return arr


def _distinct(rows: np.ndarray) -> int:
    """The number of distinct rows of an (m >= 1, width) uint8 array, by one
    sort of its rows as bytes (np.unique would import numpy.ma)."""
    keys = np.sort(np.ascontiguousarray(rows).view(f"V{rows.shape[1]}").ravel())
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


class _Level:
    """The code D inside one summand j of the poset's ordinal sum that a
    code's parameter is read from (Code._levels): rows, the (dim D, n)
    uint8 echelon rows with their pivot in summand j (codewords zero above
    it whose parts in it span D), or None when D is C; cols, the summand's
    columns off those pivots (all n for an explicit code), ascending; and
    D's words once enumerated (Code._level_words).  The rows' coordinates below summand j
    need no clearing: those blocks lie below a nonzero block of summand j in
    every nonzero x + d, where each weighs M_w whatever its values."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: np.ndarray | None, cols: np.ndarray):
        self.rows, self.cols = rows, cols
        self.words: np.ndarray | None = None


class _Levels(NamedTuple):
    """The level reading of a code (Code._levels); summands are numbered
    1..h from the bottom, and an explicit code's one level counts as a
    single summand."""

    top: int  # j*: 0 when C is the whole space, else the highest summand C does not fill
    cover: _Level | None  # D at j*, None when C is the whole space
    pack: _Level | None  # D0 at j0, the lowest summand holding a pivot; None for one word


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
        rows = space._coerce_rows(words if generators is None else generators)
        if generators is not None:
            self.kind = "linear"
            self.generators, self.pivots = _row_reduce(space.field, rows, range(space.n))
            self.dimension = len(self.generators)
            self.size: int = space.q**self.dimension
            self._free = np.array([c for c in range(space.n) if c not in self.pivots], np.intp)
            self.words = None
        else:
            self.kind = "explicit"
            dedup = sorted(set(map(tuple, rows.tolist())))
            if not dedup:
                raise ValueError("an explicit code needs at least one word")
            self.words = tuple(dedup)
            self.generators = None
            self.pivots = None
            self._free = np.arange(space.n, dtype=np.intp)  # a pass enumerates every column
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
        self._cw = _span(self.space.field, self._defining_rows())
        return self._cw

    def codewords(self) -> list[Vector]:
        return [tuple(int(x) for x in row) for row in self.codeword_array()]

    # distances --------------------------------------------------------------

    def min_distance(self) -> int:
        """Minimum distance over distinct codeword pairs."""
        if "min_distance" in self._memo:
            return self._memo["min_distance"]
        if self.size < 2:
            raise TooFewWords("min distance needs at least two distinct words")
        if self.is_linear:
            words = self._level_words(self._levels().pack)
            d = int(self.space.batch_weights(words[1:]).min())
        else:
            d = self._pairwise_min(self.codeword_array())
        self._memo["min_distance"] = d
        return d

    def covering_radius(self) -> int:
        """max over F_q^n of the distance to the code."""
        if "covering_radius" not in self._memo:
            self._level_pass(self._levels().cover)
        return self._memo["covering_radius"]

    def packing_radius(self) -> int:
        """Largest radius with pairwise disjoint balls around codewords."""
        if "packing_radius" in self._memo:
            return self._memo["packing_radius"]
        if self.size < 2:
            raise TooFewWords("packing radius needs at least two distinct words")
        self._level_pass(self._levels().pack)
        return self._memo["packing_radius"]

    def is_r_perfect(self, r: int) -> bool:
        """True iff radius-r balls around codewords tile the space: every
        vector lies within r of a codeword (covering radius <= r) and, for two
        or more codewords, within r of no second one (r <= packing radius)."""
        if r < 0:
            raise ValueError("radius must be >= 0")
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

    # the level reading --------------------------------------------------------

    def _levels(self) -> _Levels:
        """The summands a code's covering radius (j*, code D) and packing
        radius and minimum distance (j0, code D0) are read from, memoized;
        see the module docstring.

        The generators of a linear code are row-reduced once more with the
        columns taken top summand first, so the rows with their pivot in
        summand j are zero above it and span C's words whose top nonzero
        summand is j, modulo the lower ones; their part in summand j spans
        D_j = pi_j(C meet V_{<=j}).  pi_{>j}(C) is the whole space above j
        iff every summand above j holds as many pivots as columns.  On a
        single summand, and for an explicit code, D and D0 are C itself on
        its free columns (all n for an explicit code) and nothing is reduced
        again."""
        levels = self._memo.get("levels")
        if levels is not None:
            return levels
        space, n = self.space, self.space.n
        parts = space.poset.summands()
        if not self.is_linear or len(parts) == 1:
            whole = _Level(None, self._free)
            cover = whole if len(self._free) else None  # None: C is the whole space
            levels = _Levels(int(cover is not None), cover, whole if self.size > 1 else None)
        else:
            # these codes are small, so plain lists beat numpy calls here
            where = [0] * n  # the summand of each column
            for j, part in enumerate(parts):
                for e in part:
                    block = space._slices[e - 1]
                    where[block] = [j] * (block.stop - block.start)
            top_first = sorted(range(n), key=lambda c: -where[c])
            rows, pivots = _row_reduce(space.field, self._defining_rows(), top_first)
            at = [where[p] for p in pivots]  # non-increasing: rows come top summand first
            held, width = [0] * len(parts), [0] * len(parts)
            for j in at:
                held[j] += 1
            for j in where:
                width[j] += 1
            top = next((j + 1 for j in reversed(range(len(parts))) if held[j] < width[j]), 0)

            def level(j: int) -> _Level:
                mine = [row for row, a in zip(rows, at) if a == j]
                free = [c for c in range(n) if where[c] == j and c not in pivots]
                return _Level(
                    np.array(mine, dtype=np.uint8).reshape(len(mine), n),
                    np.array(free, dtype=np.intp),
                )

            cover = level(top - 1) if top else None
            pack = None
            if rows:  # the last row's pivot lies in the lowest summand holding one
                pack = cover if at[-1] == top - 1 else level(at[-1])
            levels = _Levels(top, cover, pack)
        self._memo["levels"] = levels
        return levels

    def _level_words(self, level: _Level) -> np.ndarray:
        """The span of a level's rows in odometer message order (for D0 the
        nonzero codewords of C meet V_{<=j0} and 0), enumerated once; charges
        q^(dim D)."""
        if level.words is None:
            if level.rows is None:
                level.words = self.codeword_array()
            else:
                charge(self.space.q ** len(level.rows), "q^dim(D) words")
                level.words = _span(self.space.field, level.rows)
        return level.words

    def _level_pass(self, level: _Level | None) -> None:
        """The sub-pass of a level (_pass on its columns against its negated
        words; see the module docstring), which memoizes the readings that
        hold for the code: the covering radius when the level is D, the
        packing radius when it is D0, both when D = D0.  No level for the
        covering radius: C is the whole space, 0."""
        if level is None:
            self._memo["covering_radius"] = 0
            return
        levels = self._levels()
        words = self._level_words(level)
        covering, packing, _ = self._pass(level.cols, self.space.field.neg_table[words])
        if level is levels.cover:
            self._memo["covering_radius"] = covering
        if level is levels.pack:
            self._memo["packing_radius"] = packing

    # the pass -----------------------------------------------------------------

    def _pass(self, cols: np.ndarray, words: np.ndarray, leaders: bool = False):
        """One pass over w(x - c) for the rows x of F_q^cols in odometer order
        (zero off the columns cols) and the words c.  Per row only the
        smallest and second-smallest entry are kept.  Returns the max row
        minimum and the min second-smallest entry - 1 (a covering and, for
        two or more words, a packing radius; the caller stores the ones that
        hold for its code) and, with leaders=True, per row its minimum and
        the index of the first word reaching it, else None.  Charges the
        q^|cols| * |words| vector x word pairs."""
        rows = self.space.q ** len(cols)
        charge(rows * len(words), "vector x word pairs")
        if leaders:
            best_w = np.empty(rows, dtype=np.int64)
            best_word = np.empty(rows, dtype=np.intp)
        covering, second = 0, _BIG
        for start, d1, d2, word in self._rows(cols, words, leaders):
            covering = max(covering, int(d1.max()))
            second = min(second, int(d2.min()))
            if leaders:
                best_w[start : start + len(d1)] = d1
                best_word[start : start + len(d1)] = word
        return covering, second - 1, ((best_w, best_word) if leaders else None)

    def _rows(self, cols: np.ndarray, words: np.ndarray, leaders: bool):
        """Yield (rank of the first row, d1, d2, word) per chunk of the rows
        of _pass, word being the index of each row's first minimum with
        leaders, else None.  The last t columns, t the largest below
        len(cols) with q^t * |C| <= _CHUNK, are the tail of a cut
        (BlockSpace.cut) at the first of them; without such a cut (one tile
        holds the pass, q * |C| > _CHUNK, or the space has no table for the
        cut) the pass runs on whole rows."""
        space = self.space
        t = 0
        while t < len(cols) and space.q ** (t + 1) * len(words) <= _CHUNK:
            t += 1
        cut = space.cut(int(cols[-t])) if 0 < t < len(cols) else None
        if cut is None:
            return self._whole_rows(cols, words, leaders)
        return self._cut_rows(cut, cols[:-t], cols[-t:], words, leaders)

    def _whole_rows(self, cols: np.ndarray, words: np.ndarray, leaders: bool):
        """_rows on whole rows x: tiles of at most _CHUNK pairs, x-rows times
        a block of words, one pair-kernel call each (whole rows when
        |C| <= _CHUNK, else one row split over word blocks).  The first
        block's readings are the row's, and each later block merges into
        them; with leaders, a tile's first minimum is the first word of its
        tie mask, and a later block takes a row's word only with a strictly
        smaller minimum."""
        space = self.space
        right = space.piece_codes(words, left=False)
        block = min(len(words), _CHUNK)
        for start, xs in odometer_chunks(space.q, len(cols), max(_CHUNK // len(words), 1)):
            x = xs
            if len(cols) < space.n:
                x = np.zeros((len(xs), space.n), dtype=np.uint8)
                x[:, cols] = xs
            left = space.piece_codes(x)
            for lo in range(0, len(words), block):
                t1, t2, hit = _two_smallest(_tile(space, left, right[:, lo : lo + block]))
                t_word = lo + hit.argmax(axis=1) if leaders else None
                if lo == 0:  # the first block's readings are the row's so far
                    d1, d2, word = t1, t2, t_word
                    continue
                if leaders:
                    word = np.where(t1 < d1, t_word, word)
                # merge the tile's (t1, t2) into the row's (d1, d2)
                np.minimum(d2, np.minimum(t2, np.maximum(d1, t1)), out=d2)
                np.minimum(d1, t1, out=d1)
            yield start, d1, d2, word

    def _cut_rows(
        self, cut: _Cut, head_cols: np.ndarray, tail_cols: np.ndarray, words: np.ndarray,
        leaders: bool,
    ):
        """_rows through a cut: x is a head row (on head_cols) plus a tail row
        (on tail_cols).  The (C, T) tail index of all T = q^t tail rows is
        built once and the head index once per chunk of X head rows, so each
        (X, C, T) tile costs one add and one gather per entry.  A chunk
        holds at most 4 * _CHUNK entries of the cut's uint8 table (a uint16
        index and a uint8 weight each) and at least one head row
        (C * T <= _CHUNK).  With leaders, a row's first minimum is the first
        word of the tile's tie mask."""
        space = self.space
        tail_rows = odometer_table(space.q, len(tail_cols))
        # (C, T) and contiguous: a tile's last axis runs over the tail rows
        tail_codes = cut.tail.row_codes(tail_rows, tail_cols)
        tail = cut.tail.index(tail_codes, cut.tail.word_codes(words)).T.copy()
        head_words = cut.head.word_codes(words)
        for start, xs in odometer_chunks(space.q, len(head_cols), 4 * _CHUNK // tail.size):
            head = cut.head.index(cut.head.row_codes(xs, head_cols), head_words)
            t1, t2, hit = _two_smallest(cut.weights(head, tail))
            word = hit.argmax(axis=1).ravel() if leaders else None
            yield start * len(tail_rows), t1.ravel(), t2.ravel(), word

    # cosets -----------------------------------------------------------------

    def coset_index(self, v: Sequence[int]) -> int:
        """Index of the coset of v: rank of the canonical form's free coordinates."""
        return int(self.coset_indices(np.asarray(self.space._coerce(v), dtype=np.uint8)[None])[0])

    def coset_indices(self, rows) -> np.ndarray:
        """(N,) coset indices of the rows of an (N, n) array (coset_index of
        each), from one canonical-form pass: each generator clears its pivot
        column in every row, and the free coordinates are ranked in odometer
        order.  int64 entries when the q^(n-k) cosets fit, else Python
        ints."""
        if not self.is_linear:
            raise NotLinear("cosets are defined for linear codes only")
        f, q = self.space.field, self.space.q
        canon = self.space._coerce_rows(rows)
        for g, p in zip(self._defining_rows(), self.pivots):
            canon = f.sub_table[canon, f.mul_table[canon[:, p : p + 1], g[None, :]]]
        free = len(self._free)
        dtype = np.int64 if q**free <= _BIG else object
        radix = np.array([q**e for e in range(free - 1, -1, -1)], dtype=dtype)
        return canon[:, self._free].astype(dtype) @ radix

    def coset_table(self) -> CosetTable:
        """Minimum-weight leader per coset; leader = first minimum in odometer
        order, x + c for the row x of the coset pass (zero on the pivots)
        and the first codeword c reaching the row minimum (module
        docstring)."""
        if "coset_table" in self._memo:
            return self._memo["coset_table"]
        if not self.is_linear:
            raise NotLinear("cosets are defined for linear codes only")
        space = self.space
        words = space.field.neg_table[self.codeword_array()]
        best_w, best_word = self._pass(self._free, words, True)[2]
        x = np.zeros((len(best_w), space.n), dtype=np.uint8)
        x[:, self._free] = odometer_table(space.q, len(self._free))
        # zip one list per coordinate into the leader tuples: a list per row,
        # made and freed, fragments the small-object heap and lifts peak RSS
        table = CosetTable(
            leaders=tuple(zip(*space.field.sub_table[x, words[best_word]].T.tolist())),
            weights=tuple(best_w.tolist()),
            max_weight=int(best_w.max()),
        )
        self._memo["coset_table"] = table
        self._memo.setdefault("covering_radius", table.max_weight)
        return table

    # projections ------------------------------------------------------------

    def project(self, i: int) -> set[Vector]:
        """Values of block i over all codewords."""
        sl = self.space.labeling.block_slice(i)
        arr = self.codeword_array()
        return {tuple(int(x) for x in row) for row in arr[:, sl]}

    def trailing_full_index(self) -> int:
        """With the blocks numbered 1..s along the chain, bottom first: s if
        C_s is not all of F_q^{k_s}; otherwise the least l such that the
        joint projection onto blocks l+1..s is the full product space.  A
        linear code reads it from its level reading (it is j*), counting no
        codeword."""
        if not self.space.poset.is_chain():
            raise NotAChain("trailing_full_index requires a chain poset")
        if self.is_linear:
            return self._levels().top
        space, arr = self.space, self.codeword_array()
        above: list[int] = []  # the columns of blocks l..s
        # a full suffix stays full when it is shortened, so the first suffix
        # from block s down that is not full ends the search
        for l, (e,) in reversed(tuple(enumerate(space.poset.summands(), 1))):
            above[:0] = range(space.n)[space._slices[e - 1]]
            full = space.q ** len(above)
            if self.size < full or _distinct(arr[:, above]) < full:
                return l
        return 0

    # rows and alternative weights -------------------------------------------

    def _defining_rows(self) -> np.ndarray:
        """(rows, n) uint8: the generators of a linear code, the words of an
        explicit one."""
        if self.is_linear:
            return np.array(self.generators, dtype=np.uint8).reshape(self.dimension, self.space.n)
        return self.codeword_array()

    def _same_kind(self, space: BlockSpace, rows: np.ndarray) -> "Code":
        """The code of this code's kind in space with the given rows: its
        generators when linear (a linear map of _defining_rows), else its
        words."""
        return Code(space, generators=rows) if self.is_linear else Code(space, words=rows)

    def with_weight(self, weight: WeightFn) -> "Code":
        """The same word set viewed in the sibling space under another weight."""
        return self._same_kind(self.space.with_weight(weight), self._defining_rows())

    def max_poset_weight(self, weight: WeightFn) -> int:
        """Max codeword weight under the given coordinate weight."""
        sibling = self.space.with_weight(weight)
        arr = self.codeword_array()
        return int(sibling.batch_weights(arr).max())

    def __repr__(self) -> str:
        if self.is_linear:
            return f"Code(linear, k={self.dimension}, {self.space!r})"
        return f"Code(explicit, {self.size} words, {self.space!r})"
