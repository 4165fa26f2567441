"""Codes inside a block space and their exact parameters.

A code is either linear (generator rows, row-reduced at construction,
rank deficiency accepted silently) or explicit (a deduplicated word set).
Either kind's rows are validated as one array: integer coordinates in
0..q-1, no truncation.  The parameters are exact:

- min_distance: minimum nonzero codeword weight for linear codes
  (translation invariance), minimum distance between distinct words for
  explicit ones (the least second-smallest entry of the words' rows of
  w(x - c), on the passes' whole-row tiles);
- covering_radius: max over vectors of the distance to the code;
- packing_radius: (min over vectors of the second-smallest distance to
  the code) - 1, which equals the largest radius with pairwise disjoint
  balls around codewords;
- is_r_perfect(r): covering radius <= r <= packing radius (for a one-word
  code, covering radius <= r): every vector lies within r of a codeword
  and of no second one;
- coset_table: minimum-weight leader per coset of a linear code, with
  ties broken by odometer order.

Every code reads its covering radius, packing radius and minimum distance
along its poset's decomposition tree (Poset.tree): series nodes split into
their finest ordinal sum P_lo + P_hi (every element of P_lo below every
element of P_hi), parallel nodes into the connected components of their
comparability graph, P_1 u P_2, and leaves split no further.  The code is a
part on the root (_Part: rows or words zero off the node's columns), and a
split gives parts on the children:

- parallel node, when C = C_1 x C_2 along the split (the product test: an
  explicit code peels off each component i with |C| = |pi_i C| *
  |pi_rest C|; a linear code's factors are the classes of components that
  the rows of its reduced echelon form join, since that form of a product
  is the forms of its factors): weights add across the parts, so
  R = R_1 + R_2, and d = min d_i and rho = min rho_i over the parts with
  two or more words.  Components that do not factor are read together;
- series node, linear code: with the columns taken top summand first (one
  echelon form, _top_first), j* is the highest summand that C does not
  fill and D = pi_j*(C meet V_{<=j*}), j0 the lowest summand holding a
  pivot and D0 = pi_j0(C meet V_{<=j0}): R = M_w * N_{<j*} + R(D) (0 when C
  fills the node), rho = M_w * N_{<j0} + rho(D0), d = M_w * N_{<j0} + d(D0),
  N_{<j} the blocks below summand j;
- series node, explicit code: T = pi_hi(C) and the fibers
  C_t = {c_lo : (c_lo, t) in C}.  A vector with a nonzero top part weighs
  more than M_w * N_lo and one with a zero top part at most that, so
  R = max_t R(C_t) when T is all of F_q^(n_hi), else M_w * N_lo + R(T);
  rho = min rho(C_t) and d = min d(C_t) over the fibers with two or more
  words, or M_w * N_lo + rho(T) and M_w * N_lo + d(T) when there is none.
  A linear code's fibers are the cosets of its fiber at t = 0, C meet
  V_lo, so this is the linear case one summand at a time.

The leaves run today's reductions on the full space: _pass over F_q^cols
(zero off the leaf's columns cols) against the leaf's words for both radii,
and for d the nonzero words of a linear leaf, or an explicit leaf's words
as the rows of a whole-row pass against themselves (each word's row has its
one 0 at the word, so its second-smallest entry is the distance to the
nearest other word).  Those readings carry the offsets M_w * N_{<j}
themselves: an element outside a node below one inside lies below all of
it (their lowest common node is a series one), so a nonzero u zero off a
node weighs M_w * o + w_node(u), o = Node.below, and a leaf's readings are
its own plus M_w * o (a covering radius of 0 stays 0).  So a series split
takes its parts' readings as they are (max or min), and a parallel one,
whose parts share its offset, sums the parts' excesses over it (_combine).

A part splits only when its split costs less (_plan).  Every leaf reading
costs its rows times its words (_leaf_cost): q^|cols| * |C| entries for an
explicit leaf's radii, q^(|cols| - dim) coset rows times q^dim words for a
linear one's, the zero row times |C| for a linear d and |C|^2 for an
explicit d; plus _CHUNK / 8 for a pass's fixed work, its entries beyond
_CHUNK an eighth each, and a split _CHUNK / 8.  So a space that fits one
tile, as in verify, reads as one leaf, and a disjoint sum of two codes on
30-block chains (2^60 vectors) reads from its parts' levels.  A reading
charges the entries of all its leaves together, in one unit, before the
first runs.

The coset pass: the generator is in reduced row-echelon form, so every
vector splits uniquely as x + c with x zero on the pivot columns and c a
codeword, and by translation invariance the distances from the coset
x + C to the code are the row x of W[x, c] = w(x + c) = w(x - (-c)): the
pass on the free columns against the negated codewords, q^n entries
instead of q^n * |C|, row x being coset_index(x).  A linear leaf takes the
same pass on its columns off its pivots against its negated words.  The
coset table takes the full coset pass, keeping per row the first word that
reaches the row minimum, and memoizes its max leader weight as the
covering radius where none is memoized yet.

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
weights, one pair-kernel call each (BlockSpace.pair_weights).  Every pass
takes its rows' piece codes from a piece plan, the space's or a cut
side's, which enumerates them by broadcast adds and keeps those of a table
it has built (_PiecePlan.odometer_codes, row_codes): the rows of a pass
that one tile holds, as nearly every pass of verify does, and the tail
rows of a cut are built once per plan and column set.  The words' piece
codes take one product per pass (_PiecePlan.codes), and so do the rows of
an explicit minimum distance, the words themselves, per chunk of rows.  No
scan builds a row array of F_q^cols or a difference vector for its
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .blockspace import _CHUNK, BlockSpace, Vector, _Cut, charge, odometer_table
from .errors import NotAChain, NotLinear, TooFewWords
from .field import Field
from .poset import Node
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


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (m >= 1, width) uint8 array in the order of
    their bytes, by one sort of the rows as bytes (np.unique would import
    numpy.ma)."""
    width = rows.shape[1]
    keys = np.sort(np.ascontiguousarray(rows).view(f"V{width}").ravel())
    keep = np.concatenate(([True], keys[1:] != keys[:-1]))
    return keys[keep].view(np.uint8).reshape(-1, width)


def _project(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The n-wide rows with the columns of an (m, |cols|) uint8 array on the
    ascending columns cols and zero elsewhere, in the same order."""
    out = np.zeros((len(rows), n), dtype=np.uint8)
    out[:, cols] = rows
    return out


class _Part:
    """A code on one node of the poset's decomposition tree (Poset.tree):
    n-wide uint8 rows zero off the node's columns cols.  A linear part has
    rows, its generators in reduced echelon form, with the pivot column of
    each row (pivots), and words, their span once enumerated; an explicit
    part has its distinct words.  split holds the parts it splits into
    (Code._split), plan the reading chosen for it (Code._plan), memo its
    readings as a leaf."""

    __slots__ = ("node", "cols", "size", "rows", "pivots", "words", "split", "plan", "memo")

    def __init__(self, node: Node, cols: np.ndarray, size: int, *,
                 rows=None, pivots=None, words=None):
        self.node, self.cols, self.size = node, cols, size
        self.rows, self.pivots, self.words = rows, pivots, words
        self.split: tuple | list | None = None
        # per reading: (the parts it combines, or None to read the part as a
        # leaf; its cost)
        self.plan: dict[str, tuple[list[_Part] | None, int]] = {}
        self.memo: dict[str, int] = {}


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
            self._free = None
            self.dimension = None
            self.size = len(dedup)
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
        """(|C|, n) uint8 array in deterministic order: the words of the
        code's root part (_root), shared with its reading.

        Linear codes enumerate messages in odometer order (first generator
        coefficient most significant), which charges q^k unless a reading
        has listed them already; explicit codes are sorted.
        """
        root = self._root()
        if root.words is None:
            charge(self.size, "q^k")
            root.words = _span(self.space.field, root.rows)
        return root.words

    def codewords(self) -> list[Vector]:
        return [tuple(int(x) for x in row) for row in self.codeword_array()]

    # distances --------------------------------------------------------------

    def min_distance(self) -> int:
        """Minimum distance over distinct codeword pairs."""
        if "min_distance" not in self._memo:
            if self.size < 2:
                raise TooFewWords("min distance needs at least two distinct words")
            self._memo["min_distance"] = self._read("dist")
        return self._memo["min_distance"]

    def covering_radius(self) -> int:
        """max over F_q^n of the distance to the code."""
        if "covering_radius" not in self._memo:
            self._memo["covering_radius"] = self._read("cover")
        return self._memo["covering_radius"]

    def packing_radius(self) -> int:
        """Largest radius with pairwise disjoint balls around codewords."""
        if "packing_radius" not in self._memo:
            if self.size < 2:
                raise TooFewWords("packing radius needs at least two distinct words")
            self._memo["packing_radius"] = self._read("pack")
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

    # the tree reading ---------------------------------------------------------

    def _read(self, what: str) -> int:
        """The covering radius ("cover"), packing radius ("pack") or minimum
        distance ("dist") of the code from its parts on the decomposition
        tree (module docstring).  The reading is planned first (_plan), and
        the rows x words entries (_leaf_cost) of the leaves it reads that are
        not read yet are charged together, in one unit, before any runs."""
        root = self._root()
        self._plan(root, what)
        if root.plan[what][0] is None:  # the whole code is one leaf
            leaves = [] if what in root.memo else [root]
        else:
            leaves = [p for p in self._leaves(root, what) if what not in p.memo]
        charge(sum(self._leaf_cost(p, what) for p in leaves), "vector x word pairs")
        for part in leaves:
            self._read_leaf(part, what)
        return self._combine(root, what)

    def _root(self) -> _Part:
        """The code as a part on the root of its poset's tree, memoized."""
        root = self._memo.get("root")
        if root is None:
            node = self.space.poset.tree()
            cols = self.space.columns(node.elements)
            if self.is_linear:
                pivots = np.array(self.pivots, dtype=np.intp)
                root = _Part(node, cols, self.size, rows=self._defining_rows(), pivots=pivots)
            else:
                words = np.asarray(self.words, dtype=np.uint8).reshape(self.size, self.space.n)
                root = _Part(node, cols, self.size, words=words)
            self._memo["root"] = root
        return root

    def _plan(self, part: _Part, what: str) -> int:
        """The cost of the cheapest reading of a part, which is recorded in
        part.plan: the part as a leaf, or the parts its split combines
        (_options), each read the cheapest way, when they cost less.  Costs
        count entries of a pass that fits one tile (_leaf_cost, rows x words
        for every reading): a leaf also costs _CHUNK / 8 for
        its fixed work, and its entries beyond _CHUNK an eighth each, as cut
        chunks run about eight times as many entries in the same time; a
        split costs _CHUNK / 8 for finding its parts.  So a part of at most
        _CHUNK / 8 entries is never split."""
        if what in part.plan:
            return part.plan[what][1]
        entries, fixed = self._leaf_cost(part, what), _CHUNK // 8
        deps = None
        cost = fixed + min(entries, _CHUNK) + max(entries - _CHUNK, 0) // 8 if entries else 0
        if entries > fixed:
            if part.split is None:
                part.split = self._split(part)
            if part.split:
                options, total = self._options(part, what), fixed
                for dep in options:
                    total += self._plan(dep, what)
                    if total >= cost:
                        break
                if total < cost:
                    deps, cost = options, total
        part.plan[what] = (deps, cost)
        return cost

    def _leaves(self, part: _Part, what: str) -> Iterator[_Part]:
        """The leaf parts whose readings a part's planned reading combines."""
        deps = part.plan[what][0]
        if deps is None:
            yield part
            return
        for dep in deps:
            yield from self._leaves(dep, what)

    def _combine(self, part: _Part, what: str) -> int:
        """A part's reading from its leaves' (module docstring): the maximum
        over the parts read for a covering radius, the sum of their excesses
        over the node's offset across a parallel split, and the minimum for
        a packing radius or a minimum distance."""
        deps = part.plan[what][0]
        if deps is None:
            return part.memo[what]
        values = [self._combine(dep, what) for dep in deps]
        if what != "cover":
            return min(values)
        if part.node.kind == "series":
            return max(values, default=0)
        offset = self.space.weight.max_weight * part.node.below
        grown = [v - offset for v in values if v]
        return offset + sum(grown) if grown else 0

    def _options(self, part: _Part, what: str) -> list[_Part]:
        """The parts a split part's reading combines: at a parallel split
        every part for a covering radius, else those with two or more
        words; at a linear series split D for a covering radius (none when
        C fills the node), else D0; at an explicit series split the fibers
        when the top's projection fills the top summand, else the top, for
        a covering radius, and the fibers with two or more words, else the
        top, otherwise."""
        if part.node.kind == "parallel":
            return part.split if what == "cover" else [p for p in part.split if p.size > 1]
        if self.is_linear:
            cover, pack = part.split
            return [pack] if what != "cover" else [cover] if cover else []
        top, fibers = part.split
        if what == "cover":
            return fibers if top.size == self.space.q ** len(top.cols) else [top]
        return [f for f in fibers if f.size > 1] or [top]

    def _split(self, part: _Part):
        """The parts a part splits into: () on a leaf and where a parallel
        node's code is no product; a list of parts on the factors of a
        parallel node's code; (top, fibers) on a series node."""
        node = part.node
        if node.kind == "leaf":
            return ()
        if node.kind == "series":
            return self._series(part)
        space = self.space
        children = node.children
        if self.is_linear:
            # the rows of a reduced echelon form of a product code lie in its
            # factors (the form is unique), so the finest factors are the
            # classes of components that some row's support joins
            where = self._child_of_columns(node)
            label = list(range(len(children)))
            for row in part.rows:  # zero off the node's columns
                joined = {label[i] for i in where[np.flatnonzero(row)].tolist()}
                label = [min(joined) if x in joined else x for x in label]
            classes = sorted(set(label))
            groups = [[i for i, x in enumerate(label) if x == c] for c in classes]
            owner = np.array(label, dtype=np.intp)[where[part.pivots]]
            data = [owner == c for c in classes]
        else:
            # peel off every component whose projection is a factor:
            # C = pi_i(C) x pi_rest(C) iff |C| = |pi_i C| * |pi_rest C|, the
            # counts taken on the column slices; a peel pads the projections
            comps = [space.columns(child.elements) for child in children]
            rest, words, groups, data = list(range(len(children))), part.words, [], []
            for i in range(len(children)):
                if len(rest) == 1:
                    break
                others = [c for c in rest if c != i]
                cols = np.sort(np.concatenate([comps[c] for c in others]))
                mine, theirs = _unique_rows(words[:, comps[i]]), _unique_rows(words[:, cols])
                if len(mine) * len(theirs) == len(words):
                    groups.append([i])
                    data.append(_project(mine, comps[i], space.n))
                    rest, words = others, _project(theirs, cols, space.n)
            groups.append(rest)
            data.append(words)
        if len(groups) == 1:
            return ()
        parts = []
        for group, arr in zip(groups, data):
            if len(group) == 1:
                sub = children[group[0]]
            else:  # components that do not factor are read together
                elements = tuple(sorted(e for i in group for e in children[i].elements))
                sub = Node("leaf", elements, (), node.below)
            cols = space.columns(sub.elements)
            if self.is_linear:
                rows, pivots = part.rows[arr], part.pivots[arr]
                parts.append(_Part(sub, cols, space.q ** len(rows), rows=rows, pivots=pivots))
            else:
                parts.append(_Part(sub, cols, len(arr), words=arr))
        return parts

    def _series(self, part: _Part) -> tuple:
        """The split of a part on a series node.  A linear part's is (D, D0)
        in one step: D = pi_j*(C meet V_{<=j*}) on summand j*, the highest
        summand that C does not fill (None when C fills the node), and
        D0 = pi_j0(C meet V_{<=j0}) on summand j0, the lowest summand holding
        a pivot (None for the zero code), both from the echelon form with the
        columns taken top summand first (_top_first): the rows with their
        pivot in summand j are zero above it, and their parts in it span
        D_j.  An explicit part's is (top, fibers) along P_lo + P_hi, P_hi the
        top summand: top is T = pi_hi(C) on P_hi, the fibers the codes
        C_t = {c_lo : (c_lo, t) in C} on P_lo, the node without its top
        summand."""
        space, node = self.space, part.node
        if self.is_linear:
            rows, pivots, at = self._top_first(part)
            held = np.bincount(at, minlength=len(node.children)).tolist()
            sizes = space.labeling.sizes
            top = next((j for j in reversed(range(len(held)))
                        if held[j] < sum(sizes[e - 1] for e in node.children[j].elements)), None)

            def level(j: int) -> _Part:
                mine, cols = at == j, space.columns(node.children[j].elements)
                d_rows = np.zeros((int(mine.sum()), space.n), dtype=np.uint8)
                d_rows[:, cols] = rows[mine][:, cols]
                return _Part(node.children[j], cols, space.q ** len(d_rows),
                             rows=d_rows, pivots=pivots[mine])

            cover = None if top is None else level(top)
            if not len(at):  # the rows come top summand first
                return cover, None
            return cover, cover if at[-1] == top else level(at[-1])
        hi, low = node.children[-1], node.children[:-1]
        hi_cols = space.columns(hi.elements)
        if len(low) == 1:
            lo = low[0]
        else:
            lo = Node("series", tuple(sorted(e for c in low for e in c.elements)), low, node.below)
        lo_cols = space.columns(lo.elements)
        words = part.words
        keys = np.ascontiguousarray(words[:, hi_cols]).view(f"V{len(hi_cols)}").ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        t_words = np.zeros((len(starts), space.n), dtype=np.uint8)
        t_words[:, hi_cols] = words[order[starts]][:, hi_cols]
        lows = words[order]
        lows[:, hi_cols] = 0
        fibers = [
            _Part(lo, lo_cols, len(fiber), words=fiber) for fiber in np.split(lows, starts[1:])
        ]
        return _Part(hi, hi_cols, len(t_words), words=t_words), fibers

    def _top_first(self, part: _Part) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A linear part's rows on a series node reduced with the columns
        taken top summand first, their pivots, and the summand of each
        pivot, which does not rise from row to row."""
        space = self.space
        where = self._child_of_columns(part.node)
        order = part.cols[np.argsort(-where[part.cols], kind="stable")]
        reduced, pivots = _row_reduce(space.field, part.rows, order.tolist())
        rows = np.array(reduced, dtype=np.uint8).reshape(len(reduced), space.n)
        pivots = np.array(pivots, dtype=np.intp)
        return rows, pivots, where[pivots]

    def _child_of_columns(self, node: Node) -> np.ndarray:
        """The index of the child of a node that holds each column (0 off
        the node)."""
        of = [0] * self.space.s
        for j, child in enumerate(node.children):
            for e in child.elements:
                of[e - 1] = j
        return np.repeat(of, self.space.labeling.sizes)

    def _leaf_cols(self, part: _Part) -> np.ndarray:
        """The columns a leaf's pass enumerates: a linear part's off its
        pivots, an explicit part's all of them."""
        if not self.is_linear or not len(part.rows):
            return part.cols
        free = np.zeros(self.space.n, dtype=bool)
        free[part.cols] = True
        free[part.pivots] = False
        return np.flatnonzero(free)

    def _leaf_cost(self, part: _Part, what: str) -> int:
        """The entries of a part's reading as a leaf, its rows times its |C|
        words: q^|leaf cols| rows (_leaf_cols, a linear part's columns off
        its pivots) for both radii, and for "dist" the zero row of a linear
        part or the words of an explicit one; 0 when a linear part fills the
        leaf (its covering radius is 0)."""
        if what == "dist":
            rows = 1 if self.is_linear else part.size
        elif what == "cover" and self.is_linear and len(part.rows) == len(part.cols):
            return 0
        else:
            rows = self.space.q ** len(self._leaf_cols(part))
        return rows * part.size

    def _read_leaf(self, part: _Part, what: str) -> None:
        """A leaf's reading into its memo: the minimum distance from a linear
        part's nonzero words (the zero row against the words), or from an
        explicit part's words as the rows of a whole-row pass against
        themselves: a word's row has its one 0 at the word itself, so its
        second-smallest entry is the distance to the nearest other word.
        Else both radii from one pass (the coset pass of a linear part on its
        columns off the pivots against its negated words, an explicit part's
        on all its columns against its words)."""
        space = self.space
        if not self._leaf_cost(part, what):  # a linear part that fills the leaf
            part.memo[what] = 0
            return
        if self.is_linear and part.words is None:
            part.words = _span(space.field, part.rows)
        if what == "dist":
            if self.is_linear:
                part.memo[what] = int(space.batch_weights(part.words[1:]).min())
            else:
                chunks = self._whole_rows(part.cols, part.words, False, part.words)
                part.memo[what] = min(int(d2.min()) for _, _, d2, _ in chunks)
            return
        words = space.field.neg_table[part.words] if self.is_linear else part.words
        covering, packing, _ = self._pass(self._leaf_cols(part), words)
        part.memo["cover"] = covering
        if part.size > 1:
            part.memo["pack"] = packing

    # the pass -----------------------------------------------------------------

    def _pass(self, cols: np.ndarray, words: np.ndarray, leaders: bool = False):
        """One pass over w(x - c) for the rows x of F_q^cols in odometer order
        (zero off the columns cols) and the words c.  Per row only the
        smallest and second-smallest entry are kept.  Returns the max row
        minimum and the min second-smallest entry - 1 (a covering and, for
        two or more words, a packing radius; the caller stores the ones that
        hold for its code) and, with leaders=True, per row its minimum and
        the index of the first word reaching it, else None.  The caller
        charges the q^|cols| * |words| vector x word pairs."""
        rows = self.space.q ** len(cols)
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

    def _whole_rows(self, cols: np.ndarray, words: np.ndarray, leaders: bool,
                    rows: np.ndarray | None = None):
        """_rows on whole rows x, those of F_q^cols or, when given, the rows
        of an (X, n) uint8 array: tiles of at most _CHUNK pairs, x-rows times
        a block of words, one pair-kernel call each (whole rows when
        |C| <= _CHUNK, else one row split over word blocks).  The first
        block's readings are the row's, and each later block merges into
        them; with leaders, a tile's first minimum is the first word of its
        tie mask, and a later block takes a row's word only with a strictly
        smaller minimum.  The rows' piece codes come from the space's plan:
        those of F_q^cols from its odometer (_PiecePlan.odometer_codes),
        which keeps those of a pass that fits one tile, and given rows' from
        one product per chunk (_PiecePlan.codes)."""
        plan = self.space.plan()
        right = plan.codes(words, left=False)
        block, step = min(len(words), _CHUNK), max(_CHUNK // len(words), 1)
        if rows is None:
            lefts = plan.odometer_codes(cols, step)
        else:
            lefts = ((lo, plan.codes(rows[lo : lo + step])) for lo in range(0, len(rows), step))
        for start, left in lefts:
            for lo in range(0, len(words), block):
                t1, t2, hit = _two_smallest(_tile(self.space, left, right[:, lo : lo + block]))
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
        head, tail = cut.head, cut.tail
        head_words = head.plan.codes(words[:, head.lo : head.hi], left=False)
        tail_words = tail.plan.codes(words[:, tail.lo : tail.hi], left=False)
        # (C, T) and contiguous: a tile's last axis runs over the tail rows
        tail_index = tail.index(tail.plan.row_codes(tail_cols - tail.lo), tail_words).T.copy()
        width = tail_index.shape[1]
        for start, codes in head.plan.odometer_codes(head_cols, 4 * _CHUNK // tail_index.size):
            t1, t2, hit = _two_smallest(cut.weights(head.index(codes, head_words), tail_index))
            word = hit.argmax(axis=1).ravel() if leaders else None
            yield start * width, t1.ravel(), t2.ravel(), word

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
        charge(space.q ** len(self._free) * len(words), "vector x word pairs")
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

    # chains -----------------------------------------------------------------

    def trailing_full_index(self) -> int:
        """With the blocks numbered 1..s along the chain, bottom first: s if
        C_s is not all of F_q^{k_s}; otherwise the least l such that the
        joint projection onto blocks l+1..s is the full product space.  A
        linear code reads it from its echelon form with the columns taken top
        block first (it is j*, _series), counting no codeword."""
        if not self.space.poset.is_chain():
            raise NotAChain("trailing_full_index requires a chain poset")
        space = self.space
        if self.is_linear:
            if space.s == 1:
                return int(self.size < space.size)
            # j*: the highest block holding fewer pivots than columns in the
            # echelon form with the columns taken top block first
            held = np.bincount(self._top_first(self._root())[2], minlength=space.s)
            widths = [len(space.columns(block.elements)) for block in space.poset.tree().children]
            return next((j + 1 for j in reversed(range(space.s)) if held[j] < widths[j]), 0)
        arr = self.codeword_array()
        above: list[int] = []  # the columns of blocks l..s
        # a full suffix stays full when it is shortened, so the first suffix
        # from block s down that is not full ends the search
        for l, (e,) in reversed(tuple(enumerate(space.poset.summands(), 1))):
            above[:0] = range(space.n)[space._slices[e - 1]]
            full = space.q ** len(above)
            if self.size < full or len(_unique_rows(arr[:, above])) < full:
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
