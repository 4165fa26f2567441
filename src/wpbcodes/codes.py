"""Codes inside a block space and their exact parameters.

A code is either linear (generator rows, row-reduced at construction,
rank deficiency accepted silently) or explicit (a deduplicated word set).
Either kind's rows are validated as one array: integer coordinates in
0..q-1, no truncation.  The parameters are exact:

- min_distance: minimum nonzero codeword weight for linear codes
  (translation invariance), minimum distance between distinct words for
  explicit ones (the least second-smallest entry of the negated words'
  rows of w(x + c), on the passes' whole-row tiles);
- covering_radius: max over vectors of the distance to the code;
- packing_radius: (min over vectors of the second-smallest distance to
  the code) - 1, which equals the largest radius with pairwise disjoint
  balls around codewords;
- is_r_perfect(r): covering radius <= r <= packing radius (for a one-word
  code, covering radius <= r): every vector lies within r of a codeword
  and of no second one;
- coset_table: minimum-weight leader per coset of a linear code, with
  ties broken by odometer order: a read-only (q^(n-k), n) uint8 array of
  leaders and a read-only (q^(n-k),) int64 array of their weights, so a
  table keeps q^(n-k) * (n + 8) bytes and no Python object per coset.

Every code reads its covering radius, packing radius and minimum distance
along its poset's decomposition tree (Poset.tree): series nodes split into
their finest ordinal sum P_lo + P_hi (every element of P_lo below every
element of P_hi), parallel nodes into the connected components of their
comparability graph, P_1 u P_2, and leaves split no further.  A split gives
parts, each a code on its node's own space (BlockSpace.restrict: the node's
blocks under the order they induce, with the same field and weight), which
holds only the node's columns, and each with an offset M_w * N, N the
elements of the lower summands (0 across a parallel split):

- parallel node, when C = C_1 x C_2 along the split (the product test: an
  explicit code peels off each component i with |C| = |pi_i C| *
  |pi_rest C|; a linear code's factors are the classes of components that
  the rows of its reduced echelon form join, since that form of a product
  is the forms of its factors): weights add across the parts, so
  R = R_1 + R_2, and d = min d_i and rho = min rho_i over the parts with
  two or more words.  Components that do not factor are read together, as
  one part, which finds no product when it is split again;
- series node, linear code: with the columns taken top summand first (one
  echelon form, _top_first), j* is the highest summand that C does not
  fill and D = pi_j*(C meet V_{<=j*}), j0 the lowest summand holding a
  pivot and D0 = pi_j0(C meet V_{<=j0}): R = M_w * N_{<j*} + R(D) (0 when C
  fills the node), rho = M_w * N_{<j0} + rho(D0), d = M_w * N_{<j0} + d(D0),
  N_{<j} the elements below summand j;
- series node, explicit code: T = pi_hi(C) and the fibers
  C_t = {c_lo : (c_lo, t) in C}.  A vector with a nonzero top part weighs
  more than M_w * N_lo and one with a zero top part at most that, so
  R = max_t R(C_t) when T is all of F_q^(n_hi), else M_w * N_lo + R(T);
  rho = min rho(C_t) and d = min d(C_t) over the fibers with two or more
  words, or M_w * N_lo + rho(T) and M_w * N_lo + d(T) when there is none.
  A linear code's fibers are the cosets of its fiber at t = 0, C meet
  V_lo, so this is the linear case one summand at a time.

So a reading is its parts' readings plus their offsets: summed across a
parallel split for R, their maximum at a series split, and their minimum
for rho and d (_combine).  The offsets are the weight's own: an element
outside a node below one inside lies below all of it (their lowest common
node is a series one), so a nonzero u zero off a node weighs M_w times
those elements plus its weight in the node's space.  A leaf is a code read
whole in its own space: a radius from one pass over F_q^cols against its
words (cols its columns off its pivots, all of an explicit code's), which
keeps per row what the reading needs (_keep): R its minimum alone ("min"),
rho its two smallest entries ("two"), which give R as well, so a packing
reading memoizes both radii and a covering one R alone (covering and then
packing on one leaf takes two passes, packing first one); and d from the
nonzero words of a linear code, or an explicit code's negated words as the
rows of a whole-row pass against its words (the row of -c_i has its one 0
at c_i, w(c_j - c_i) being 0 exactly at j = i, so its second-smallest
entry is the distance to the nearest other word).

A code splits only when its split costs less (_plan).  Every leaf reading
costs its rows times its words, and one method (_leaf) gives those entries
with the read that memoizes the reading, one case per code kind and
reading, the filled space decided there alone (one path applies to each,
so nothing chooses among paths): q^n * |C| entries for an explicit leaf's
radii, q^(n - dim) coset rows times q^dim words for a linear one's (none
when the code fills its space), the zero row times |C| for a linear d and
|C|^2 for an explicit d, n the coordinates of the leaf's space; plus
_CHUNK / 8 for a pass's fixed work and its entries beyond _CHUNK an eighth
each.  A split
costs _SPLIT_PRICE, the measured time of finding and building its parts
in those units, so a code whose leaf costs no more is read whole and its
split never searched: at verify seed 0, 142 codes search a split, 125
build one and 69 take it.  A deep chain still reads through its fibers,
and a disjoint sum of two codes on 30-block chains (2^60 vectors) from its
parts' levels.  A reading charges the entries of all its leaves together,
in one unit, before the first runs.  When they exceed the enumeration
cap, the reading takes the plan of fewest entries instead, so it raises
SpaceTooLarge only when no reading fits.  Both plans come from one walk of
the tree (_plan), priced or counting entries alone (a leaf read already
costs none, and a split adds nothing, so no price gates a search), which
returns the plan as a value: None for a leaf, else the (offset, part,
part's plan) triples of its split.  A reading (_read) walks the plan it
takes (_leaves, _combine), memoizes its value and drops the plan; each
memo entry is written only by the reading that gives it.

A code's memo (_memo) holds its readings and its coset table, each an
entry of its own.  It is the code's alone, except inside a shared_memos
block (a verify_suite run, in each worker of a pool): there codes with
the same kernel, kind and rows share one memo.  The kernel fixes q, the
weight table, the order and the block sizes, so with the rows (a linear
code's reduced echelon form, an explicit code's sorted words) it fixes
every reading, and a later equal code reads what an earlier one has read
with no pass, no batch_weights call and no charge, as a code re-reading
its own memo does.  The block keeps at most _SHARED_CODES code memos, a
few readings each; a code past the bound keeps its own.  Sharing ends
with the block, so no reading of one run is replayed in the next, and a
code built outside one charges every reading it makes.

Every pass weighs sums: its tiles hold w(x + c) for rows x and the code's
own words c (BlockSpace.pair_weights).  The coset pass: the generator is in
reduced row-echelon form, so every vector splits uniquely as x + c with x
zero on the pivot columns and c a codeword, and by translation invariance
the distances from the coset x + C to the code are the row x of
W[x, c] = w(x + c): the pass on the free columns against the codewords,
q^n entries instead of q^n * |C|, row x being coset_index(x).  A linear
leaf takes the same pass on its columns off its pivots against its words.
An explicit code's radii take the pass on all its columns against its
words: R is a maximum and rho a minimum over all rows x, x -> -x permutes
the rows, and w(x + c) = w(-x - c) = d(-x, c) since every weight is
symmetric, so they are the radii of the distances d(x, c).  The coset
table takes the full coset pass, keeping per row its minimum and the first
word that reaches it ("first"), and memoizes the table alone: its max
leader weight is the covering radius, which the covering reading still
reads on its own, so the covering-oracle check compares the two.

The coset table's leader x + c is the first minimum in odometer order
because the generators are in reduced row-echelon form in natural column
order and the words come in _span's message order.  With x zero on the
pivot columns p_1 < ... < p_k and c of message (m_1, ..., m_k), x + c holds
m_i at p_i, and before p_i it depends on m_1..m_{i-1} alone.  So inside
every coset, odometer order is message order, first coefficient most
significant, and the first word reaching a row's minimum gives its leader.

Every pass reduces one stream (_tiles) of chunks of rows, each with its
tiles, the weights w(x + c) of the chunk against a block of words, words
on axis 1 (_pass): the chunk's first tile gives its readings, a later
block's folds into them, and each chunk into the pass's reading.  A pass
cuts the enumerated columns into a head and a tail of t columns, t the
largest with q^t * |C| <= _CHUNK, at the first tail column
(BlockSpace.cut): x is a head row plus a tail row, and the index of the
block-max tuple of x + c in the cut's table is a head part plus a tail
part.  The (C, T) tail index of all q^t tail rows is built once per pass
and the head index once per chunk of head rows, both with the pair
tables.  Head rows with equal (C,) head indices have equal tile rows
against every word and tail row, so a pass sorts its head rows by their
head indices, in blocks of at most _TILE index entries, and reads each
class of a block once: each entry of a (classes, C, T) tile costs one add
and one gather, a maximum or minimum over the rows is one over the
classes, and a coset table's pass gives each head row its class's
readings.  The cut's tiles are narrow (uint16 indices into a uint8 table,
_Cut), so a chunk takes 4 * _CHUNK entries, at least one class.  Without a cut (given rows, one tile holds the pass,
q * |C| exceeds a tile, or the space has no table for the cut) tiles are
whole rows times a block of words, at most
pairs = min(_CHUNK, _TILE // n) int64 weights (at least one), one
pair-kernel call each (BlockSpace.pair_weights): each chunk of rows meets
every block of words in turn, pairs // |C| rows against all the words
when they fit one block, else min(rows, pairs) rows against blocks of
pairs // chunk words.  Every pass takes its rows' piece codes from a
piece plan, the space's or a cut side's, which enumerates them in chunks
and keeps those of a table it has built (_PiecePlan.odometer_codes,
row_codes): the rows of a pass that one tile holds, as nearly every pass
of verify does, and the tail rows of a cut are built once per plan and
column set.  The words' piece codes take one product per pass, or per
block and chunk when the words fill more than one block
(_PiecePlan.codes), and so do the rows of an explicit minimum distance,
the negated words, per chunk of rows.  No scan builds a row array of
F_q^cols or a sum vector for its weights, and no pass negates its words.

Memory.  The enumeration cap bounds counts, the tiles bound bytes: every
transient array of a reading has a stated bound in entries, at
_CHUNK = 2^14 and _TILE = 2^19 (blockspace, which bounds batch_weights the
same way):

- the minimum distance of a linear code lists its words in message order
  in blocks of at most _CHUNK (_span_chunks, _CHUNK * n bytes) and weighs
  each with batch_weights, so a reading at the default cap (2^24 words)
  holds one block; a code keeps its listing (_listed) only when it has at
  most _CHUNK words, and max_poset_weight takes the same blocks;
- a tile of whole rows holds at most min(_CHUNK, _TILE // n) rows x words
  (at least one), so its (pieces, X, C) piece sums and the (n, X) and
  (n, C) products of its rows' and words' codes hold at most
  max(_TILE, n) intp entries (4 MiB); a pass over more words than one
  tile takes them in blocks, each listed (_chunked, which lists a linear
  code that keeps no listing by _span_chunks) and coded per chunk of
  rows, and keeps the readings of one chunk of rows at a time, no array
  over all its rows;
- a chunk through a cut holds at most 4 * _CHUNK uint8 weights and uint16
  indices, and its head sums at most 2n * _CHUNK intp entries, n at most
  log_q of the cap for a pass the cap admits; a pass through a cut holds
  one block of head indices at a time, with its classes, its sort's keys
  and the ranks and classes of its head rows (intp): at most _TILE uint16
  entries, or one chunk's when that is more (at most 2 * _CHUNK), though
  (head rows) x |C| reaches cap / q when q * |C| is near _CHUNK;
- the rows of F_q^cols come in chunks of a tile's rows, plus the codes of
  fewer than q * cap / rows prefixes (_PiecePlan.odometer_codes);
- a coset table takes its leaders' words by their message ranks
  (_words_of) from a code that keeps no listing.

Only output-sized results are exempt: codeword_array and codewords
(|C| * n bytes and more), and a coset table's leaders and weights
(q^(n-k) * (n + 8) bytes) with the per-row readings of its pass ("first"),
the one pass that keeps an array over all its rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .blockspace import _CHUNK, _TILE, BlockSpace, Vector, _cap, _Cut, charge, space_rows
from .errors import NotAChain, NotLinear, TooFewWords
from .field import Field
from .poset import Node
from .weights import WeightFn, exact_radius

_BIG = np.iinfo(np.int64).max
# The planner's price of a split (_plan) in a leaf's cost units, the entries
# of a pass that fits one tile: finding and building a split's parts takes
# as long as a leaf of this cost (45-62 us against 4-6 ns per unit on a
# 2-vCPU Xeon guest, numpy 2.4), from leaf reads timed against split
# searches by entry bin (CHANGES.md).
_SPLIT_PRICE = 11_000
# The code memos one shared_memos block keeps at most (Code._set): verify
# keys 2,139-2,378 codes at master seeds 0-3, each memo a few readings.
_SHARED_CODES = 4_096
_shared: ContextVar[dict | None] = ContextVar("shared_memos", default=None)


@contextmanager
def shared_memos() -> Iterator[None]:
    """Inside the with block, codes with the same kernel, kind and rows share
    one memo (Code._set), up to _SHARED_CODES of them; on leaving it, also
    on an error, each new code keeps its own memo again."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _two_smallest(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Along axis 1 of a tile: its smallest entry t1, then t1 again if it
    occurs twice, else the least entry above it, both in the tile's dtype.
    The entries equal to t1 are masked with the dtype's maximum, which lies
    above every weight (a cut's uint8 table holds at most 254,
    BlockSpace.cut).  It is left as t2 in the rows of a tile with one word,
    and reaches a pass's reading only when the pass has one word (a later
    one-word block of a whole-row pass merges into real entries), whose
    packing reading no code stores.  A tile's word axis holds at most
    _CHUNK < 2^16 words, so the ties of a row are counted in uint16."""
    t1 = w.min(axis=1)
    hit = w == t1[:, None]
    big = w.dtype.type(np.iinfo(w.dtype).max)
    t2 = np.maximum(w, hit * big).min(axis=1)  # branch-free masking: w >= 0
    np.copyto(t2, t1, where=hit.sum(axis=1, dtype=np.uint16) > 1)
    return t1, t2


def _first_smallest(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Along axis 1 of a tile: its smallest entry and the index of the first
    entry equal to it, the first True of the tie mask (argmax on the mask
    runs faster than argmin on a tile's middle or transposed axis)."""
    t1 = w.min(axis=1)
    return t1, (w == t1[:, None]).argmax(axis=1)


def _keep(w: np.ndarray, keep: str) -> tuple[np.ndarray, np.ndarray | None]:
    """What a pass keeps per row of a tile (along axis 1), by its reading:
    the row minimum alone ("min", for a covering radius, None beside it),
    the minimum and the index of the first word reaching it ("first", for
    coset leaders), or the two smallest entries ("two", for a packing
    radius or a minimum distance)."""
    if keep == "two":
        return _two_smallest(w)
    if keep == "first":
        return _first_smallest(w)
    return w.min(axis=1), None


def _row_reduce(
    field: Field, rows: np.ndarray, order: Sequence[int]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The reduced row-echelon form of a validated (m, n) uint8 array with
    its columns taken in the given order, as an (r, n) uint8 array, r the
    rank, and its pivot columns in that order.  The matrices are a few
    rows, so this is list code on the field's tables as lists."""
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
    return np.array(mat[:r], dtype=np.uint8).reshape(r, rows.shape[1]), tuple(pivots)


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


def _span_chunks(field: Field, rows: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """The span of _span in the same message order, as consecutive
    (B, n) uint8 arrays of 1 <= B <= size words: the span of the last t
    rows, t the largest with q^t <= size, built once, plus the words of
    max(size // q^t, 1) messages of the leading rows per array (_words_of),
    one take per word (_add).  So no array holds more than size * n entries."""
    q, (m, n) = field.q, rows.shape
    t = 0
    while t < m and q ** (t + 1) <= size:
        t += 1
    tail, lead = _span(field, rows[m - t :]), rows[: m - t]
    per = max(size // len(tail), 1)
    for lo in range(0, q ** (m - t), per):
        prefix = _words_of(field, lead, np.arange(lo, min(lo + per, q ** (m - t))))
        yield _add(field, prefix[:, None, :], tail[None, :, :]).reshape(-1, n)


def _words_of(field: Field, rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The words of the messages of the given ranks in _span's message
    order, as a (len(ranks), n) uint8 array: each message's coefficients
    times the rows, one gather per row and word."""
    q = field.q
    place = q ** np.arange(len(rows) - 1, -1, -1, dtype=np.int64)
    digits = ranks[:, None] // place % q
    words = np.zeros((len(ranks), rows.shape[1]), dtype=np.uint8)
    for j, row in enumerate(rows):
        words = _add(field, words, field.mul_table[digits[:, j : j + 1], row])
    return words


def _add(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The field sum of two uint8 arrays that broadcast: one take from the
    flat add table at a * q + b, a uint16 index (q <= 256)."""
    return field.add_table.ravel().take(a.astype(np.uint16) * field.q + b)


def _columns_of(where: np.ndarray, count: int) -> list[np.ndarray]:
    """The columns c with where[c] = g, ascending, for each g in 0..count-1."""
    order = np.argsort(where, kind="stable")
    return np.split(order, np.cumsum(np.bincount(where, minlength=count))[:-1])


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (m >= 1, width) uint8 array in the order of
    their bytes, by one sort of the rows as bytes (np.unique would import
    numpy.ma)."""
    width = rows.shape[1]
    keys = np.sort(np.ascontiguousarray(rows).view(f"V{width}").ravel())
    keep = np.concatenate(([True], keys[1:] != keys[:-1]))
    return keys[keep].view(np.uint8).reshape(-1, width)


def _row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classes of equal rows of an (m >= 1, width >= 1) array: the
    stable order of its rows sorted as bytes, and the first position in that
    order of each class, ascending (the sort of _unique_rows, keeping which
    rows each class holds)."""
    keys = np.ascontiguousarray(rows).view(f"V{rows.shape[1] * rows.itemsize}").ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return order, np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


@dataclass(frozen=True, eq=False)
class CosetTable:
    """One minimum-weight leader per coset, indexed by Code.coset_index.

    leaders is a read-only (q^(n-k), n) uint8 array, row i the leader of
    coset i, and weights a read-only (q^(n-k),) int64 array of their
    weights; max_weight is an int.  The table keeps q^(n-k) * (n + 8)
    bytes.  Tables compare by identity (field-wise == on arrays raises)."""

    leaders: np.ndarray
    weights: np.ndarray
    max_weight: int


class Code:
    """A linear or explicit code in a BlockSpace; immutable after construction.

    It keeps one uint8 array of rows (_rows): a linear code's generators in
    reduced row-echelon form, an explicit code's distinct words in sorted
    order, from which generators and words derive their tuples."""

    def __init__(self, space: BlockSpace, *, generators=None, words=None):
        if (generators is None) == (words is None):
            raise ValueError("exactly one of generators/words must be given")
        rows = space._coerce_rows(words if generators is None else generators)
        pivots = None
        if generators is not None:
            rows, pivots = _row_reduce(space.field, rows, range(space.n))
        elif not len(rows):
            raise ValueError("an explicit code needs at least one word")
        else:
            rows = _unique_rows(rows)
        self._set(space, rows, pivots)

    @classmethod
    def _of(cls, space: BlockSpace, rows: np.ndarray, pivots: Sequence[int] | None = None,
            parts: tuple | None = None) -> Code:
        """A code with rows another code has checked, taken as they are: a
        part of a split (_split) on its node's space, or a sibling under
        another weight (with_weight) on the same rows.  The rows are a
        linear code's generators in reduced row-echelon form with their
        pivot columns, or (pivots None) an explicit code's sorted distinct
        words; parts is its split when the maker knows it (_parallel)."""
        code = cls.__new__(cls)
        code._set(space, rows, pivots, parts)
        return code

    def _set(self, space: BlockSpace, rows: np.ndarray, pivots, parts: tuple | None = None) -> None:
        """The code's state from its checked rows (__init__, _of)."""
        self.space = space
        rows.flags.writeable = False
        self._rows = rows
        # _free: the columns a pass enumerates, off the pivots of a linear
        # code and all of an explicit one's
        if pivots is None:
            self.kind, self.pivots, self.dimension = "explicit", None, None
            self.size: int = len(rows)
            self._words: np.ndarray | None = rows
            self._free = np.arange(space.n)
        else:
            self.kind, self.pivots, self.dimension = "linear", tuple(pivots), len(rows)
            self.size = space.q**self.dimension
            self._words = None
            held = set(pivots)
            self._free = np.array([c for c in range(space.n) if c not in held], np.intp)
        # its own memo, or an equal code's inside shared_memos (module docstring)
        self._memo: dict = {}
        if (shared := _shared.get()) is not None:
            key = (space._kernel, self.kind, rows.shape, rows.tobytes())
            if key in shared or len(shared) < _SHARED_CODES:
                self._memo = shared.setdefault(key, self._memo)
        self._parts = parts  # _split, once found

    @classmethod
    def linear(cls, space: BlockSpace, rows: Sequence[Sequence[int]]) -> "Code":
        return cls(space, generators=rows)

    @classmethod
    def explicit(cls, space: BlockSpace, words: Sequence[Sequence[int]]) -> "Code":
        return cls(space, words=words)

    @property
    def is_linear(self) -> bool:
        return self.kind == "linear"

    @cached_property
    def generators(self) -> tuple[Vector, ...] | None:
        """A linear code's generators in reduced row-echelon form; None for
        an explicit code."""
        return tuple(map(tuple, self._rows.tolist())) if self.is_linear else None

    @cached_property
    def words(self) -> tuple[Vector, ...] | None:
        """An explicit code's distinct words, sorted; None for a linear code."""
        return None if self.is_linear else tuple(map(tuple, self._rows.tolist()))

    # enumeration ------------------------------------------------------------

    def codeword_array(self) -> np.ndarray:
        """(|C|, n) read-only uint8 array in deterministic order.

        Linear codes enumerate messages in odometer order (first generator
        coefficient most significant), which charges q^k unless the code
        keeps its words (_listed); explicit codes are sorted.
        """
        if self._words is None:
            charge(self.size, "q^k")
        words = self._listed()
        if words is None:
            words = _span(self.space.field, self._rows)
            words.flags.writeable = False
        return words

    def _listed(self) -> np.ndarray | None:
        """The words the code keeps, in codeword_array's order, charging
        nothing: an explicit code's, or the span of a linear code's
        generators, listed on the first call, when it has at most _CHUNK
        words (_CHUNK * n bytes); None for a linear code of more words,
        which only codeword_array lists whole."""
        if self._words is None and self.size <= _CHUNK:
            words = _span(self.space.field, self._rows)
            words.flags.writeable = False
            self._words = words
        return self._words

    def _chunked(self, size: int) -> Iterator[np.ndarray]:
        """The code's words in codeword_array's order, in consecutive blocks
        of at most size words, charging nothing: slices of the words it
        keeps (_listed), else the blocks of its span (_span_chunks), so no
        linear code's words beyond _CHUNK are listed whole."""
        words = self._listed()
        if words is None:
            return _span_chunks(self.space.field, self._rows, size)
        return (words[lo : lo + size] for lo in range(0, len(words), size))

    def codewords(self) -> list[Vector]:
        return [tuple(int(x) for x in row) for row in self.codeword_array()]

    # distances --------------------------------------------------------------

    def min_distance(self) -> int:
        """Minimum distance over distinct codeword pairs."""
        return self._read("min_distance")

    def covering_radius(self) -> int:
        """max over F_q^n of the distance to the code."""
        return self._read("covering_radius")

    def packing_radius(self) -> int:
        """Largest radius with pairwise disjoint balls around codewords."""
        return self._read("packing_radius")

    def is_r_perfect(self, r: int) -> bool:
        """True iff radius-r balls around codewords tile the space: every
        vector lies within r of a codeword (covering radius <= r) and, for two
        or more codewords, within r of no second one (r <= packing radius).
        The radius r is an integer, at least 0 (exact_radius)."""
        r = exact_radius(r)
        if self.size >= 2 and r > self.packing_radius():
            return False
        return self.covering_radius() <= r

    def is_perfect(self) -> bool:
        return self.is_r_perfect(self.packing_radius())

    # the tree reading ---------------------------------------------------------

    def _read(self, what: str) -> int:
        """The covering radius, packing radius or minimum distance (what, the
        name of the memo and the method) of the code, memoized: read from
        its parts on the decomposition tree (module docstring), along one
        plan (_plan), the priced one, or the one of fewest entries when the
        rows x words entries of the leaves the priced one reads that are not
        read yet exceed the enumeration cap, so SpaceTooLarge names the
        fewest.  Each such leaf gives its entries and its read (_leaf): the
        entries are summed and charged together, in one unit, before any
        read runs, and the plan is dropped once the reading is combined.  A
        memo hit charges nothing, for the code or a leaf, whether the code
        read the value itself or an equal code sharing its memo did
        (shared_memos), as a re-read of one code.  A packing radius or a
        minimum distance of fewer than two words raises TooFewWords."""
        if what in self._memo:
            return self._memo[what]
        if what != "covering_radius" and self.size < 2:
            raise TooFewWords(f"{what.replace('_', ' ')} needs at least two distinct words")
        for priced in (True, False):
            _, plan = self._plan(what, priced)
            reads = [leaf._leaf(what) for leaf in self._leaves(plan) if what not in leaf._memo]
            count = sum(entries for entries, _ in reads)
            if count <= _cap.get():
                break
        charge(count, "vector x word pairs")
        for _, read in reads:
            read()
        self._memo[what] = self._combine(what, plan)
        return self._memo[what]

    def _plan(self, what: str, priced: bool = True) -> tuple[int, list | None]:
        """The cost of the cheapest reading of the code and its plan: None to
        read the code as a leaf, or the (offset, part, part's plan) triples
        its split combines for the reading, each part read the cheapest way,
        when they cost less than the leaf.  Priced, costs count entries of a
        pass that fits one tile (the entries of _leaf, rows x words for
        every reading): a leaf also costs _CHUNK / 8 for its fixed work, and
        its entries beyond _CHUNK an eighth each, as cut chunks run about
        eight times as many entries in the same time; a split costs
        _SPLIT_PRICE for finding and building its parts.  So a code whose
        leaf costs at most _SPLIT_PRICE, which no split can undercut, reads
        as a leaf and its split is never searched.  Else a leaf costs its entries, none
        when it is read already, and a split adds nothing, so the plan
        charges the fewest entries and no price gates a search."""
        entries = self._leaf(what)[0]
        if priced:
            cost = _CHUNK // 8 + min(entries, _CHUNK) + max(entries - _CHUNK, 0) // 8 if entries else 0
        else:
            cost = 0 if what in self._memo else entries
        price, plan = _SPLIT_PRICE if priced else 0, None
        if cost > price and (split := self._split()):
            total, parts = price, []
            for offset, part in split[1 if what == "covering_radius" else 2]:
                part_cost, part_plan = part._plan(what, priced)
                total += part_cost
                if total >= cost:
                    break
                parts.append((offset, part, part_plan))
            if total < cost:
                plan, cost = parts, total
        return cost, plan

    def _leaves(self, plan: list | None) -> Iterator[Code]:
        """The leaves of the code's plan (_plan), whose readings the code's
        reading combines."""
        if plan is None:
            yield self
            return
        for _, part, part_plan in plan:
            yield from part._leaves(part_plan)

    def _combine(self, what: str, plan: list | None) -> int:
        """The code's reading from its leaves' (module docstring), along its
        plan (_plan): each part's reading plus its offset, summed across a
        parallel split for a covering radius and their maximum at a series
        one, and their minimum for a packing radius or a minimum distance."""
        if plan is None:
            return self._memo[what]
        values = [offset + part._combine(what, part_plan) for offset, part, part_plan in plan]
        if what != "covering_radius":
            return min(values)
        return sum(values) if self._parts[0] == "parallel" else max(values, default=0)

    def _split(self) -> tuple:
        """The parts the code splits into at the root of its tree, found
        once: () on a leaf and where a parallel node's code is no product,
        else (the node's kind, the (offset, part) pairs whose readings give
        the covering radius, those that give the packing radius and the
        minimum distance)."""
        if self._parts is None:
            node = self.space.poset.tree()
            if node.kind == "leaf":
                self._parts = ()
            else:
                split = self._series if node.kind == "series" else self._parallel
                self._parts = split(node, self._child_of_columns(node))
        return self._parts

    def _parallel(self, node: Node, where: np.ndarray) -> tuple:
        """The split on a parallel node (_split), where[c] the child that
        holds column c: at offset 0, a part per factor of the code, every
        one for a covering radius and those with two or more words
        otherwise; () when the code is no product."""
        space, children = self.space, node.children
        if self.is_linear:
            # the rows of a reduced echelon form of a product code lie in its
            # factors (the form is unique), so the finest factors are the
            # classes of components that some row's support joins, each
            # labelled by its first component
            label = list(range(len(children)))
            for row in self._rows:
                joined = {label[i] for i in where[np.flatnonzero(row)].tolist()}
                label = [min(joined) if x in joined else x for x in label]
            classes: dict[int, list[int]] = {}
            for i, x in enumerate(label):
                classes.setdefault(x, []).append(i)
            groups = list(classes.values())
        else:
            # peel off every component whose projection is a factor:
            # C = pi_i(C) x pi_rest(C) iff |C| = |pi_i C| * |pi_rest C|, the
            # counts taken on the column slices; each factor's words are
            # then the distinct rows of its columns
            comps, words = _columns_of(where, len(children)), self._rows
            rest, size, groups = list(range(len(children))), self.size, []
            for i in range(len(children)):
                if len(rest) == 1:
                    break
                others = [c for c in rest if c != i]
                cols = np.sort(np.concatenate([comps[c] for c in others]))
                mine, theirs = _unique_rows(words[:, comps[i]]), _unique_rows(words[:, cols])
                if len(mine) * len(theirs) == size:
                    groups.append([i])
                    rest, size = others, len(theirs)
            groups.append(rest)
        if len(groups) == 1:
            return ()
        group_of = np.empty(len(children), dtype=np.intp)
        for g, group in enumerate(groups):
            group_of[group] = g
        cols = _columns_of(group_of[where], len(groups))
        if self.is_linear:
            pivots = np.array(self.pivots, dtype=np.intp)
            owner = group_of[where[pivots]]  # the group of each row
        parts = []
        for g, group in enumerate(groups):
            sub = space.restrict(tuple(sorted(e for i in group for e in children[i].elements)))
            # a group of two or more components is no product (the groups are
            # the finest factors), so its split is known: ()
            known = () if len(group) > 1 else None
            if self.is_linear:
                mine = owner == g
                part = Code._of(sub, self._rows[mine][:, cols[g]],
                                np.searchsorted(cols[g], pivots[mine]).tolist(), known)
            else:
                part = Code._of(sub, _unique_rows(self._rows[:, cols[g]]), None, known)
            parts.append((0, part))
        return "parallel", parts, [(0, part) for _, part in parts if part.size > 1]

    def _series(self, node: Node, where: np.ndarray) -> tuple:
        """The split on a series node (_split), where[c] the summand that
        holds column c.  A linear code's parts are D for a covering radius
        (none when C fills the node) and D0 otherwise, in one step: D =
        pi_j*(C meet V_{<=j*}) on summand j*, the highest summand that C
        does not fill, and D0 = pi_j0(C meet V_{<=j0}) on summand j0, the
        lowest summand holding a pivot (none for the zero code), both from
        the echelon form with the columns taken top summand first
        (_top_first): the rows with their pivot in summand j are zero above
        it, and their parts in it span D_j, at offset M_w * N_{<j}.  An
        explicit code's are along P_lo + P_hi, P_hi the top summand: T =
        pi_hi(C) on P_hi at offset M_w * N_lo, and at offset 0 the fibers
        C_t = {c_lo : (c_lo, t) in C} on P_lo, the node without its top
        summand; for a covering radius the fibers when T fills P_hi, else T,
        and otherwise the fibers with two or more words, else T."""
        space, children = self.space, node.children
        mw, last = space.weight.max_weight, len(children) - 1
        if self.is_linear:
            rows, pivots, at, top = self._top_first(where)
            under = list(accumulate((len(child.elements) for child in children), initial=0))

            def level(j: int) -> list[tuple[int, Code]]:
                cols, mine = np.flatnonzero(where == j), at == j
                part = Code._of(space.restrict(children[j].elements), rows[mine][:, cols],
                                np.searchsorted(cols, pivots[mine]).tolist())
                return [(mw * under[j], part)]

            cover = [] if top is None else level(top)
            if not len(at):  # the rows come top summand first
                return "series", cover, []
            return "series", cover, cover if at[-1] == top else level(at[-1])
        hi = children[-1]
        lo = tuple(sorted(e for child in children[:-1] for e in child.elements))
        hi_cols, lo_cols = np.flatnonzero(where == last), np.flatnonzero(where < last)
        words = self._rows
        order, starts = _row_classes(words[:, hi_cols])
        t_words = words[order[starts]][:, hi_cols]
        top = [(mw * len(lo), Code._of(space.restrict(hi.elements), t_words))]
        lo_space = space.restrict(lo)
        fibers = [(0, Code._of(lo_space, fiber))
                  for fiber in np.split(words[order][:, lo_cols], starts[1:])]
        cover = fibers if len(starts) == space.q ** len(hi_cols) else top
        return "series", cover, [f for f in fibers if f[1].size > 1] or top

    def _top_first(self, where: np.ndarray) -> tuple:
        """A linear code's generators on a series node, where[c] the summand
        that holds column c, reduced with the columns taken top summand
        first, their pivots, the summand of each pivot, which does not rise
        from row to row, and j*, the highest summand holding fewer pivots
        than columns (None when the code fills the node)."""
        order = np.argsort(-where, kind="stable")
        rows, pivots = _row_reduce(self.space.field, self._rows, order.tolist())
        pivots = np.array(pivots, dtype=np.intp)
        at = where[pivots]
        held, widths = (np.bincount(a, minlength=where.max() + 1) for a in (at, where))
        top = next((j for j in reversed(range(len(held))) if held[j] < widths[j]), None)
        return rows, pivots, at, top

    def _child_of_columns(self, node: Node) -> np.ndarray:
        """The index of the child of a node that holds each column."""
        of = [0] * self.space.s
        for j, child in enumerate(node.children):
            for e in child.elements:
                of[e - 1] = j
        return np.repeat(of, self.space.labeling.sizes)

    def _leaf(self, what: str) -> tuple[int, Callable[[], None]]:
        """The code's reading as a leaf: its entries, rows times |C| words,
        and the read that memoizes it.  A linear code that fills its space
        has covering radius 0, no entries.  A linear code's minimum
        distance is the least positive weight of its |C| words (only the
        zero word weighs 0), weighed block by block as they are listed
        (_chunked); an explicit code's takes its |C| negated words as the
        rows of a pass against its words, |C|^2 entries: the row of -c_i has
        its one 0 at c_i, so its second-smallest entry is the distance to
        the nearest other word.  Both radii take a pass over q^|free| rows
        (the coset pass of a linear code on its columns off the pivots, an
        explicit code's on all its columns) against its words, keeping what
        the reading needs: a covering radius the row minima alone ("min"),
        memoized alone, and a packing radius the two smallest entries per
        row ("two"), which give both radii, both memoized.  So covering and
        then packing on one code takes two passes, and packing first one.
        One case applies to each code kind and reading, so nothing chooses
        among cases: a second path for a reading adds its case here, with
        the choice of the cheaper one."""
        if what == "min_distance" and self.is_linear:
            def read() -> None:
                weights = (self.space.batch_weights(words) for words in self._chunked(_CHUNK))
                self._memo[what] = min(int(w.min(initial=_BIG, where=w > 0)) for w in weights)
            return self.size, read
        if what == "min_distance":
            def read() -> None:
                negated = self.space.field.neg_table[self._rows]
                self._memo[what] = self._pass(self._free, "two", negated)[1] + 1
            return self.size**2, read
        if what == "covering_radius" and not len(self._free):
            return 0, lambda: self._memo.update(covering_radius=0)
        keep = "min" if what == "covering_radius" else "two"

        def read() -> None:
            covering, packing, _ = self._pass(self._free, keep)
            self._memo["covering_radius"] = covering
            if keep == "two":  # a packing reading reaches codes of two or more words
                self._memo["packing_radius"] = packing
        return self.space.q ** len(self._free) * self.size, read

    # the pass -----------------------------------------------------------------

    def _pass(self, cols: np.ndarray, keep: str, rows: np.ndarray | None = None):
        """One pass over w(x + c) for the rows x of F_q^cols in odometer order
        (zero off the columns cols), or of an (X, n) uint8 array when rows
        is given, and the code's words c in codeword_array's order, keeping
        per row what the reading needs (_keep): "min" its minimum, "first"
        its minimum and the index of the first word reaching it, "two" its
        two smallest entries.  Each chunk of rows comes with its tiles
        (_tiles): the first gives the chunk's readings, and each later word
        block's folds into them: its minima always, its second-smallest
        entries with "two", and with "first" its first word only where its
        minimum is strictly smaller.  Each chunk then folds into the pass's
        reading, so no array spans all the rows but "first"'s output.  A
        chunk through a cut holds classes of head rows, each read once for
        all its rows: a maximum or a minimum over the rows is one over the
        classes, so "min" and "two" fold the chunk as it is, and "first"
        gives each head row, a (T,) run of its output, its class's readings
        (the chunk's place, _tiles).  Returns the max row minimum (a
        covering radius), with "two" the min second-smallest entry - 1 (for
        two or more words, a packing radius) else None, and with "first" per
        row its minimum and the index of its first word else None.  The caller stores the readings that hold for
        its code and charges the rows x |C| vector x word pairs."""
        covering, second = 0, _BIG
        if keep == "first":
            count = self.space.q ** len(cols)
            best_w, best_word = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.intp)
        for (at, of), tiles in self._tiles(cols, rows):
            d1, other = _keep(next(tiles)[1], keep)
            for lo, w in tiles:
                t1, t2 = _keep(w, keep)
                if keep == "first":
                    other = np.where(t1 < d1, lo + t2, other)
                elif keep == "two":  # merge the block's (t1, t2) into the chunk's (d1, d2)
                    np.minimum(other, np.minimum(t2, np.maximum(d1, t1)), out=other)
                np.minimum(d1, t1, out=d1)
            covering = max(covering, int(d1.max()))
            if keep == "two":
                second = min(second, int(other.min()))
            elif keep == "first":  # a cut's rows as (head rows, T): its readings are (X, T)
                best_w.reshape(-1, *d1.shape[1:])[at] = d1[of]
                best_word.reshape(-1, *d1.shape[1:])[at] = other[of]
        return (covering, second - 1 if keep == "two" else None,
                (best_w, best_word) if keep == "first" else None)

    def _tiles(self, cols: np.ndarray, rows: np.ndarray | None = None):
        """Yield (place, tiles) per chunk of rows of _pass, tiles yielding
        (index of the first word, w) per block of words in word order, w the
        weights w(x + c) with the words on axis 1, and place the pair
        (at, of) that puts the chunk's readings r among the pass's rows as
        out[at] = r[of].  The last t columns, t the largest below len(cols)
        with q^t * |C| <= _CHUNK, are the tail of a cut (BlockSpace.cut) at
        the first of them, and x a head row plus a tail row: the (C, T) tail
        index of all T = q^t tail rows is built once, and the (C,) head
        index of each head row in chunks of step = 4 * _CHUNK // (C * T)
        head rows.  A head row's head index fixes its tile rows against
        every word and tail row, so the head rows are sorted by it
        (_row_classes) in blocks of max(_TILE // (step * C), 1) chunks, at
        most max(_TILE, step * C) uint16 entries (step * C <= 2 * _CHUNK <
        _TILE at the default sizes), and each class of a block is read
        once: a chunk is the (X, C, T) tile of X <= step classes, one add
        and one gather per entry, placed by the ranks of its classes' head
        rows and the class of each, so its (X, T) readings land in the
        pass's rows viewed as (head rows, T).  A tile holds at most
        4 * _CHUNK entries of the cut's uint8 table (a uint16 index and a
        uint8 weight each) and at least one class.  Without such a cut
        (given rows, one tile holds the pass, q * |C| > _CHUNK, or the space
        has no table for the cut) the tiles are (X, B): whole rows times a
        block of words, one pair-kernel call each, placed by the slice of
        the chunk's ranks, of at most pairs = min(_CHUNK, _TILE // n)
        entries (at least one), so the (pieces, X, B) piece sums of a tile
        and the (n, X) and (n, B) products of its codes hold at most
        max(_TILE, n) entries.  Each chunk of rows meets every block of
        words in turn: a chunk holds pairs // |C| rows when the words fit
        one block, which is listed (_chunked) and coded once, else
        min(rows, pairs) rows, each block pairs // chunk words, listed and
        coded once per chunk.  A code that
        keeps no listing has more than _CHUNK words, so its passes never
        cut, and at n <= 32 (pairs = _CHUNK) the default cap admits fewer
        rows than pairs for them, one chunk, so their words are listed
        once."""
        space = self.space
        t = 0
        while rows is None and t < len(cols) and space.q ** (t + 1) * self.size <= _CHUNK:
            t += 1
        cut = space.cut(int(cols[-t])) if 0 < t < len(cols) else None
        if cut is not None:  # q * |C| <= _CHUNK, so the code keeps its listing
            head, tail = cut.head, cut.tail
            words = self._listed()
            head_words = head.plan.codes(words[:, head.lo : head.hi], left=False)
            tail_words = tail.plan.codes(words[:, tail.lo : tail.hi], left=False)
            # (C, T) and contiguous: a tile's last axis runs over the tail rows
            tail_index = tail.index(tail.plan.row_codes(cols[-t:] - tail.lo), tail_words).T.copy()
            step = 4 * _CHUNK // tail_index.size  # head rows, or classes, per tile
            chunks = head.plan.odometer_codes(cols[:-t], step)
            while block := list(islice(chunks, max(_TILE // (step * self.size), 1))):
                index = np.concatenate([head.index(codes, head_words) for _, codes in block])
                order, starts = _row_classes(index)
                classes, bounds = index[order[starts]], np.append(starts, len(index))
                heads = order + block[0][0]  # the head rows in class order, by rank
                of = np.repeat(np.arange(len(starts)), np.diff(bounds))  # and their classes
                for lo in range(0, len(classes), step):
                    a, b = bounds[lo], bounds[min(lo + step, len(classes))]
                    w = cut.weights(classes[lo : lo + step], tail_index)
                    yield (heads[a:b], of[a:b] - lo), iter([(0, w)])
            return
        plan = space.plan()
        pairs = min(_CHUNK, max(_TILE // space.n, 1))
        count = space.q ** len(cols) if rows is None else len(rows)
        step = min(count, pairs // self.size or pairs)  # rows per chunk
        block = pairs // step  # words per block
        if rows is None:
            lefts = plan.odometer_codes(cols, step)
        else:
            lefts = ((lo, plan.codes(rows[lo : lo + step])) for lo in range(0, count, step))

        def blocks():
            return (plan.codes(words, left=False) for words in self._chunked(block))

        kept = list(blocks()) if self.size <= block else None

        def tiles(left):
            lo = 0  # the words of earlier blocks, not always a multiple of block (_span_chunks)
            for right in kept or blocks():
                # the longer axis last in memory, where numpy's inner loops run
                if left.shape[1] > right.shape[1]:
                    yield lo, space.pair_weights(left[:, None, :], right[:, :, None]).T
                else:
                    yield lo, space.pair_weights(left[:, :, None], right[:, None, :])
                lo += right.shape[1]

        for start, left in lefts:
            yield (slice(start, start + left.shape[-1]), slice(None)), tiles(left)

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
        for g, p in zip(self._rows, self.pivots):
            canon = f.sub_table[canon, f.mul_table[canon[:, p : p + 1], g[None, :]]]
        free = len(self._free)
        dtype = np.int64 if q**free <= _BIG else object
        radix = np.array([q**e for e in range(free - 1, -1, -1)], dtype=dtype)
        return canon[:, self._free].astype(dtype) @ radix

    def coset_table(self) -> CosetTable:
        """Minimum-weight leader per coset; leader = first minimum in odometer
        order, x + c for the row x of the coset pass (zero on the pivots)
        and the first codeword c whose w(x + c) is the row minimum, which
        the pass keeps per row with the minimum ("first", module docstring),
        one gather from the add table.  The leaders are the (q^(n-k), n)
        uint8 array the pass gives and the
        weights its (q^(n-k),) int64 row minima, both read-only and
        memoized with the table, q^(n-k) * (n + 8) bytes; the max row
        minimum is its max leader weight, which equals the covering radius
        but is not memoized as one (covering_radius reads its own).  The
        words are the code's own (_chunked), never listed whole for a code
        of more than _CHUNK words, whose leaders' words come by message
        rank (_words_of); it charges the q^n pairs alone."""
        if "coset_table" in self._memo:
            return self._memo["coset_table"]
        if not self.is_linear:
            raise NotLinear("cosets are defined for linear codes only")
        space = self.space
        charge(space.q ** len(self._free) * self.size, "vector x word pairs")
        covering, _, (best_w, best_word) = self._pass(self._free, "first")
        x = space_rows(space.q, space.n, self._free)
        words = self._listed()
        words = _words_of(space.field, self._rows, best_word) if words is None else words[best_word]
        leaders = space.field.add_table[x, words]
        leaders.flags.writeable = False
        best_w.flags.writeable = False
        table = CosetTable(leaders=leaders, weights=best_w, max_weight=covering)
        self._memo["coset_table"] = table
        return table

    # chains -----------------------------------------------------------------

    def trailing_full_index(self) -> int:
        """With the blocks numbered 1..s along the chain, bottom first: s if
        C_s is not all of F_q^{k_s}; otherwise the least l such that the
        joint projection onto blocks l+1..s is the full product space.  A
        linear code reads it from its echelon form with the columns taken top
        block first: it is j*, numbered from 1 (_top_first), counting no
        codeword."""
        if not self.space.poset.is_chain():
            raise NotAChain("trailing_full_index requires a chain poset")
        space = self.space
        if self.is_linear:
            top = self._top_first(self._child_of_columns(space.poset.tree()))[3]
            return 0 if top is None else top + 1
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

    def _same_kind(self, space: BlockSpace, rows: np.ndarray) -> "Code":
        """The code of this code's kind in space with the given rows: its
        generators when linear (a linear map of _rows), else its words."""
        return Code(space, generators=rows) if self.is_linear else Code(space, words=rows)

    def with_weight(self, weight: WeightFn) -> "Code":
        """The same word set viewed in the sibling space under another weight,
        on this code's checked rows (_of)."""
        return Code._of(self.space.with_weight(weight), self._rows, self.pivots)

    def max_poset_weight(self, weight: WeightFn) -> int:
        """Max codeword weight under the given coordinate weight, from the
        words in blocks (_chunked); charges q^k unless the code keeps its
        words."""
        sibling = self.space.with_weight(weight)
        if self._words is None:
            charge(self.size, "q^k")
        return max(int(sibling.batch_weights(words).max()) for words in self._chunked(_CHUNK))

    def __repr__(self) -> str:
        if self.is_linear:
            return f"Code(linear, k={self.dimension}, {self.space!r})"
        return f"Code(explicit, {self.size} words, {self.space!r})"
