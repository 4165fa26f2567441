"""Finite posets on {1..s} with ideal queries and the six combinators.

The order is kept as bitmasks, two per element: its strict down-set and
its strict up-set, with element j at bit j - 1 (Poset.below, Poset.above).
Every step works on these masks, so none walks an s x s table:
from_cover_relations sorts the elements topologically and builds the
down-sets in that order and the up-sets in the reverse one, one OR per
cover each; the combinators shift and OR their inputs' masks; the order
induced on a subset (induced, and so puncture) compresses each mask one
run of consecutive elements at a time; ideals, maximal elements, the
ordinal-sum summands and the decomposition tree are unions and
intersections of masks.  The matrix constructor Poset(leq) checks a given
relation with one subset test per related pair.

The covers (Poset.covers, which the weight kernel reads, and cover_pairs,
their sorted list, which the serializer writes) come one level at a time, a level being the elements of
one down-set size, lowest first.  An element's upper covers are the
minimal elements of its strict up-set.  At the lowest level that the
remainder of that up-set reaches, every element is minimal in it (an
element below it would have a smaller down-set), so each is a cover, and
each cover found removes its own up-set from the remainder.  A chain of s
elements costs s steps, not the s^2 / 2 of testing every related pair.

When the covers close a cycle, from_cover_relations names one: from the
least element that the topological sort leaves, it walks back along covers
from elements also left (the least one into each step) until an element
repeats, and reports that cycle, closed, from its least element.

Elements are 1-based in the public API; serialization uses cover pairs.

Index flattening for the two product combinators is fixed as
(i, j) -> (i - 1) * t + j, matching the coordinate layout of tensor
labelings downstream.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CycleDetected, NotAnIdeal, OutOfRange
from .weights import exact_ints


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """A partial order on {1..s}: below[i - 1] and above[i - 1] are the
    bitmasks of {j : j < i} and {j : i < j}."""

    __slots__ = ("s", "below", "above")

    def __init__(self, leq: Iterable[Iterable[bool]]):
        """The order whose full <= matrix is leq (leq[i - 1][j - 1] iff
        i <= j), once it is checked to be a partial order: ValueError names
        the first violation, of reflexivity along the diagonal, then of
        antisymmetry or transitivity at the first related pair in row-major
        order."""
        rows = [[bool(x) for x in row] for row in leq]
        s = len(rows)
        if any(len(row) != s for row in rows):
            raise ValueError("leq must be a square matrix")
        for i in range(s):
            if not rows[i][i]:
                raise ValueError(f"relation is not reflexive at {i + 1}")
        up = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
        below = [0] * s
        for i in range(s):
            for j in bits(up[i] ^ 1 << i):
                if up[j] >> i & 1:
                    raise ValueError(f"relation is not antisymmetric at ({i + 1},{j + 1})")
                beyond = up[j] & ~up[i]  # up[j] must lie inside up[i]
                if beyond:
                    k = (beyond & -beyond).bit_length()
                    raise ValueError(f"relation is not transitive at ({i + 1},{j + 1},{k})")
                below[j] |= 1 << i
        above = tuple(m ^ 1 << i for i, m in enumerate(up))
        self.s, self.below, self.above = s, tuple(below), above

    @classmethod
    def _of(cls, below: Sequence[int], above: Sequence[int]) -> Poset:
        """The poset with these strict down- and up-set masks, taken as
        given: the builders below make them a partial order."""
        p = cls.__new__(cls)
        p.s, p.below, p.above = len(below), tuple(below), tuple(above)
        return p

    # queries ---------------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        """True iff a <=_P b (1-based)."""
        a, b = self._check(a), self._check(b)
        return a == b or bool(self.below[b - 1] >> (a - 1) & 1)

    def less(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def elements(self) -> range:
        return range(1, self.s + 1)

    def is_chain(self) -> bool:
        return len(self.summands()) == self.s

    def is_antichain(self) -> bool:
        return not any(self.below)

    def summands(self) -> tuple[tuple[int, ...], ...]:
        """The finest ordinal-sum decomposition P = P_1 + ... + P_h (every
        element of a lower summand below every element of a higher one):
        the connected components of the incomparability graph, bottom
        summand first, each an ascending tuple of elements: the children of
        the tree's root when it is a series node, read from the tree (tree,
        computed once per order relation)."""
        root = self.tree()
        return tuple(c.elements for c in root.children) if root.kind == "series" else (root.elements,)

    def tree(self) -> Node:
        """The series-parallel decomposition tree of P (Node): series nodes
        split into their finest ordinal sum (summands), parallel nodes into
        the connected components of their comparability graph, and a leaf
        is a set of elements that neither splits (one element, or a
        connected poset that is no ordinal sum).  Computed once per order
        relation (_tree)."""
        return _tree(self.below, self.above)

    def ideal(self, members: Iterable[int]) -> frozenset[int]:
        """The smallest downward-closed set containing ``members``."""
        return frozenset(b + 1 for b in bits(self._down(members)[1]))

    def maximal_elements(self, members: Iterable[int]) -> frozenset[int]:
        """Maximal elements of an ideal; raises NotAnIdeal if not downward closed."""
        ideal = frozenset(members)
        mask, down = self._down(ideal)
        if down != mask:
            raise NotAnIdeal(f"{sorted(ideal)} is not downward closed")
        return frozenset(i for i in ideal if not self.above[i - 1] & mask)

    def _down(self, members: Iterable[int]) -> tuple[int, int]:
        """The masks of members and of the ideal they generate."""
        mask = down = 0
        for e in set(members):
            e = self._check(e)
            mask |= 1 << (e - 1)
            down |= self.below[e - 1]
        return mask, down | mask

    def induced(self, elements: Sequence[int]) -> Poset:
        """The order P induces on the given ascending elements, relabelled
        order-preservingly to 1..len(elements): element elements[i] becomes
        i + 1.  Each kept mask is compressed with one shift-and-mask per run
        of consecutive elements, so a run costs the same at any length.  The
        elements are integers (exact_ints)."""
        elements = exact_ints(elements, "element indices")
        if any(b <= a for a, b in zip(elements, elements[1:])):
            raise ValueError(f"elements must ascend, got {list(elements)}")
        if elements:
            self._check(elements[0])
            self._check(elements[-1])
        runs = []  # (first bit, mask of the run's width, new first bit)
        start = 0
        for i in range(1, len(elements) + 1):
            if i == len(elements) or elements[i] != elements[i - 1] + 1:
                runs.append((elements[start] - 1, (1 << i - start) - 1, start))
                start = i

        def pack(mask: int) -> int:
            return sum((mask >> lo & width) << at for lo, width, at in runs)

        return Poset._of([pack(self.below[e - 1]) for e in elements],
                         [pack(self.above[e - 1]) for e in elements])

    def covers(self) -> list[tuple[int, int]]:
        """Every cover (a, b), a < b with nothing strictly between, lowest
        level of a first (levels ascend in down-set size), then by a and by
        b: found one level at a time (module docstring)."""
        levels: dict[int, int] = {}
        for i, down in enumerate(self.below):
            size = down.bit_count()
            levels[size] = levels.get(size, 0) | 1 << i
        masks = [levels[size] for size in sorted(levels)]
        out = []
        for at, level in enumerate(masks):
            for a in bits(level):
                rest, up = self.above[a], at + 1
                while rest:
                    hit = rest & masks[up]
                    for b in bits(hit):
                        out.append((a + 1, b + 1))
                        rest &= ~self.above[b]
                    rest &= ~hit
                    up += 1
        return out

    def cover_pairs(self) -> list[tuple[int, int]]:
        """The covers (covers), sorted."""
        return sorted(self.covers())

    def _check(self, i: int) -> int:
        """The element i as an int: a plain int after one type test, any
        other value through exact_ints; OutOfRange outside 1..s."""
        if type(i) is not int:
            (i,) = exact_ints([i], "element indices")
        if not 1 <= i <= self.s:
            raise OutOfRange(f"element {i} outside 1..{self.s}")
        return i

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and other.below == self.below

    def __hash__(self) -> int:
        return hash(self.below)

    def __repr__(self) -> str:
        return f"Poset(s={self.s}, covers={self.cover_pairs()})"


def _components(p: Poset, members: int, comparable: bool) -> list[int]:
    """The connected components of the comparability graph on the elements
    of the mask members (of the incomparability graph when not
    comparable), as masks, each grown from the least element not yet
    reached."""
    parts = []
    while members:
        part, todo = 0, members & -members
        while todo:
            low = todo & -todo
            part |= low
            b = low.bit_length() - 1
            near = p.below[b] | p.above[b]
            todo = (todo | (near if comparable else ~near)) & members & ~part
        parts.append(part)
        members &= ~part
    return parts


class Node:
    """A node of a poset's decomposition tree (Poset.tree): its kind
    ("series", "parallel" or "leaf"), its elements (ascending, 1-based) and
    its children (a series node's summands, bottom first, or a parallel
    node's components).  The tree of the order a node's elements induce
    (Poset.induced) is the node's subtree, relabelled."""

    __slots__ = ("kind", "elements", "children")

    def __init__(self, kind: str, elements: tuple[int, ...], children: tuple[Node, ...]):
        self.kind, self.elements, self.children = kind, elements, children


@lru_cache(maxsize=1024)
def _tree(below: tuple[int, ...], above: tuple[int, ...]) -> Node:
    """Poset.tree of the order with these masks (keyed by them, so equal
    posets share it)."""
    return _node(Poset._of(below, above), (1 << len(below)) - 1)


def _node(p: Poset, members: int) -> Node:
    """The decomposition tree of the order p induces on the elements of the
    mask members."""
    elements = tuple(b + 1 for b in bits(members))
    # the summands are the components of the incomparability graph, and
    # an element of a lower one has fewer elements below it than one of a
    # higher one (all of the lower summand lie below the latter)
    parts = sorted(_components(p, members, False),
                   key=lambda part: (p.below[next(bits(part))] & members).bit_count())
    if len(parts) > 1:
        return Node("series", elements, tuple(_node(p, part) for part in parts))
    parts = _components(p, members, True)
    if len(parts) > 1:
        return Node("parallel", elements, tuple(_node(p, part) for part in parts))
    return Node("leaf", elements, ())


# constructors ---------------------------------------------------------------


def chain(s: int) -> Poset:
    """The total order 1 < 2 < ... < s, s an integer (exact_ints)."""
    (s,) = exact_ints([s], "poset sizes")
    if s < 1:
        raise ValueError("chain needs s >= 1")
    full = (1 << s) - 1
    return Poset._of([(1 << i) - 1 for i in range(s)], [full ^ ((2 << i) - 1) for i in range(s)])


def antichain(s: int) -> Poset:
    """s pairwise-incomparable elements, s an integer (exact_ints)."""
    (s,) = exact_ints([s], "poset sizes")
    if s < 1:
        raise ValueError("antichain needs s >= 1")
    return Poset._of([0] * s, [0] * s)


def from_cover_relations(s: int, covers: Iterable[tuple[int, int]]) -> Poset:
    """Reflexive-transitive closure of (a, b) pairs meaning a < b.  The
    elements are sorted topologically (Kahn's algorithm; CycleDetected,
    naming a cycle (_cycle), when some are left), then each element's
    down-set is the union of its lower covers' and each up-set that of its
    upper covers', one OR per cover.  The size and the elements of each
    cover pair are integers (exact_ints)."""
    (s,) = exact_ints([s], "poset sizes")
    succ: list[list[int]] = [[] for _ in range(s)]
    pending = [0] * s  # covers into each element from elements not yet sorted
    for pair in covers:
        a, b = exact_ints(pair, "cover pairs")
        if not (1 <= a <= s and 1 <= b <= s):
            raise OutOfRange(f"cover ({a},{b}) outside 1..{s}")
        if a == b:
            raise ValueError(f"cover ({a},{b}) relates an element to itself")
        succ[a - 1].append(b - 1)
        pending[b - 1] += 1
    order = [v for v in range(s) if not pending[v]]
    for v in order:
        for w in succ[v]:
            pending[w] -= 1
            if not pending[w]:
                order.append(w)
    if len(order) < s:
        raise CycleDetected(_cycle(succ, pending))
    below, above = [0] * s, [0] * s
    for v in order:
        for w in succ[v]:
            below[w] |= below[v] | 1 << v
    for v in reversed(order):
        for w in succ[v]:
            above[v] |= above[w] | 1 << w
    return Poset._of(below, above)


def _cycle(succ: list[list[int]], pending: list[int]) -> list[int]:
    """A cycle of the covers succ (0-based) through the elements the
    topological sort left (pending > 0), 1-based and closed, from its least
    element.  Every element left has a cover into it from one also left;
    the walk goes back along the least such from the least element left
    until an element repeats."""
    left = [v for v, count in enumerate(pending) if count]
    back: dict[int, int] = {}
    for v in left:
        for w in succ[v]:
            back.setdefault(w, v)
    walk, seen, v = [], {}, left[0]
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        v = back[v]
    loop = walk[seen[v]:][::-1]  # the cycle in cover order
    first = loop.index(min(loop))
    return [v + 1 for v in loop[first:] + loop[: first + 1]]


# combinators ----------------------------------------------------------------
#
# Each combinator builds both directions of its order from its inputs' masks:
# reversing every order turns each construction into itself (the linear sum
# apart, whose two parts swap roles), so a product builds its down-sets from
# the inputs' down-sets and its up-sets, by the same rule, from their up-sets.


def _both(rule: Callable, p: Poset, q: Poset) -> Poset:
    return Poset._of(rule(p.below, q.below), rule(p.above, q.above))


def _spread(mask: int, block: int, t: int) -> int:
    """The union of block << a * t over the elements a of mask (block has t
    bits, so the terms are disjoint and their sum is the union): for the
    product index (a, b) -> a * t + b, the pairs with a in mask and b in
    block."""
    return sum(block << a * t for a in bits(mask))


def disjoint_union(p: Poset, q: Poset) -> Poset:
    """P and Q side by side on {1..s+t}; cross pairs incomparable."""
    return _both(lambda pm, qm: list(pm) + [m << p.s for m in qm], p, q)


def linear_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union plus x <= y for every x in the P-part, y in the Q-part."""
    s, low, high = p.s, (1 << p.s) - 1, ((1 << q.s) - 1) << p.s
    below = p.below + tuple(m << s | low for m in q.below)
    return Poset._of(below, tuple(m | high for m in p.above) + tuple(m << s for m in q.above))


def cartesian_product(p: Poset, q: Poset) -> Poset:
    """(x,y) <= (x',y') iff x <=_P x' and y <=_Q y'; index (i,j) -> (i-1)t+j."""
    t = q.s
    return _both(lambda pm, qm: [_spread(a | 1 << i, b | 1 << j, t) ^ 1 << (i * t + j)
                                 for i, a in enumerate(pm) for j, b in enumerate(qm)], p, q)


def lex_product(p: Poset, q: Poset) -> Poset:
    """(x,y) <= (x',y') iff x <_P x', or x = x' and y <=_Q y'."""
    t = q.s

    def rule(pm: tuple[int, ...], qm: tuple[int, ...]) -> list[int]:
        layers = [_spread(a, (1 << t) - 1, t) for a in pm]
        return [layer | b << i * t for i, layer in enumerate(layers) for b in qm]

    return _both(rule, p, q)


def puncture(p: Poset, z: int) -> Poset:
    """The order induced on {1..s}-{z}, relabelled order-preservingly to {1..s-1}."""
    p._check(z)
    return p.induced([e for e in p.elements() if e != z])


def extend(p: Poset) -> Poset:
    """Add a new isolated element s+1 (comparable only to itself)."""
    return Poset._of(p.below + (0,), p.above + (0,))
