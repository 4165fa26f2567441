"""Finite posets on {1..s} with ideal queries and the six combinators.

The full order relation is stored, not just covers, together with every
element's down-set and strict up-set: ideal and maximal queries dominate
the scalar workload and s stays small (a few dozen at most).
Elements are 1-based in the public API; serialization uses cover pairs.

Index flattening for the two product combinators is fixed as
(i, j) -> (i - 1) * t + j, matching the coordinate layout of tensor
labelings downstream.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import CycleDetected, NotAnIdeal, OutOfRange


class Poset:
    """A partial order on {1..s} given by its full <= relation."""

    __slots__ = ("s", "_leq", "_np", "_down", "_up")

    def __init__(self, leq: Iterable[Iterable[bool]]):
        rel = tuple(tuple(bool(x) for x in row) for row in leq)
        s = len(rel)
        if any(len(row) != s for row in rel):
            raise ValueError("leq must be a square matrix")
        for i in range(s):
            if not rel[i][i]:
                raise ValueError(f"relation is not reflexive at {i + 1}")
        for i in range(s):
            for j in range(s):
                if i != j and rel[i][j] and rel[j][i]:
                    raise ValueError(f"relation is not antisymmetric at ({i + 1},{j + 1})")
                if rel[i][j]:
                    for k in range(s):
                        if rel[j][k] and not rel[i][k]:
                            raise ValueError(
                                f"relation is not transitive at ({i + 1},{j + 1},{k + 1})"
                            )
        self.s = s
        self._leq = rel
        self._np = None
        # _down[i - 1] = {j : j <= i},  _up[i - 1] = {j : i < j}
        self._down = tuple(
            frozenset(j + 1 for j in range(s) if rel[j][i]) for i in range(s)
        )
        self._up = tuple(
            frozenset(j + 1 for j in range(s) if j != i and rel[i][j]) for i in range(s)
        )

    # queries ---------------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        """True iff a <=_P b (1-based)."""
        self._check(a)
        self._check(b)
        return self._leq[a - 1][b - 1]

    def less(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def matrix(self) -> np.ndarray:
        """The (s, s) boolean <= matrix; cached, do not mutate."""
        if self._np is None:
            self._np = np.array(self._leq, dtype=bool)
        return self._np

    def elements(self) -> range:
        return range(1, self.s + 1)

    def is_chain(self) -> bool:
        return all(
            self._leq[i][j] or self._leq[j][i] for i, j in combinations(range(self.s), 2)
        )

    def is_antichain(self) -> bool:
        return not any(
            self._leq[i][j] or self._leq[j][i] for i, j in combinations(range(self.s), 2)
        )

    def ideal(self, members: Iterable[int]) -> frozenset[int]:
        """The smallest downward-closed set containing ``members``."""
        gen = set(members)
        for e in gen:
            self._check(e)
        return frozenset().union(*(self._down[e - 1] for e in gen))

    def principal(self, i: int) -> frozenset[int]:
        return self.ideal((i,))

    def strict_principal(self, i: int) -> frozenset[int]:
        """principal(i) minus i itself: everything strictly below i."""
        return self.principal(i) - {i}

    def maximal_elements(self, members: Iterable[int]) -> frozenset[int]:
        """Maximal elements of an ideal; raises NotAnIdeal if not downward closed."""
        ideal = frozenset(members)
        if self.ideal(ideal) != ideal:
            raise NotAnIdeal(f"{sorted(ideal)} is not downward closed")
        return frozenset(i for i in ideal if self._up[i - 1].isdisjoint(ideal))

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Covers (a, b): a < b with nothing strictly between; sorted."""
        out = []
        for a in range(self.s):
            for b in range(self.s):
                if a != b and self._leq[a][b]:
                    if not any(
                        c != a and c != b and self._leq[a][c] and self._leq[c][b]
                        for c in range(self.s)
                    ):
                        out.append((a + 1, b + 1))
        return sorted(out)

    def _check(self, i: int) -> None:
        if not 1 <= i <= self.s:
            raise OutOfRange(f"element {i} outside 1..{self.s}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and other._leq == self._leq

    def __hash__(self) -> int:
        return hash(self._leq)

    def __repr__(self) -> str:
        return f"Poset(s={self.s}, covers={self.cover_pairs()})"


# constructors ---------------------------------------------------------------


def chain(s: int) -> Poset:
    """The total order 1 < 2 < ... < s."""
    if s < 1:
        raise ValueError("chain needs s >= 1")
    return Poset([[i <= j for j in range(s)] for i in range(s)])


def antichain(s: int) -> Poset:
    """s pairwise-incomparable elements."""
    if s < 1:
        raise ValueError("antichain needs s >= 1")
    return Poset([[i == j for j in range(s)] for i in range(s)])


def from_cover_relations(s: int, covers: Iterable[tuple[int, int]]) -> Poset:
    """Reflexive-transitive closure of (a, b) pairs meaning a < b."""
    edges = [(a, b) for a, b in covers]
    for a, b in edges:
        if not (1 <= a <= s and 1 <= b <= s):
            raise OutOfRange(f"cover ({a},{b}) outside 1..{s}")
        if a == b:
            raise ValueError(f"cover ({a},{b}) relates an element to itself")
    leq = [[i == j for j in range(s)] for i in range(s)]
    for a, b in edges:
        leq[a - 1][b - 1] = True
    for k in range(s):
        for i in range(s):
            if leq[i][k]:
                for j in range(s):
                    if leq[k][j]:
                        leq[i][j] = True
    for i in range(s):
        for j in range(s):
            if i != j and leq[i][j] and leq[j][i]:
                raise CycleDetected(_find_cycle(s, edges, i + 1, j + 1))
    return Poset(leq)


def _find_cycle(s: int, edges: list[tuple[int, int]], a: int, b: int) -> list[int]:
    # a <= b and b <= a with a != b: return a path a -> ... -> b -> ... -> a.
    adj: dict[int, list[int]] = {i: [] for i in range(1, s + 1)}
    for x, y in edges:
        adj[x].append(y)

    def path(src: int, dst: int) -> list[int]:
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, trail = stack.pop()
            if node == dst:
                return trail
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, trail + [nxt]))
        return [src, dst]

    forward = path(a, b)
    back = path(b, a)
    return forward + back[1:]


# combinators ----------------------------------------------------------------


def disjoint_union(p: Poset, q: Poset) -> Poset:
    """P and Q side by side on {1..s+t}; cross pairs incomparable."""
    s, t = p.s, q.s
    n = s + t
    leq = [[False] * n for _ in range(n)]
    for i in range(s):
        for j in range(s):
            leq[i][j] = p._leq[i][j]
    for i in range(t):
        for j in range(t):
            leq[s + i][s + j] = q._leq[i][j]
    return Poset(leq)


def linear_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union plus x <= y for every x in the P-part, y in the Q-part."""
    s, t = p.s, q.s
    base = disjoint_union(p, q)
    leq = [list(row) for row in base._leq]
    for i in range(s):
        for j in range(t):
            leq[i][s + j] = True
    return Poset(leq)


def cartesian_product(p: Poset, q: Poset) -> Poset:
    """(x,y) <= (x',y') iff x <=_P x' and y <=_Q y'; index (i,j) -> (i-1)t+j."""
    s, t = p.s, q.s
    n = s * t
    leq = [[False] * n for _ in range(n)]
    for i in range(s):
        for j in range(t):
            for a in range(s):
                for b in range(t):
                    leq[i * t + j][a * t + b] = p._leq[i][a] and q._leq[j][b]
    return Poset(leq)


def lex_product(p: Poset, q: Poset) -> Poset:
    """(x,y) <= (x',y') iff x <_P x', or x = x' and y <=_Q y'."""
    s, t = p.s, q.s
    n = s * t
    leq = [[False] * n for _ in range(n)]
    for i in range(s):
        for j in range(t):
            for a in range(s):
                for b in range(t):
                    leq[i * t + j][a * t + b] = (i != a and p._leq[i][a]) or (
                        i == a and q._leq[j][b]
                    )
    return Poset(leq)


def puncture(p: Poset, z: int) -> Poset:
    """The order induced on {1..s}-{z}, relabelled order-preservingly to {1..s-1}."""
    if not 1 <= z <= p.s:
        raise OutOfRange(f"element {z} outside 1..{p.s}")
    keep = [i for i in range(p.s) if i != z - 1]
    return Poset([[p._leq[i][j] for j in keep] for i in keep])


def extend(p: Poset) -> Poset:
    """Add a new isolated element s+1 (comparable only to itself)."""
    s = p.s
    leq = [list(row) + [False] for row in p._leq]
    leq.append([False] * s + [True])
    return Poset(leq)


def all_posets(s: int) -> Iterator[Poset]:
    """Every labelled poset on {1..s} by brute force; feasible for s <= 4."""
    pairs = [(i, j) for i in range(s) for j in range(s) if i != j]
    for mask in range(1 << len(pairs)):
        leq = [[i == j for j in range(s)] for i in range(s)]
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                leq[i][j] = True
        if _is_partial_order(leq, s):
            yield Poset(leq)


def _is_partial_order(leq: list[list[bool]], s: int) -> bool:
    for i in range(s):
        for j in range(s):
            if i != j and leq[i][j] and leq[j][i]:
                return False
            if leq[i][j]:
                for k in range(s):
                    if leq[j][k] and not leq[i][k]:
                        return False
    return True
