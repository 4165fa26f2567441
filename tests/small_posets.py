"""Every labelled poset on a few elements, for the exhaustive tests."""

from typing import Iterator

from wpbcodes.poset import Poset


def all_posets(s: int) -> Iterator[Poset]:
    """Every labelled poset on {1..s} by brute force; feasible for s <= 4."""
    pairs = [(i, j) for i in range(s) for j in range(s) if i != j]
    for mask in range(1 << len(pairs)):
        leq = [[i == j for j in range(s)] for i in range(s)]
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                leq[i][j] = True
        try:
            p = Poset(leq)
        except ValueError:  # not antisymmetric or not transitive
            continue
        yield p
