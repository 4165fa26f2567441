"""Weight functions on a single GF(q) coordinate.

A weight is a table w: GF(q) -> N with w(0) = 0, w(a) > 0 for a != 0,
w(a) = w(-a), and w(a + b) <= w(a) + w(b).  Every constructor validates
all three axioms over the full q x q pair grid, so a WeightFn in hand is
always a genuine weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import AxiomViolation, LeeRequiresPrimeField
from .field import Field


@dataclass(frozen=True)
class WeightFn:
    """A validated weight table over a field.

    ``max_weight`` is the largest value the table takes; ``min_nonzero_weight``
    the smallest value over nonzero arguments.
    """

    field: Field
    table: tuple[int, ...]
    name: str

    def __call__(self, a: int) -> int:
        return self.table[a]

    @cached_property
    def max_weight(self) -> int:
        return max(self.table)

    @property
    def min_nonzero_weight(self) -> int:
        return min(self.table[1:])

    def spec(self) -> dict:
        """JSON-serializable form used in instance files."""
        if self.name in ("hamming", "lee"):
            return {"kind": self.name}
        return {"kind": "table", "values": list(self.table)}

    def __repr__(self) -> str:
        return f"WeightFn({self.name}, q={self.field.q})"


def _validate(field: Field, table: Sequence[int]) -> None:
    q = field.q
    if len(table) != q:
        raise AxiomViolation(
            "positivity", None, f"table must have length q={q}, got {len(table)}"
        )
    if any(v < 0 or v != int(v) for v in table):
        raise AxiomViolation("positivity", None, "weights must be natural numbers")
    if table[0] != 0:
        raise AxiomViolation("positivity", 0, f"w(0) must be 0, got {table[0]}")
    for a in range(1, q):
        if table[a] == 0:
            raise AxiomViolation("positivity", a, f"w({a}) must be positive")
    w = np.asarray(table, dtype=np.int64)
    sym = w[field.neg_table.astype(np.int64)] != w
    if sym.any():
        a = int(np.nonzero(sym)[0][0])
        raise AxiomViolation(
            "symmetry", a, f"w({a})={table[a]} but w(-{a})={table[field.neg(a)]}"
        )
    tri = w[field.add_table.astype(np.int64)] > w[:, None] + w[None, :]
    if tri.any():
        a, b = (int(v) for v in np.argwhere(tri)[0])
        s = field.add(a, b)
        raise AxiomViolation(
            "triangle",
            (a, b),
            f"w({a}+{b})=w({s})={table[s]} exceeds w({a})+w({b})={table[a] + table[b]}",
        )


def hamming_weight(field: Field) -> WeightFn:
    """The indicator weight: 0 on 0, 1 elsewhere."""
    table = (0,) + (1,) * (field.q - 1)
    return WeightFn(field, table, "hamming")


def lee_weight(field: Field) -> WeightFn:
    """w(a) = min(a, q - a) under the residue encoding; prime q only."""
    if field.e != 1:
        raise LeeRequiresPrimeField(
            f"Lee weight needs prime q; GF({field.q}) has extension degree {field.e}"
        )
    q = field.q
    table = tuple(min(a, q - a) for a in range(q))
    fn = WeightFn(field, table, "lee")
    _validate(field, table)
    return fn


def custom_weight(field: Field, table: Sequence[int]) -> WeightFn:
    """Validate an arbitrary table against all three weight axioms."""
    values = tuple(int(v) for v in table)
    _validate(field, values)
    return WeightFn(field, values, "table")
