"""Five ways to build a new code (and its block space) from given ones.

Each construction returns a ConstructionResult bundling the resultant code,
its space (new poset + new labeling, same field and weight) and a small
provenance record.  Each is one map on uint8 word arrays, with one path for
linear and explicit inputs.  Extension, puncturing and Code.with_weight map
a code's rows (generators or words) and rebuild a code of the same kind.
The direct sum and (u'|u'+u'') share one body mapping pairs (u, v) to
(u, v) or (u, u + v): the generator blocks [G1 0; 0 G2] when both inputs
are linear, so the result stays linear, else all |C1| * |C2| word pairs,
charged before any codeword is listed.  The tensor product is one mul_table
gather over the same charged pairs; its word set {u (x) v} is generally not
a subspace and is always explicit.  Its poset's order relation, s^2 for
its s = s1 * s2 elements, is charged before that poset is built, as the
loader charges a document's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blockspace import BlockSpace, Labeling, Vector, charge
from .codes import Code, _unique_rows
from .errors import FieldMismatch, LengthMismatch, OutOfRange, WeightMismatch
from .field import Field
from . import poset as posets
from .weights import exact_ints


@dataclass(frozen=True)
class ConstructionResult:
    code: Code
    space: BlockSpace
    provenance: dict

    def __post_init__(self):
        assert self.code.space is self.space


def _check_field(c1: Code, c2: Code) -> None:
    if c1.space.field != c2.space.field:
        raise FieldMismatch(
            f"codes live over GF({c1.space.q}) and GF({c2.space.q})"
        )


def _check_compatible(c1: Code, c2: Code) -> None:
    _check_field(c1, c2)
    if c1.space.weight.table != c2.space.weight.table:
        raise WeightMismatch("codes use different weight tables")


def _input_summary(c: Code) -> dict:
    return {"q": c.space.q, "n": c.space.n, "words": c.size, "kind": c.kind}


def _word_pairs(c1: Code, c2: Code) -> np.ndarray:
    """(|C1| * |C2|, n1 + n2) uint8: every concatenation (u, v), u-major;
    charges the |C1| * |C2| words before listing a codeword."""
    charge(c1.size * c2.size, "|C1| * |C2| words")
    a1, a2 = c1.codeword_array(), c2.codeword_array()
    return np.hstack([np.repeat(a1, len(a2), axis=0), np.tile(a2, (len(a1), 1))])


# Constructions 1 and 2: direct sum and (u' | u' + u'') ------------------------


def direct_sum_labeling(pi1: Labeling, pi2: Labeling) -> Labeling:
    """Concatenated block sizes: the labeling of the sum structure."""
    return Labeling(pi1.sizes + pi2.sizes)


def _sum_order_poset(p1, p2, order: str):
    if order == "disjoint":
        return posets.disjoint_union(p1, p2)
    if order == "linear":
        return posets.linear_sum(p1, p2)
    raise ValueError(f"order must be 'disjoint' or 'linear', got {order!r}")


def _sum_code(c1: Code, c2: Code, order: str, plotkin: bool) -> ConstructionResult:
    """The words (u', u'') (plotkin=False) or (u', u' + u'') (plotkin=True)
    for u' in C1, u'' in C2, over the combined poset P (+) Q or P (u) Q."""
    s1, s2 = c1.space, c2.space
    poset = _sum_order_poset(s1.poset, s2.poset, order)
    _check_compatible(c1, c2)
    if plotkin and s1.n != s2.n:
        raise LengthMismatch(
            f"(u'|u'+u'') needs equal ambient lengths, got {s1.n} and {s2.n}"
        )
    labeling = direct_sum_labeling(s1.labeling, s2.labeling)
    space = BlockSpace(poset, labeling, s1.field, s1.weight)
    linear = c1.is_linear and c2.is_linear
    if linear:
        g1, g2 = c1._rows, c2._rows
        rows = np.zeros((len(g1) + len(g2), space.n), dtype=np.uint8)
        rows[: len(g1), : s1.n] = g1
        rows[len(g1) :, s1.n :] = g2
    else:
        rows = _word_pairs(c1, c2)
    if plotkin:
        rows[:, s1.n :] = s1.field.add_table[rows[:, : s1.n], rows[:, s1.n :]]
    code = Code.linear(space, rows) if linear else Code.explicit(space, rows)
    prov = {
        "construction": "plotkin" if plotkin else "direct-sum",
        "order": order,
        "inputs": [_input_summary(c1), _input_summary(c2)],
    }
    return ConstructionResult(code, space, prov)


def direct_sum_code(c1: Code, c2: Code, order: str = "disjoint") -> ConstructionResult:
    """All concatenations (u', u'') over the combined poset P (+) Q or P (u) Q."""
    return _sum_code(c1, c2, order, plotkin=False)


def plotkin_code(c1: Code, c2: Code, order: str = "disjoint") -> ConstructionResult:
    """Words (u', u' + u'') for u' in C1, u'' in C2; requires equal ambient length."""
    return _sum_code(c1, c2, order, plotkin=True)


def sum_map_injective(c1: Code, c2: Code) -> bool:
    """Whether (u', u'') -> u' + u'' is injective on C1 x C2.

    This is the reading of the (u'|u'+u'') refinement hypothesis: no two
    distinct pairs share a sum.  For linear inputs it is equivalent to
    C1 and C2 intersecting only in 0.  The codes share their field
    (FieldMismatch otherwise); their weights do not enter.
    """
    _check_field(c1, c2)
    if c1.space.n != c2.space.n:
        raise LengthMismatch(f"sums need equal lengths, got {c1.space.n} and {c2.space.n}")
    pairs, n = _word_pairs(c1, c2), c1.space.n
    sums = c1.space.field.add_table[pairs[:, :n], pairs[:, n:]]
    return len(_unique_rows(sums)) == len(sums)


# Construction 3: extended code ------------------------------------------------


def extended_code(c: Code) -> ConstructionResult:
    """Append one coordinate making the sum of all n+1 coordinates zero.

    The new block s+1 has size 1 and is isolated in the extended poset.
    """
    s = c.space
    f = s.field
    labeling = Labeling(s.labeling.sizes + (1,))
    space = BlockSpace(posets.extend(s.poset), labeling, f, s.weight)
    rows = c._rows
    total = np.zeros(len(rows), dtype=np.uint8)
    for col in rows.T:
        total = f.add_table[total, col]
    code = c._same_kind(space, np.hstack([rows, f.neg_table[total][:, None]]))
    prov = {"construction": "extend", "inputs": [_input_summary(c)]}
    return ConstructionResult(code, space, prov)


# Construction 4: punctured code -------------------------------------------------


def punctured_code(c: Code, i: int) -> ConstructionResult:
    """Delete block i from every word; the poset loses element i."""
    s = c.space
    if s.s < 2:
        raise OutOfRange("puncturing needs at least two blocks")
    block = s.labeling.block_slice(i)  # raises OutOfRange outside 1..s
    sizes = tuple(k for j, k in enumerate(s.labeling.sizes, start=1) if j != i)
    space = BlockSpace(posets.puncture(s.poset, i), Labeling(sizes), s.field, s.weight)
    code = c._same_kind(space, np.delete(c._rows, block, axis=1))
    prov = {"construction": "puncture", "block": i, "inputs": [_input_summary(c)]}
    return ConstructionResult(code, space, prov)


# Construction 5: tensor product -------------------------------------------------


def tensor_labeling(pi1: Labeling, pi2: Labeling) -> Labeling:
    """Block (i, j) gets size k_i * l_j, flattened as (i-1)t + j."""
    return Labeling(
        tuple(a * b for a in pi1.sizes for b in pi2.sizes)
    )


@lru_cache(maxsize=256)
def _tensor_layout(pi1: Labeling, pi2: Labeling) -> tuple[np.ndarray, np.ndarray]:
    """The u and the v coordinate of each coordinate of u (x) v: block (i, j)
    holds u_{i,r} * v_{j,c} row-major, so the coordinate pairs sort by (u
    block, v block, u coordinate, v coordinate)."""
    a, b = np.indices((pi1.n, pi2.n)).reshape(2, -1)
    block1 = np.repeat(np.arange(pi1.s), pi1.sizes)
    block2 = np.repeat(np.arange(pi2.s), pi2.sizes)
    order = np.lexsort((b, a, block2[b], block1[a]))
    return a[order], b[order]


def tensor_vector(
    field: Field, pi1: Labeling, pi2: Labeling, u: Vector, v: Vector
) -> Vector:
    """The outer product of u and v in block-matrix layout.

    Block (i, j) holds the products u_{i,r} * v_{j,c} row-major (the u
    coordinate is the outer index), so its block-max weight is exactly
    max over the two blocks' coordinate pairs.  The coordinates of u and v
    are integers (exact_ints) in 0..q-1, else ValueError.
    """
    u, v = exact_ints(u, "coordinates"), exact_ints(v, "coordinates")
    if len(u) != pi1.n or len(v) != pi2.n:
        raise LengthMismatch("vectors do not match their labelings")
    if min(u + v) < 0 or max(u + v) >= field.q:
        raise ValueError(f"coordinates must lie in 0..{field.q - 1}")
    a, b = _tensor_layout(pi1, pi2)
    return tuple(field.mul_table[np.asarray(u)[a], np.asarray(v)[b]].tolist())


def tensor_code(c1: Code, c2: Code, order: str = "cartesian") -> ConstructionResult:
    """The explicit word set {u (x) v}; generally not linear, never spanned.
    The product poset's order relation, (s1 * s2)^2 for its s1 * s2
    elements, is charged before the poset is built."""
    s1, s2 = c1.space, c2.space
    if order not in ("cartesian", "lex"):
        raise ValueError(f"order must be 'cartesian' or 'lex', got {order!r}")
    charge((s1.s * s2.s) ** 2, "poset order relation s^2")
    product = posets.cartesian_product if order == "cartesian" else posets.lex_product
    p = product(s1.poset, s2.poset)
    _check_compatible(c1, c2)
    space = BlockSpace(
        p, tensor_labeling(s1.labeling, s2.labeling), s1.field, s1.weight
    )
    pairs = _word_pairs(c1, c2)
    a, b = _tensor_layout(s1.labeling, s2.labeling)
    code = Code.explicit(space, s1.field.mul_table[pairs[:, a], pairs[:, s1.n + b]])
    prov = {
        "construction": "tensor",
        "order": order,
        "inputs": [_input_summary(c1), _input_summary(c2)],
    }
    return ConstructionResult(code, space, prov)
