"""Five ways to build a new code (and its block space) from given ones.

Each construction returns a ConstructionResult bundling the resultant code,
its space (new poset + new labeling, same field and weight) and a small
provenance record.  Results stay linear whenever all inputs are linear,
except the tensor product, whose word set {u (x) v} is generally not a
subspace and is always stored explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockspace import BlockSpace, Labeling, Vector, charge
from .codes import Code
from .errors import FieldMismatch, LengthMismatch, OutOfRange, WeightMismatch
from .field import Field
from . import poset as posets


@dataclass(frozen=True)
class ConstructionResult:
    code: Code
    space: BlockSpace
    provenance: dict

    def __post_init__(self):
        assert self.code.space is self.space


def _check_compatible(c1: Code, c2: Code) -> None:
    if c1.space.field != c2.space.field:
        raise FieldMismatch(
            f"codes live over GF({c1.space.q}) and GF({c2.space.q})"
        )
    if c1.space.weight.table != c2.space.weight.table:
        raise WeightMismatch("codes use different weight tables")


def _input_summary(c: Code) -> dict:
    return {"q": c.space.q, "n": c.space.n, "words": c.size, "kind": c.kind}


# Construction 1: direct sum ---------------------------------------------------


def direct_sum_labeling(pi1: Labeling, pi2: Labeling) -> Labeling:
    """Concatenated block sizes: the labeling of the sum structure."""
    return Labeling(pi1.sizes + pi2.sizes)


def _sum_order_poset(p1, p2, order: str):
    if order == "disjoint":
        return posets.disjoint_union(p1, p2)
    if order == "linear":
        return posets.linear_sum(p1, p2)
    raise ValueError(f"order must be 'disjoint' or 'linear', got {order!r}")


def direct_sum_code(c1: Code, c2: Code, order: str = "disjoint") -> ConstructionResult:
    """All concatenations (u', u'') over the combined poset P (+) Q or P (u) Q."""
    s1, s2 = c1.space, c2.space
    poset = _sum_order_poset(s1.poset, s2.poset, order)
    _check_compatible(c1, c2)
    space = BlockSpace(
        poset,
        direct_sum_labeling(s1.labeling, s2.labeling),
        s1.field,
        s1.weight,
    )
    if c1.is_linear and c2.is_linear:
        zero1, zero2 = s1.zero(), s2.zero()
        rows = [g + zero2 for g in c1.generators] + [zero1 + h for h in c2.generators]
        code = Code.linear(space, rows)
    else:
        charge(c1.size * c2.size, "|C1| * |C2| words")
        code = Code.explicit(
            space, [u + v for u in c1.codewords() for v in c2.codewords()]
        )
    prov = {
        "construction": "direct-sum",
        "order": order,
        "inputs": [_input_summary(c1), _input_summary(c2)],
    }
    return ConstructionResult(code, space, prov)


# Construction 2: (u' | u' + u'') ----------------------------------------------


def plotkin_code(c1: Code, c2: Code, order: str = "disjoint") -> ConstructionResult:
    """Words (u', u' + u'') for u' in C1, u'' in C2; requires equal ambient length."""
    s1, s2 = c1.space, c2.space
    poset = _sum_order_poset(s1.poset, s2.poset, order)
    _check_compatible(c1, c2)
    if s1.n != s2.n:
        raise LengthMismatch(
            f"(u'|u'+u'') needs equal ambient lengths, got {s1.n} and {s2.n}"
        )
    space = BlockSpace(
        poset,
        direct_sum_labeling(s1.labeling, s2.labeling),
        s1.field,
        s1.weight,
    )
    if c1.is_linear and c2.is_linear:
        zero = s1.zero()
        rows = [g + g for g in c1.generators] + [zero + h for h in c2.generators]
        code = Code.linear(space, rows)
    else:
        charge(c1.size * c2.size, "|C1| * |C2| words")
        code = Code.explicit(
            space,
            [u + s1.add(u, v) for u in c1.codewords() for v in c2.codewords()],
        )
    prov = {
        "construction": "plotkin",
        "order": order,
        "inputs": [_input_summary(c1), _input_summary(c2)],
    }
    return ConstructionResult(code, space, prov)


def sum_map_injective(c1: Code, c2: Code) -> bool:
    """Whether (u', u'') -> u' + u'' is injective on C1 x C2.

    This is the reading of the (u'|u'+u'') refinement hypothesis: no two
    distinct pairs share a sum.  For linear inputs it is equivalent to
    C1 and C2 intersecting only in 0.
    """
    charge(c1.size * c2.size, "|C1| * |C2| words")
    words1, words2 = c1.codewords(), c2.codewords()
    space = c1.space
    sums = {space.add(u, v) for u in words1 for v in words2}
    return len(sums) == len(words1) * len(words2)


# Construction 3: extended code ------------------------------------------------


def extended_code(c: Code) -> ConstructionResult:
    """Append one coordinate making the sum of all n+1 coordinates zero.

    The new block s+1 has size 1 and is isolated in the extended poset.
    """
    s = c.space
    f = s.field
    space = BlockSpace(
        posets.extend(s.poset),
        Labeling(s.labeling.sizes + (1,)),
        f,
        s.weight,
    )

    def parity(u: Vector) -> int:
        acc = 0
        for x in u:
            acc = f.add(acc, x)
        return f.neg(acc)

    if c.is_linear:
        rows = [g + (parity(g),) for g in c.generators]
        code = Code.linear(space, rows)
    else:
        code = Code.explicit(space, [u + (parity(u),) for u in c.codewords()])
    prov = {"construction": "extend", "inputs": [_input_summary(c)]}
    return ConstructionResult(code, space, prov)


# Construction 4: punctured code -------------------------------------------------


def punctured_code(c: Code, i: int) -> ConstructionResult:
    """Delete block i from every word; the poset loses element i."""
    s = c.space
    if s.s < 2:
        raise OutOfRange("puncturing needs at least two blocks")
    if not 1 <= i <= s.s:
        raise OutOfRange(f"block {i} outside 1..{s.s}")
    sl = s.labeling.block_slice(i)
    sizes = tuple(k for j, k in enumerate(s.labeling.sizes, start=1) if j != i)
    space = BlockSpace(posets.puncture(s.poset, i), Labeling(sizes), s.field, s.weight)

    def drop(u: Vector) -> Vector:
        return u[: sl.start] + u[sl.stop :]

    if c.is_linear:
        code = Code.linear(space, [drop(g) for g in c.generators])
    else:
        code = Code.explicit(space, [drop(u) for u in c.codewords()])
    prov = {"construction": "puncture", "block": i, "inputs": [_input_summary(c)]}
    return ConstructionResult(code, space, prov)


# Construction 5: tensor product -------------------------------------------------


def tensor_labeling(pi1: Labeling, pi2: Labeling) -> Labeling:
    """Block (i, j) gets size k_i * l_j, flattened as (i-1)t + j."""
    return Labeling(
        tuple(a * b for a in pi1.sizes for b in pi2.sizes)
    )


def tensor_vector(
    field: Field, pi1: Labeling, pi2: Labeling, u: Vector, v: Vector
) -> Vector:
    """The outer product of u and v in block-matrix layout.

    Block (i, j) holds the products u_{i,r} * v_{j,c} row-major (the u
    coordinate is the outer index), so its block-max weight is exactly
    max over the two blocks' coordinate pairs.
    """
    if len(u) != pi1.n or len(v) != pi2.n:
        raise LengthMismatch("vectors do not match their labelings")
    out: list[int] = []
    for i in range(1, pi1.s + 1):
        ublock = u[pi1.block_slice(i)]
        for j in range(1, pi2.s + 1):
            vblock = v[pi2.block_slice(j)]
            for a in ublock:
                for b in vblock:
                    out.append(field.mul(a, b))
    return tuple(out)


def tensor_code(c1: Code, c2: Code, order: str = "cartesian") -> ConstructionResult:
    """The explicit word set {u (x) v}; generally not linear, never spanned."""
    s1, s2 = c1.space, c2.space
    if order == "cartesian":
        p = posets.cartesian_product(s1.poset, s2.poset)
    elif order == "lex":
        p = posets.lex_product(s1.poset, s2.poset)
    else:
        raise ValueError(f"order must be 'cartesian' or 'lex', got {order!r}")
    _check_compatible(c1, c2)
    space = BlockSpace(
        p, tensor_labeling(s1.labeling, s2.labeling), s1.field, s1.weight
    )
    charge(c1.size * c2.size, "|C1| * |C2| words")
    words = [
        tensor_vector(s1.field, s1.labeling, s2.labeling, u, v)
        for u in c1.codewords()
        for v in c2.codewords()
    ]
    code = Code.explicit(space, words)
    prov = {
        "construction": "tensor",
        "order": order,
        "inputs": [_input_summary(c1), _input_summary(c2)],
    }
    return ConstructionResult(code, space, prov)
