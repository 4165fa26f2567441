import functools
import random

import pytest

from wpbcodes.blockspace import BlockSpace, Labeling, enumeration_cap
from wpbcodes.codes import Code
from wpbcodes.constructions import (
    direct_sum_code,
    direct_sum_labeling,
    extended_code,
    plotkin_code,
    punctured_code,
    sum_map_injective,
    tensor_code,
    tensor_labeling,
    tensor_vector,
)
from wpbcodes.errors import FieldMismatch, LengthMismatch, OutOfRange, SpaceTooLarge
from wpbcodes.field import make_field
from wpbcodes import poset as P
from wpbcodes.weights import hamming_weight, lee_weight


def space(q, pos, sizes, weight="hamming"):
    f = make_field(q)
    w = lee_weight(f) if weight == "lee" else hamming_weight(f)
    return BlockSpace(pos, Labeling(tuple(sizes)), f, w)


def test_direct_sum_labeling():
    assert direct_sum_labeling(Labeling((2, 1)), Labeling((1, 3))).sizes == (2, 1, 1, 3)
    assert direct_sum_labeling(Labeling((1,)), Labeling((1,))).sizes == (1, 1)
    assert direct_sum_labeling(Labeling((1, 2)), Labeling((4,))).n == 3 + 4


def test_direct_sum_code_distances():
    c1 = Code.explicit(space(2, P.chain(2), (1, 1)), [(0, 0), (1, 1)])
    c2 = Code.explicit(space(2, P.chain(1), (1,)), [(0,), (1,)])
    assert c1.min_distance() == 2 and c2.min_distance() == 1
    disj = direct_sum_code(c1, c2, "disjoint")
    assert disj.code.size == 4
    assert disj.code.min_distance() == 1  # min{2, 1}
    lin = direct_sum_code(c1, c2, "linear")
    assert lin.code.min_distance() == 2  # d(C1)
    assert disj.space.poset == P.disjoint_union(P.chain(2), P.chain(1))
    assert lin.space.poset == P.linear_sum(P.chain(2), P.chain(1))


def test_direct_sum_linear_stays_linear():
    c1 = Code.linear(space(2, P.chain(2), (1, 1)), [(1, 1)])
    c2 = Code.linear(space(2, P.chain(1), (1,)), [(1,)])
    r = direct_sum_code(c1, c2, "disjoint")
    assert r.code.is_linear
    assert set(r.code.codewords()) == {
        (0, 0, 0),
        (1, 1, 0),
        (0, 0, 1),
        (1, 1, 1),
    }


def test_direct_sum_field_mismatch():
    c1 = Code.explicit(space(2, P.chain(1), (1,)), [(0,), (1,)])
    c2 = Code.explicit(space(3, P.chain(1), (1,)), [(0,), (1,)])
    with pytest.raises(FieldMismatch):
        direct_sum_code(c1, c2)


def test_plotkin_words_and_distance():
    c1 = Code.explicit(space(2, P.chain(2), (1, 1)), [(0, 0), (1, 1)])
    c2 = Code.explicit(space(2, P.chain(2), (1, 1)), [(0, 0), (0, 1)])
    r = plotkin_code(c1, c2, "disjoint")
    assert set(r.code.codewords()) == {
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (1, 1, 1, 1),
        (1, 1, 1, 0),
    }
    # brute-force distance table over the disjoint union of two 2-chains
    d1, d2 = c1.min_distance(), c2.min_distance()
    assert (d1, d2) == (2, 2)
    assert r.code.min_distance() == 2
    assert r.code.min_distance() >= min(d1, d2)


def test_plotkin_length_mismatch():
    c1 = Code.explicit(space(2, P.chain(2), (1, 1)), [(0, 0), (1, 1)])
    c3 = Code.explicit(space(2, P.chain(3), (1, 1, 1)), [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(LengthMismatch):
        plotkin_code(c1, c3)


def test_sum_map_injectivity():
    s = space(2, P.chain(2), (1, 1))
    c1 = Code.linear(s, [(1, 1)])
    c2 = Code.linear(s, [(0, 1)])
    assert sum_map_injective(c1, c2)  # C1 cap C2 = {0}
    assert not sum_map_injective(c1, c1)


def test_extended_code_examples():
    s = space(2, P.chain(2), (1, 1))
    c = Code.explicit(s, [(0, 0), (1, 1)])
    r = extended_code(c)
    assert set(r.code.codewords()) == {(0, 0, 0), (1, 1, 0)}
    assert r.space.poset == P.extend(P.chain(2))
    assert r.space.labeling.sizes == (1, 1, 1)

    s3 = space(3, P.chain(1), (1,), "lee")
    full = Code.linear(s3, [(1,)])
    r3 = extended_code(full)
    assert set(r3.code.codewords()) == {(0, 0), (1, 2), (2, 1)}

    # d <= d_ext <= d + M_w on both examples
    for base, ext in [(c, r.code), (full, r3.code)]:
        d, de = base.min_distance(), ext.min_distance()
        assert d <= de <= d + base.space.weight.max_weight


def test_punctured_code_examples():
    s = space(2, P.chain(3), (1, 1, 1))
    c = Code.explicit(s, [(0, 0, 0), (1, 1, 1)])
    r = punctured_code(c, 3)
    assert set(r.code.codewords()) == {(0, 0), (1, 1)}
    assert r.code.min_distance() == 2 <= c.min_distance() == 3
    with pytest.raises(OutOfRange):
        punctured_code(c, 4)

    # puncturing an all-zero block that never enters a difference ideal
    # leaves the distance unchanged: antichain (ideal = support) ...
    s4 = space(2, P.antichain(3), (1, 1, 1))
    z = Code.explicit(s4, [(0, 0, 0), (1, 0, 1)])
    assert punctured_code(z, 2).code.min_distance() == z.min_distance()
    # ... and the top block of a chain.  (A zero *middle* block of a chain
    # still contributes M_w through the ideal, so d does drop there.)
    s5 = space(2, P.chain(3), (1, 1, 1))
    zc = Code.explicit(s5, [(0, 0, 0), (1, 1, 0)])
    assert punctured_code(zc, 3).code.min_distance() == zc.min_distance()
    mid = Code.explicit(s5, [(0, 0, 0), (1, 0, 1)])
    assert punctured_code(mid, 2).code.min_distance() == mid.min_distance() - 1


def test_punctured_vector_weight_monotone():
    s = space(5, P.from_cover_relations(3, [(1, 2)]), (1, 2, 1), "lee")
    for i in (1, 2, 3):
        r = punctured_code(Code.linear(s, [(1, 2, 3, 4), (0, 1, 1, 0)]), i)
        sl = s.labeling.block_slice(i)
        for rank in range(0, s.size, 7):
            u = s.unrank(rank)
            star = u[: sl.start] + u[sl.stop :]
            assert r.space.wpb_weight(star) <= s.wpb_weight(u)


def test_tensor_labeling():
    assert tensor_labeling(Labeling((2, 1)), Labeling((1, 3))).sizes == (2, 6, 1, 3)
    assert tensor_labeling(Labeling((1, 1)), Labeling((1, 1, 1))).sizes == (1,) * 6
    assert tensor_labeling(Labeling((1, 2)), Labeling((4,))).n == 3 * 4


def test_tensor_vector_layout():
    f = make_field(5)
    pi1, pi2 = Labeling((1, 1)), Labeling((2,))
    got = tensor_vector(f, pi1, pi2, (2, 3), (1, 4))
    # G_{1,1} = (2*1, 2*4) = (2, 3); G_{2,1} = (3*1, 3*4) = (3, 2)
    assert got == (2, 3, 3, 2)
    # naive double-loop recomputation
    naive = []
    for a in (2, 3):
        for b in (1, 4):
            naive.append(a * b % 5)
    assert got == tuple(naive)


def test_tensor_vector_zero_and_ones():
    f = make_field(2)
    pi = Labeling((1, 1))
    assert tensor_vector(f, pi, pi, (0, 0), (1, 1)) == (0, 0, 0, 0)
    assert tensor_vector(f, pi, pi, (1, 1), (1, 1)) == (1, 1, 1, 1)


def test_tensor_vector_block_max_is_pairwise_max():
    f = make_field(5)
    w = lee_weight(f)
    pi1, pi2 = Labeling((2, 1)), Labeling((1, 2))
    u, v = (1, 3, 2), (4, 2, 0)
    t = tensor_vector(f, pi1, pi2, u, v)
    sp = BlockSpace(
        P.cartesian_product(P.chain(2), P.chain(2)),
        tensor_labeling(pi1, pi2),
        f,
        w,
    )
    for i in range(1, 3):
        for j in range(1, 3):
            flat = (i - 1) * 2 + j
            ub = u[pi1.block_slice(i)]
            vb = v[pi2.block_slice(j)]
            expect = max(w(f.mul(a, b)) for a in ub for b in vb)
            assert sp.block_max_weight(t, flat) == expect


def test_tensor_code_chain_chain():
    s = space(2, P.chain(2), (1, 1))
    c = Code.explicit(s, [(0, 0), (1, 1)])
    r = tensor_code(c, c, "cartesian")
    assert set(r.code.codewords()) == {(0, 0, 0, 0), (1, 1, 1, 1)}
    assert r.code.kind == "explicit"
    # weight of the all-ones word in the diamond: 1 + 3 * M_w = 4
    assert r.space.wpb_weight((1, 1, 1, 1)) == 4
    d1 = d2 = 2  # Hamming-poset min distances of the inputs
    d = r.code.min_distance()
    assert (d1 * d2 - 1) * 1 + 1 <= d <= d1 * d2 * 1
    assert d == 4


def test_tensor_code_antichain_antichain():
    s = space(2, P.antichain(2), (1, 1))
    c = Code.explicit(s, [(0, 0), (1, 1)])
    r = tensor_code(c, c, "cartesian")
    assert r.code.min_distance() == 4  # d1*d2*m_w
    assert r.space.poset == P.antichain(4)


def test_tensor_code_dedups():
    s = space(2, P.chain(2), (1, 1))
    c = Code.explicit(s, [(0, 0), (1, 1)])
    r = tensor_code(c, c)
    assert r.code.size == 2  # all u (x) 0 collapse to the zero word
    assert r.code.size <= c.size * c.size


def test_construction_provenance():
    s = space(2, P.chain(2), (1, 1))
    c = Code.explicit(s, [(0, 0), (1, 1)])
    r = tensor_code(c, c, "lex")
    assert r.provenance["construction"] == "tensor"
    assert r.provenance["order"] == "lex"
    assert r.code.space is r.space


_WORD_PRODUCTS = {
    "tensor": lambda c1, c2: tensor_code(c1, c2, "cartesian"),
    "direct-sum": lambda c1, c2: direct_sum_code(c1, c2, "disjoint"),
    "plotkin": lambda c1, c2: plotkin_code(c1, c2, "linear"),
    "sum-map": sum_map_injective,
}


@pytest.mark.parametrize("build", _WORD_PRODUCTS)
def test_word_products_are_charged_first(build, monkeypatch):
    """Each construction that builds a word from every pair of codewords
    charges the |C1| * |C2| words before it lists a codeword or calls the
    pair kernel."""
    s = space(2, P.chain(2), (1, 1))
    c1 = Code.explicit(s, [(0, 0), (1, 1), (0, 1)])
    c2 = Code.explicit(s, [(0, 0), (1, 0)])

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the charge")

    monkeypatch.setattr(Code, "codeword_array", refuse)
    monkeypatch.setattr(BlockSpace, "pair_weights", refuse)
    with enumeration_cap(5), pytest.raises(SpaceTooLarge, match="words = 6 exceeds"):
        _WORD_PRODUCTS[build](c1, c2)
    monkeypatch.undo()
    with enumeration_cap(6):
        _WORD_PRODUCTS[build](c1, c2)


def _four_loop_tensor(f, pi1, pi2, u, v):
    """The block layout written out: block (i, j) holds u_{i,r} * v_{j,c}
    row-major, blocks in the order (1, 1), (1, 2), ..."""
    out = []
    for i in range(1, pi1.s + 1):
        for j in range(1, pi2.s + 1):
            for a in u[pi1.block_slice(i)]:
                for b in v[pi2.block_slice(j)]:
                    out.append(f.mul(a, b))
    return tuple(out)


def _random_linear(rng, q, n):
    """A linear code on a random chain or antichain over a random labeling
    of n coordinates, from 0..kmax random (possibly dependent) rows, with
    q^kmax <= 25."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(2, n - sum(sizes))))
    pos = rng.choice([P.chain, P.antichain])(len(sizes))
    kmax = max(k for k in range(n + 1) if q**k <= 25)
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, kmax))]
    return Code.linear(space(q, pos, sizes), rows)


def test_constructions_match_scalar_reference():
    """On seeded random linear pairs over GF(2), GF(3), GF(4) and GF(5),
    k = 0 included, every construction's word set equals a reference built
    from codewords() with the scalar field operations, and the explicit
    copies of the inputs give the same words.  Linear inputs give linear
    results, except under the tensor product."""
    rng = random.Random(11)
    seen = set()
    for trial in range(48):
        q = (2, 3, 4, 5)[trial % 4]
        f = make_field(q)
        n = rng.randint(1, 4)
        c1 = _random_linear(rng, q, n)
        c2 = _random_linear(rng, q, rng.choice([n, rng.randint(1, 3)]))
        seen.add((q, c1.dimension == 0 or c2.dimension == 0))
        w1, w2 = c1.codewords(), c2.codewords()
        pi1, pi2 = c1.space.labeling, c2.space.labeling
        reference = {
            "direct-sum": {u + v for u in w1 for v in w2},
            "tensor": {_four_loop_tensor(f, pi1, pi2, u, v) for u in w1 for v in w2},
        }
        builds = {
            "direct-sum": lambda a, b: direct_sum_code(a, b, rng.choice(["disjoint", "linear"])),
            "tensor": lambda a, b: tensor_code(a, b, rng.choice(["cartesian", "lex"])),
        }
        if c1.space.n == c2.space.n:
            sums = [tuple(map(f.add, u, v)) for u in w1 for v in w2]
            reference["plotkin"] = {u + tuple(map(f.add, u, v)) for u in w1 for v in w2}
            builds["plotkin"] = lambda a, b: plotkin_code(a, b, rng.choice(["disjoint", "linear"]))
            assert sum_map_injective(c1, c2) == (len(set(sums)) == len(sums))
        e1, e2 = Code.explicit(c1.space, w1), Code.explicit(c2.space, w2)
        for name, build in builds.items():
            for a, b in [(c1, c2), (e1, e2), (c1, e2)]:
                code = build(a, b).code
                assert set(code.codewords()) == reference[name], (name, trial)
                assert code.is_linear == (a.is_linear and b.is_linear and name != "tensor")
        u, v = rng.choice(w1), rng.choice(w2)
        assert tensor_vector(f, pi1, pi2, u, v) == _four_loop_tensor(f, pi1, pi2, u, v)

        singles = [
            (lambda c: extended_code(c).code, {u + (f.neg(functools.reduce(f.add, u, 0)),) for u in w1}),
            (lambda c: c.with_weight(hamming_weight(f)), set(w1)),
        ]
        for i in range(1, c1.space.s + 1) if c1.space.s > 1 else ():
            sl = pi1.block_slice(i)
            punctured = {u[: sl.start] + u[sl.stop :] for u in w1}
            singles.append((lambda c, i=i: punctured_code(c, i).code, punctured))
        for build, expect in singles:
            for a in (c1, e1):
                code = build(a)
                assert set(code.codewords()) == expect, trial
                assert code.kind == a.kind
    assert seen == {(q, zero) for q in (2, 3, 4, 5) for zero in (False, True)}


def test_tensor_vector_rejects_mismatched_lengths():
    f = make_field(3)
    with pytest.raises(LengthMismatch):
        tensor_vector(f, Labeling((1, 1)), Labeling((2,)), (1, 2, 0), (1, 1))
