import itertools
import random

import numpy as np
import pytest

from wpbcodes.blockspace import BlockSpace, Labeling
from wpbcodes import codes as codes_module
from wpbcodes.codes import Code
from wpbcodes.errors import NotAChain, NotLinear, TooFewWords
from wpbcodes.field import make_field
from wpbcodes import poset as P
from wpbcodes.weights import custom_weight, hamming_weight, lee_weight


def space(q, pos, sizes, weight="hamming"):
    f = make_field(q)
    w = lee_weight(f) if weight == "lee" else hamming_weight(f)
    return BlockSpace(pos, Labeling(tuple(sizes)), f, w)


def rep3(weight="hamming", pos=None):
    s = space(2, pos or P.chain(3), (1, 1, 1), weight)
    return Code.explicit(s, [(0, 0, 0), (1, 1, 1)])


def test_codewords_linear_span():
    s = space(2, P.antichain(3), (1, 1, 1))
    c = Code.linear(s, [(1, 1, 0), (0, 1, 1)])
    assert c.size == 4
    assert set(c.codewords()) == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}


def test_codewords_dependent_rows_reduce():
    s = space(2, P.antichain(3), (1, 1, 1))
    c = Code.linear(s, [(1, 1, 0), (1, 1, 0)])
    assert c.dimension == 1 and c.size == 2


def test_codewords_explicit():
    c = rep3()
    assert c.codewords() == [(0, 0, 0), (1, 1, 1)]


def test_min_distance_examples():
    assert rep3().min_distance() == 3  # chain: 1 + 2*M_w
    assert rep3(pos=P.antichain(3)).min_distance() == 3  # plain Hamming
    s = space(5, P.chain(2), (2, 1), "lee")
    c = Code.linear(s, [(1, 3, 4)])
    # brute force over the five codewords gives 3, attained at (4,2,1)
    assert c.min_distance() == 3
    words = c.codewords()
    assert (4, 2, 1) in words
    assert s.wpb_weight((4, 2, 1)) == 3


def test_min_distance_needs_two_words():
    s = space(2, P.chain(2), (1, 1))
    with pytest.raises(TooFewWords):
        Code.explicit(s, [(0, 0)]).min_distance()
    with pytest.raises(TooFewWords):
        Code.linear(s, []).min_distance()


def test_covering_radius_examples():
    s = space(2, P.chain(3), (1, 1, 1))
    full = Code.linear(s, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert full.covering_radius() == 0
    assert rep3().covering_radius() == 2
    assert rep3(pos=P.antichain(3)).covering_radius() == 1


def test_packing_radius_examples():
    assert rep3().packing_radius() == 2
    assert rep3(pos=P.antichain(3)).packing_radius() == 1
    s = space(2, P.chain(2), (1, 1))
    with pytest.raises(TooFewWords):
        Code.explicit(s, [(1, 1), (1, 1)]).packing_radius()


def test_perfectness_examples():
    c = rep3()
    assert c.is_r_perfect(2)
    assert not c.is_r_perfect(1)  # balls of size 2 each cover only 4 of 8
    assert c.is_perfect()
    s = space(2, P.chain(2), (1, 1))
    full = Code.linear(s, [(1, 0), (0, 1)])
    assert full.is_r_perfect(0)
    # radius-2 balls around 000 and 111 partition the chain space
    ball0 = set(c.space.ball((0, 0, 0), 2))
    ball1 = set(c.space.ball((1, 1, 1), 2))
    assert ball0 == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}
    assert ball0 | ball1 == set(map(tuple, c.space.all_vectors().tolist()))
    assert not ball0 & ball1


def test_coset_table_examples():
    s = space(2, P.chain(3), (1, 1, 1))
    c = Code.linear(s, [(1, 1, 1)])
    t = c.coset_table()
    assert sorted(t.weights) == [0, 1, 2, 2]
    assert t.max_weight == 2
    assert t.max_weight == c.covering_radius()
    # leaders actually lie in distinct cosets and have their coset's weight
    for leader, w in zip(t.leaders, t.weights):
        assert s.wpb_weight(leader) == w
    full = Code.linear(s, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ft = full.coset_table()
    assert ft.weights == (0,)
    zero = Code.linear(s, [])
    zt = zero.coset_table()
    assert len(zt.leaders) == 8
    assert zt.max_weight == max(s.batch_weights(s.all_vectors()))


def test_coset_table_not_linear():
    with pytest.raises(NotLinear):
        rep3().coset_table()


def test_coset_index_consistency():
    s = space(3, P.chain(2), (1, 1), "lee")
    c = Code.linear(s, [(1, 2)])
    t = c.coset_table()
    for v in itertools.product(range(3), repeat=2):
        idx = c.coset_index(v)
        # v and its leader differ by a codeword
        diff = s.sub(v, t.leaders[idx])
        assert diff in set(c.codewords())
        assert s.wpb_weight(t.leaders[idx]) <= s.wpb_weight(v)


def test_project_and_trailing_full_index():
    c = rep3()
    assert c.project(2) == {(0,), (1,)}
    assert c.trailing_full_index() == 2  # C_3 full, joint (C_2, C_3) is not
    s = c.space
    full = Code.linear(s, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert full.trailing_full_index() == 0
    zero = Code.linear(s, [])
    assert zero.trailing_full_index() == 3
    with pytest.raises(NotAChain):
        rep3(pos=P.antichain(3)).trailing_full_index()


def test_max_poset_weight_examples():
    c = rep3()
    h = hamming_weight(make_field(2))
    assert c.max_poset_weight(h) == 3
    s = c.space
    assert Code.linear(s, []).max_poset_weight(h) == 0
    s21 = space(2, P.chain(2), (2, 1))
    c21 = Code.linear(s21, [(1, 1, 0)])
    assert c21.max_poset_weight(hamming_weight(make_field(2))) == 1


def test_with_weight_sibling():
    s = space(5, P.chain(2), (1, 1), "lee")
    c = Code.linear(s, [(1, 2)])
    h = c.with_weight(hamming_weight(make_field(5)))
    assert h.space.weight.name == "hamming"
    assert set(h.codewords()) == set(c.codewords())


def test_linear_min_weight_equals_min_pairwise():
    rng = random.Random(11)
    for _ in range(25):
        q = rng.choice([2, 3, 5])
        s_count = rng.randrange(1, 4)
        pos = list(P.all_posets(s_count))[rng.randrange(len(list(P.all_posets(s_count))))]
        sizes = tuple(rng.randrange(1, 3) for _ in range(s_count))
        sp = space(q, pos, sizes, rng.choice(["hamming", "lee"]) if q != 4 else "hamming")
        if sp.size > 4096:
            continue
        dim = rng.randrange(1, min(sp.n, 3) + 1)
        rows = [[rng.randrange(q) for _ in range(sp.n)] for _ in range(dim)]
        c = Code.linear(sp, rows)
        if c.size < 2:
            continue
        words = c.codewords()
        pairwise = min(
            sp.wpb_distance(u, v) for u, v in itertools.combinations(words, 2)
        )
        assert c.min_distance() == pairwise
        # translation invariance oracle: min nonzero weight
        assert pairwise == min(sp.wpb_weight(w) for w in words if any(w))


def test_packing_radius_below_min_distance():
    rng = random.Random(23)
    for _ in range(15):
        q = rng.choice([2, 3])
        sp = space(q, P.chain(2), (1, rng.randrange(1, 3)))
        rows = [[rng.randrange(q) for _ in range(sp.n)]]
        c = Code.linear(sp, rows)
        if c.size < 2:
            continue
        assert c.packing_radius() < c.min_distance()


def test_covering_radius_equals_max_coset_weight():
    rng = random.Random(31)
    for _ in range(20):
        q = rng.choice([2, 3, 5])
        s_count = rng.randrange(1, 4)
        all_p = list(P.all_posets(s_count))
        pos = all_p[rng.randrange(len(all_p))]
        sizes = tuple(rng.randrange(1, 3) for _ in range(s_count))
        sp = space(q, pos, sizes, "lee" if q != 2 else "hamming")
        if sp.size > 1024:
            continue
        dim = rng.randrange(0, min(sp.n, 3) + 1)
        rows = [[rng.randrange(q) for _ in range(sp.n)] for _ in range(dim)]
        c = Code.linear(sp, rows)
        explicit = Code.explicit(sp, c.codewords()).covering_radius()
        assert c.covering_radius() == c.coset_table().max_weight == explicit


def _random_linear_code(rng):
    """A seeded linear code over q in {2, 3, 4, 5} on a chain, antichain or
    tree poset, under the Hamming, Lee or a custom weight, of random rank."""
    q = rng.choice([2, 3, 4, 5])
    s_count = rng.randrange(1, 4)
    pos = rng.choice([
        P.chain(s_count),
        P.antichain(s_count),
        P.from_cover_relations(s_count, [(i // 2, i) for i in range(2, s_count + 1)]),
    ])
    while True:
        sizes = tuple(rng.randrange(1, 3) for _ in range(s_count))
        if q ** sum(sizes) <= 256:
            break
    f = make_field(q)
    kind = rng.choice(["hamming", "lee", "custom"])
    if kind == "lee" and q != 4:
        w = lee_weight(f)
    elif kind == "hamming":
        w = hamming_weight(f)
    else:  # 1 on +-1, 2 elsewhere: symmetric, and 2 <= w(x) + w(y) for x, y != 0
        w = custom_weight(f, [0] + [1 if x in (1, f.neg(1)) else 2 for x in range(1, q)])
    sp = BlockSpace(pos, Labeling(sizes), f, w)
    k = rng.randrange(0, sp.n + 1)
    while True:
        c = Code.linear(sp, [[rng.randrange(q) for _ in range(sp.n)] for _ in range(k)])
        if c.dimension == k:
            return c


@pytest.mark.parametrize("chunk", [None, 1, 5])
def test_coset_pass_matches_explicit_scan_and_brute_force(chunk, monkeypatch):
    """The coset-major pass against the explicit word-set scan, a dense
    distance-count oracle for r-perfectness, and brute-force coset leaders
    (first minimum-weight vector in odometer order per coset_index, under
    the scalar weight).  A small _CHUNK forces codeword tiling (q^k > _CHUNK)."""
    if chunk is not None:
        monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    limit = chunk or codes_module._CHUNK
    rng = random.Random(97)
    dims = set()
    for _ in range(40):
        code = _random_linear_code(rng)
        sp, cw = code.space, code.codeword_array()
        dims.add((code.dimension == 0, code.dimension == sp.n, code.size > limit))
        tiles: list[int] = []
        kernel = sp.batch_weights
        sp.batch_weights = lambda a: tiles.append(len(a)) or kernel(a)
        covering = code.covering_radius()
        packing = code.packing_radius() if code.size >= 2 else None
        top = sp.weight.max_weight * sp.s
        perfect = [code.is_r_perfect(r) for r in range(top + 1)]
        table = Code.linear(sp, code.generators).coset_table()
        del sp.batch_weights
        assert tiles and max(tiles) <= limit

        oracle = Code.explicit(sp, code.codewords())
        assert covering == oracle.covering_radius() == table.max_weight
        allv = sp.all_vectors()
        dist = sp.batch_weights(
            sp.field.sub_table[allv[:, None, :], cw[None, :, :]].reshape(-1, sp.n)
        ).reshape(len(allv), len(cw))
        if code.size >= 2:
            assert packing == oracle.packing_radius() == np.sort(dist, axis=1)[:, 1].min() - 1
            assert code.is_perfect() == all((dist <= packing).sum(axis=1) == 1)
        assert perfect == [bool(((dist <= r).sum(axis=1) == 1).all()) for r in range(top + 1)]

        best: dict[int, tuple[int, tuple]] = {}
        for v in map(tuple, allv.tolist()):
            idx, w = code.coset_index(v), sp.wpb_weight(v)
            if idx not in best or w < best[idx][0]:
                best[idx] = (w, v)
        assert sorted(best) == list(range(len(table.leaders)))
        assert table.weights == tuple(best[i][0] for i in sorted(best))
        assert table.leaders == tuple(best[i][1] for i in sorted(best))
    # k = 0, k = n and q^k > _CHUNK all occur
    assert {d[0] for d in dims} == {d[1] for d in dims} == {True, False}
    if chunk is not None:
        assert any(d[2] for d in dims)


@pytest.mark.parametrize("chunk", [1, 5])
def test_explicit_pass_matches_scalar_brute_force(chunk, monkeypatch):
    """The explicit word-set pass and the pairwise minimum distance against
    scalar distances.  A small _CHUNK splits the words over several tiles,
    the vectors over many and the word pairs across rows; no tile may
    exceed it."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    rng = random.Random(53)
    sizes = set()
    for _ in range(20):
        sp = _random_linear_code(rng).space
        if sp.size > 128:
            continue
        allv = [sp.unrank(r) for r in range(sp.size)]
        code = Code.explicit(sp, rng.sample(allv, rng.randrange(1, min(sp.size, 7) + 1)))
        sizes.add(code.size)
        tiles: list[int] = []
        kernel = sp.batch_weights
        sp.batch_weights = lambda a: tiles.append(len(a)) or kernel(a)
        covering = code.covering_radius()
        packing = code.packing_radius() if code.size >= 2 else None
        mindist = code.min_distance() if code.size >= 2 else None
        top = sp.weight.max_weight * sp.s
        perfect = [code.is_r_perfect(r) for r in range(top + 1)]
        del sp.batch_weights
        assert tiles and max(tiles) <= chunk

        dist = [sorted(sp.wpb_distance(v, c) for c in code.words) for v in allv]
        assert covering == max(d[0] for d in dist)
        if code.size >= 2:
            assert packing == min(d[1] for d in dist) - 1
            pairs = itertools.combinations(code.words, 2)
            assert mindist == min(sp.wpb_distance(u, v) for u, v in pairs)
        else:
            with pytest.raises(TooFewWords):
                code.packing_radius()
        assert perfect == [all(sum(x <= r for x in d) == 1 for d in dist) for r in range(top + 1)]
    assert 1 in sizes and max(sizes) > chunk
