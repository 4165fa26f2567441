import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbcodes import blockspace
from wpbcodes.checks import verify_suite
from wpbcodes.blockspace import (
    _CHUNK,
    DEFAULT_MAX_SPACE,
    BlockSpace,
    Labeling,
    enumeration_cap,
    format_vector,
    odometer_table,
    parse_vector,
)
from wpbcodes.errors import LengthMismatch, OutOfRange, SpaceTooLarge
from wpbcodes.field import make_field
from wpbcodes.instances import random_linear_code
from wpbcodes import poset as P
from wpbcodes.weights import custom_weight, hamming_weight, lee_weight


def space(q, pos, sizes, weight="hamming"):
    f = make_field(q)
    if weight == "lee":
        w = lee_weight(f)
    elif weight == "custom":  # 1 on +-1, 2 elsewhere
        w = custom_weight(f, [0] + [1 if x in (1, f.neg(1)) else 2 for x in range(1, q)])
    else:
        w = hamming_weight(f)
    return BlockSpace(pos, Labeling(tuple(sizes)), f, w)


@pytest.fixture
def chain21_lee5():
    return space(5, P.chain(2), (2, 1), "lee")


def test_labeling_offsets():
    lab = Labeling((2, 1, 3))
    assert lab.n == 6 and lab.s == 3
    assert lab.offsets == (0, 2, 3)
    assert lab.block_slice(2) == slice(2, 3)
    with pytest.raises(ValueError):
        Labeling((2, 0))


def test_block_support(chain21_lee5):
    s = chain21_lee5
    assert s.block_support((0, 0, 0)) == frozenset()
    assert s.block_support((1, 3, 0)) == {1}
    assert s.block_support((0, 0, 4)) == {2}
    with pytest.raises(LengthMismatch):
        s.block_support((1, 2))


def test_block_max_weight(chain21_lee5):
    s = chain21_lee5
    assert s.block_max_weight((1, 3, 0), 1) == 2  # max(lee(1), lee(3)) = max(1, 2)
    assert s.block_max_weight((0, 0, 0), 1) == 0
    h = space(5, P.chain(2), (2, 1), "hamming")
    assert h.block_max_weight((0, 4, 0), 1) == 1


def test_wpb_weight_examples(chain21_lee5):
    s = chain21_lee5
    # support {1}: ideal {1}, maximal {1} -> W_1 = 2
    assert s.wpb_weight((1, 3, 0)) == 2
    # support {2}: ideal {1,2}, maximal {2} -> lee(4) + M_w = 1 + 2
    assert s.wpb_weight((0, 0, 4)) == 3
    # antichain: both blocks maximal -> 2 + 1
    a = space(5, P.antichain(2), (2, 1), "lee")
    assert a.wpb_weight((1, 3, 4)) == 3
    assert s.wpb_weight(s.zero()) == 0


def test_wpb_distance_examples():
    s3 = space(2, P.chain(3), (1, 1, 1))
    assert s3.wpb_distance((0, 0, 0), (0, 0, 0)) == 0
    # I = {1,2,3}, M = {3}: 1 + 2 * M_w
    assert s3.wpb_distance((0, 0, 0), (1, 1, 1)) == 3
    a2 = space(2, P.antichain(2), (1, 1))
    assert a2.wpb_distance((0, 1), (1, 0)) == 2  # Hamming distance


def test_ball_examples(chain21_lee5):
    s2 = space(5, P.chain(2), (1, 1), "lee")
    b = s2.ball((0, 0), 2)
    # nonzero second coordinate costs at least M_w + m_w = 3
    assert sorted(b) == [(a, 0) for a in range(5)]
    assert s2.ball((2, 3), 0) == [(2, 3)]
    assert s2.ball_size((0, 0), 2) == 5


def test_ball_matches_a_scan_of_all_vectors(monkeypatch):
    """ball lists, in odometer order, the vectors of all_vectors within the
    radius of the center under wpb_distance: seeded posets, block sizes,
    nonzero centers and radii over GF(2), GF(3), GF(4) and GF(5) under
    Hamming, Lee and a custom weight.  At a _CHUNK of 16 most spaces have
    no block-max table and F_q^n spans several chunks."""
    rng = random.Random(19)
    posets = [p for k in (1, 2, 3) for p in P.all_posets(k)]
    tabulated = set()
    for chunk in (_CHUNK, 16):
        monkeypatch.setattr(blockspace, "_CHUNK", chunk)
        for q, weight in ((2, "hamming"), (3, "lee"), (4, "custom"), (5, "lee"), (5, "custom")):
            for _ in range(3):
                pos = rng.choice(posets)
                sizes = [rng.randint(1, 2) for _ in range(pos.s)]
                while q ** sum(sizes) > 1000:
                    sizes[sizes.index(max(sizes))] -= 1
                s = space(q, pos, sizes, weight)
                center = tuple(rng.randrange(q) for _ in range(s.n))
                radius = rng.randint(0, s.s * s.weight.max_weight)
                want = [v for v in map(tuple, s.all_vectors().tolist())
                        if s.wpb_distance(center, v) <= radius]
                assert s.ball(center, radius) == want
                tabulated.add(s._kernel.radix is not None)
    assert tabulated == {True, False}


def test_ball_size_center_independent(chain21_lee5):
    s = chain21_lee5
    for r in range(0, 7):
        base = s.ball_size(s.zero(), r)
        for center in [(1, 3, 0), (0, 0, 4), (4, 4, 4)]:
            assert s.ball_size(center, r) == base


def test_space_too_large_guard():
    s = space(2, P.chain(5), (1, 1, 1, 1, 1))
    with enumeration_cap(16), pytest.raises(SpaceTooLarge):
        s.ball(s.zero(), 1)


def test_enumeration_cap_is_scoped():
    """enumeration_cap sets the cap for its with block only: blocks nest,
    and the previous cap comes back on leaving one, also when its body
    raises."""
    cap = blockspace._cap.get
    assert cap() == DEFAULT_MAX_SPACE
    with enumeration_cap(8):
        with enumeration_cap(3):
            blockspace.charge(3, "pairs")
            with pytest.raises(SpaceTooLarge, match="pairs = 4 exceeds the enumeration cap 3"):
                blockspace.charge(4, "pairs")
        assert cap() == 8
    with pytest.raises(KeyError), enumeration_cap(8):
        raise KeyError
    assert cap() == DEFAULT_MAX_SPACE
    blockspace.charge(DEFAULT_MAX_SPACE, "vectors")


TREE6 = P.from_cover_relations(6, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])


def _histogram(s):
    """#{u : w(u) = r} for r = 0..s * max_weight, by enumeration."""
    top = s.s * s.weight.max_weight
    return np.bincount(s.batch_weights(s.all_vectors()), minlength=top + 1).tolist()


def test_weight_spectrum_matches_enumeration(monkeypatch):
    """weight_spectrum, whole and truncated at every radius, against the
    batch_weights histogram of the whole space: every 3-element poset,
    chains, antichains, TREE6, cartesian and lex products and disjoint
    chains, over q in {2, 3, 4, 5, 7} under the Hamming, Lee and a custom
    weight, blocks of 1-3 coordinates.  Blocks split into several lookup
    pieces (a q=2 block of 13, or _PIECE_CODES at 1) change the oracle's
    path, not the DP.  ball_size equals len(ball) at seeded centres."""
    shapes = [
        *P.all_posets(3),
        P.chain(4),
        P.antichain(4),
        TREE6,
        P.cartesian_product(P.chain(2), P.chain(2)),
        P.cartesian_product(P.chain(2), P.antichain(2)),
        P.lex_product(P.chain(2), P.antichain(2)),
        P.lex_product(P.antichain(2), P.chain(2)),
        P.disjoint_union(P.disjoint_union(P.chain(2), P.chain(2)), P.chain(2)),
    ]
    kinds = [(2, "hamming"), (3, "lee"), (4, "custom"), (5, "lee"), (7, "custom"),
             (3, "custom"), (5, "hamming"), (7, "lee"), (4, "hamming"), (2, "custom")]
    rng = random.Random(23)
    cases = []
    for i, pos in enumerate(shapes):
        for q, wname in (kinds[i % 10], kinds[(i + 3) % 10]):
            sizes = [rng.randint(1, 3) for _ in range(pos.s)]
            while q ** sum(sizes) > 1 << 12 and max(sizes) > 1:
                sizes[sizes.index(max(sizes))] -= 1
            if q**pos.s <= 1 << 14:
                cases.append((pos, sizes, q, wname, blockspace._PIECE_CODES))
    cases += [
        (P.chain(2), (13, 1), 2, "hamming", blockspace._PIECE_CODES),
        (TREE6, (3, 1, 2, 1, 2, 1), 2, "hamming", 1),
        (P.chain(3), (2, 1, 3), 3, "lee", 1),
        (P.antichain(2), (3, 2), 5, "custom", 1),
    ]
    seen = set()
    for pos, sizes, q, wname, piece_codes in cases:
        monkeypatch.setattr(blockspace, "_PIECE_CODES", piece_codes)
        s = space(q, pos, sizes, wname)
        hist = _histogram(s)
        seen.add((q, wname))
        assert s.weight_spectrum() == hist
        for r in range(len(hist) + 1):
            assert s.weight_spectrum(r) == hist[: r + 1]
        if s.size <= 1024:
            center = tuple(rng.randrange(q) for _ in range(s.n))
            for r in rng.sample(range(len(hist)), min(3, len(hist))):
                assert s.ball_size(center, r) == len(s.ball(center, r)) == sum(hist[: r + 1])
    assert {q for q, _ in seen} == {2, 3, 4, 5, 7}
    assert {w for _, w in seen} == {"hamming", "lee", "custom"}


def test_weight_spectrum_chain_formula():
    """On a chain the weight M_w (j - 1) + m, 1 <= m <= M_w, belongs exactly
    to the vectors whose top nonzero block is j with maximum coordinate
    weight m: q^(k_1 + ... + k_(j-1)) N_(k_j)(m) of them, with
    N_k(m) = L(m)^k - L(m - 1)^k and L(m) = #{a : w(a) <= m}.  The 40-block
    GF(2) chain has n = 80, far above the enumeration cap."""
    for q, wname, sizes in [
        (2, "hamming", [1 + i % 3 for i in range(40)]),
        (5, "lee", [2, 1, 3, 1, 2] * 3),
        (7, "custom", [1, 2, 2, 1, 3]),
    ]:
        s = space(q, P.chain(len(sizes)), sizes, wname)
        mw = s.weight.max_weight
        at_most = [sum(v <= m for v in s.weight.table) for m in range(mw + 1)]
        want = [1]
        for j, k in enumerate(sizes):
            want += [q ** sum(sizes[:j]) * (at_most[m] ** k - at_most[m - 1] ** k)
                     for m in range(1, mw + 1)]
        assert s.weight_spectrum() == want
        assert sum(want) == q**s.n
        assert s.ball_size(s.zero(), 30) == sum(want[:31])


def test_weight_spectrum_cap_bounds_states():
    """The cap bounds the DP's live states, not q^n: a 3-chain needs two
    states, a 20-element antichain one."""
    s = space(2, P.chain(3), (1, 1, 1))
    a = space(2, P.antichain(20), (1,) * 20)
    with enumeration_cap(1):
        with pytest.raises(SpaceTooLarge):
            s.weight_spectrum()
        with pytest.raises(SpaceTooLarge):
            s.ball_size(s.zero(), 2)
        assert a.ball_size(a.zero(), 3) == 1 + 20 + 190 + 1140
    with enumeration_cap(2):
        assert s.ball_size(s.zero(), 2) == 4
    with pytest.raises(ValueError):
        a.ball_size(a.zero(), -1)
    with pytest.raises(ValueError):
        a.weight_spectrum(-1)


def test_ball_size_never_enumerates(monkeypatch):
    """ball_size runs with both enumerators of F_q^n disabled (the piece
    codes of its rows and the table of its vectors); ball, which lists the
    vectors, still needs them."""
    s = space(5, TREE6, (1, 1, 1, 1, 2, 1), "lee")
    want = [sum(_histogram(s)[: r + 1]) for r in range(8)]

    def refuse(*args, **kwargs):
        raise AssertionError("F_q^n was enumerated")

    monkeypatch.setattr(blockspace._PiecePlan, "odometer_codes", refuse)
    monkeypatch.setattr(blockspace, "odometer_table", refuse)
    assert [s.ball_size((1,) * s.n, r) for r in range(8)] == want
    with pytest.raises(AssertionError):
        s.ball(s.zero(), 1)


def test_coerce_rejects_non_integers():
    """Single vectors are rejected, not truncated, when a coordinate is a
    float, a bool or a string; numpy integers are accepted."""
    s = space(3, P.chain(2), (1, 1))
    for bad in [(0.9, 1.5), (1.0, 2), (True, 0), ("1", 0), np.array([0.5, 1.0])]:
        with pytest.raises(ValueError, match="must be integers"):
            s.wpb_weight(bad)
    for bad in [(1, 3), (-1, 0)]:
        with pytest.raises(ValueError, match="must lie in 0..2"):
            s.wpb_weight(bad)
    assert s.wpb_weight(np.array([1, 2], dtype=np.uint8)) == s.wpb_weight((1, 2)) == 2
    assert s.wpb_weight(iter([2, 0])) == 1


def test_batch_weights_match_scalar(monkeypatch):
    """batch_weights against the scalar formula (through Poset.ideal) on every
    3-element poset and on chain, antichain and tree shapes under the
    Hamming, Lee and a custom weight, plus a GF(7) Lee space with 8 blocks
    whose 4^8 block-max tuples exceed _CHUNK, and spaces with blocks longer
    than one lookup piece (q^t <= _PIECE_CODES): q=2 blocks of 13 and 25
    coordinates, q=3 blocks of 8 and 9, a q=5 block of 11 (seeded random
    rows of varying density there).  Spaces with (M_w + 1)^s <= _CHUNK look
    weights up in a table; a monkeypatched _CHUNK then sends every space
    down one path."""
    tree6 = P.from_cover_relations(6, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])
    shapes = [*P.all_posets(3), P.chain(5), P.antichain(5), tree6]
    cases = [
        (P.chain(3), (1, 2, 1), 3, "lee"),
        (P.antichain(2), (2, 2), 4, "hamming"),
        (P.from_cover_relations(3, [(1, 3), (2, 3)]), (1, 1, 2), 2, "hamming"),
        (P.from_cover_relations(8, [(i // 2, i) for i in range(2, 9)]), (1, 2) * 4, 7, "lee"),
        # blocks split into several lookup pieces
        (P.chain(2), (13, 2), 2, "hamming"),
        (P.from_cover_relations(3, [(1, 2)]), (25, 1, 12), 2, "hamming"),
        (P.antichain(3), (8, 1, 9), 3, "lee"),
        (P.chain(2), (11, 3), 5, "lee"),
    ]
    cases += [
        (pos, [1 + i % 2 for i in range(pos.s)], q, wname)
        for pos in shapes
        for q, wname in [(3, "hamming"), (5, "lee"), (4, "custom")]
    ]
    for chunk in (_CHUNK, 0, 4**8):
        monkeypatch.setattr(blockspace, "_CHUNK", chunk)
        rng = np.random.default_rng(5)
        tabulated, split = set(), set()
        for pos, sizes, q, wname in cases:
            s = space(q, pos, sizes, wname)
            if s.size <= 256:
                arr = s.all_vectors()
            else:
                # sparse rows leave single pieces of long blocks nonzero
                arr = rng.integers(0, q, size=(256, s.n), dtype=np.uint8)
                arr[rng.random(arr.shape) > rng.random((256, 1)) ** 4] = 0
            batch = s.batch_weights(arr)
            split.add(len(s._kernel.plan().extra) > 0)
            assert batch.tolist() == [s.wpb_weight(tuple(row)) for row in arr.tolist()]
            # the table is built exactly when it fits in one chunk
            built = "bm_table" in vars(s._kernel)
            assert built == ((s.weight.max_weight + 1) ** s.s <= chunk)
            tabulated.add(built)
        assert tabulated == ({True, False} if chunk == _CHUNK else {chunk > 0})
        assert split == {True, False}


def _rows(s, rng, count):
    """All of s when it has at most count vectors, else count seeded rows of
    varying density (sparse rows leave single pieces of long blocks nonzero)."""
    if s.size <= count:
        return s.all_vectors()
    arr = rng.integers(0, s.q, size=(count, s.n), dtype=np.uint8)
    arr[rng.random(arr.shape) > rng.random((count, 1)) ** 4] = 0
    return arr


@pytest.mark.parametrize("chunk", [_CHUNK, 0])
def test_pair_weights_match_scalar(chunk, monkeypatch):
    """pair_weights against scalar wpb_weight(x - c) on every (x, c) pair of
    small spaces and on seeded rows of larger ones: every 3-element poset
    and chain, antichain and tree shapes, under the Hamming, Lee and a
    custom weight over q in {2, 3, 4, 5, 7}; blocks split into several
    pieces (long blocks, or _PIECE_CODES at 1); a GF(17) space, whose pieces
    are single coordinates; both as an (X, C) matrix and pair by pair.
    With _CHUNK at 0 every space takes the _below_weights path instead of
    the block-max-tuple table."""
    monkeypatch.setattr(blockspace, "_CHUNK", chunk)
    tree = P.from_cover_relations(4, [(1, 2), (1, 3), (3, 4)])
    shapes = [*P.all_posets(3), P.chain(4), P.antichain(4), tree]
    kinds = [(2, "hamming"), (3, "lee"), (4, "custom"), (5, "lee"), (7, "custom")]
    cases = [
        (pos, [1 + (i + j) % 2 for j in range(pos.s)], *kinds[k % 5], blockspace._PIECE_CODES)
        for i, pos in enumerate(shapes)
        for k in (i, i + 2)
    ]
    cases += [
        (P.chain(2), (13, 2), 2, "hamming", blockspace._PIECE_CODES),
        (P.antichain(3), (8, 1, 9), 3, "lee", blockspace._PIECE_CODES),
        (P.chain(2), (4, 3), 5, "lee", blockspace._PIECE_CODES),
        (tree, (3, 1, 2, 1), 2, "hamming", 1),
        (P.chain(3), (2, 1, 3), 7, "custom", 1),
        (P.chain(2), (2, 1), 17, "lee", blockspace._PIECE_CODES),
    ]
    rng = np.random.default_rng(11)
    split, tabulated = set(), set()
    for pos, sizes, q, wname, piece_codes in cases:
        monkeypatch.setattr(blockspace, "_PIECE_CODES", piece_codes)
        s = space(q, pos, sizes, wname)
        xs, cs = _rows(s, rng, 24), _rows(s, rng, 24)
        left, right = s.plan().codes(xs), s.plan().codes(cs, left=False)
        got = s.pair_weights(left[:, :, None], right[:, None, :])
        want = [[s.wpb_distance(tuple(x), tuple(c)) for c in cs.tolist()] for x in xs.tolist()]
        assert got.tolist() == want
        m = min(len(xs), len(cs))
        assert s.pair_weights(left[:, :m], right[:, :m]).tolist() == [want[i][i] for i in range(m)]
        split.add(len(s._kernel.plan().extra) > 0)
        tabulated.add("bm_table" in vars(s._kernel))
        if q == 17:
            assert len(s._kernel.plan().right) == s.n
    assert split == {True, False}
    assert tabulated == {chunk > 0}


def test_weight_bounds_and_symmetry():
    s = space(3, P.from_cover_relations(3, [(1, 2)]), (2, 1, 1), "lee")
    top = s.s * s.weight.max_weight
    arr = s.all_vectors()
    w = s.batch_weights(arr)
    assert w[0] == 0
    assert (w[1:] > 0).all()
    assert (w <= top).all()
    neg = s.field.neg_table[arr]
    assert (s.batch_weights(neg) == w).all()


def test_metric_axioms_direct_triples():
    # identity, symmetry and the triangle inequality over all triples,
    # exhaustively up to q^n = 5^4
    for pos, sizes, q in [
        (P.chain(2), (1, 1), 5),
        (P.antichain(3), (1, 1, 1), 3),
        (P.from_cover_relations(3, [(1, 3), (2, 3)]), (1, 1, 1), 2),
        (P.from_cover_relations(3, [(1, 2)]), (1, 2, 1), 5),
    ]:
        s = space(q, pos, sizes, "lee" if q != 4 else "hamming")
        arr = s.all_vectors()
        m = s.size
        d = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            d[i] = s.batch_weights(s.field.sub_table[arr, arr[i][None, :]])
        assert (d.diagonal() == 0).all()
        assert ((d == 0) == np.eye(m, dtype=bool)).all()
        assert (d == d.T).all()
        for k in range(m):
            assert (d <= d[:, k][:, None] + d[k, :][None, :]).all()


def test_odometer_enumeration_order():
    s = space(3, P.chain(2), (1, 1))
    arr = s.all_vectors()
    assert [tuple(int(x) for x in r) for r in arr[:4]] == [
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 0),
    ]
    assert s.unrank(5) == (1, 2)


def test_unrank_is_exact_at_any_length_and_rejects_bad_ranks():
    """unrank computes its digits in Python ints: int64 powers of q wrap
    once q^(n-1) >= 2^63 and put spurious digits into small ranks.  Ranks
    outside 0..q^n-1 are rejected, not wrapped."""
    wide = space(2, P.antichain(1), (70,))
    assert wide.unrank(5) == (0,) * 67 + (1, 0, 1)
    assert wide.unrank(2**70 - 1) == (1,) * 70
    assert wide.unrank(2**69) == (1,) + (0,) * 69
    s = space(2, P.chain(4), (1, 1, 1, 1))
    assert [s.unrank(r) for r in range(16)] == [tuple(v) for v in s.all_vectors().tolist()]
    for bad in (16, -1):
        with pytest.raises(OutOfRange):
            s.unrank(bad)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 16, 17, 243, 256])
def test_table_enumeration_matches_divmod(q):
    """The odometer table equals divide/mod odometer order, and all_vectors
    agrees with it."""
    for m in range(0, 4):
        if q**m > 1 << 18:
            continue
        radix = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
        ref = (np.arange(q**m, dtype=np.int64)[:, None] // radix % q).astype(np.uint8)
        assert np.array_equal(odometer_table(q, m), ref)
        if m == 2:
            assert np.array_equal(space(q, P.antichain(2), (1, 1)).all_vectors(), ref)


def test_reduction_hamming_lee_nrt_posetblock():
    # trivial blocks + antichain + hamming -> Hamming weight
    h = space(2, P.antichain(4), (1, 1, 1, 1))
    arr = h.all_vectors()
    assert (h.batch_weights(arr) == (arr != 0).sum(axis=1)).all()
    # trivial blocks + antichain + lee -> Lee weight
    l = space(5, P.antichain(2), (1, 1), "lee")
    arr = l.all_vectors()
    lee = np.minimum(arr.astype(np.int64), 5 - arr.astype(np.int64))
    assert (l.batch_weights(arr) == lee.sum(axis=1)).all()
    # chain + hamming -> NRT block weight = index of the top nonzero block
    nrt = space(2, P.chain(3), (2, 1, 1))
    arr = nrt.all_vectors()
    expect = np.zeros(len(arr), dtype=np.int64)
    for i in range(1, nrt.s + 1):
        sl = nrt.labeling.block_slice(i)
        expect = np.where((arr[:, sl] != 0).any(axis=1), i, expect)
    assert (nrt.batch_weights(arr) == expect).all()
    # hamming + any poset -> poset block weight = |ideal(supp)|
    vee = space(3, P.from_cover_relations(3, [(1, 3), (2, 3)]), (1, 2, 1))
    arr = vee.all_vectors()
    got = vee.batch_weights(arr)
    for rank in range(vee.size):
        u = vee.unrank(rank)
        assert got[rank] == len(vee.poset.ideal(vee.block_support(u)))


def test_hamming_sibling_lemma_inclusion():
    # chain poset: B_w(0, sigma + i*M_w) inside B_H(0, i+1), with equality
    # exactly when sigma = M_w (exhaustive over q in {2,3,5}, s <= 3, k <= 2)
    import itertools

    for q in (2, 3, 5):
        for count in (1, 2, 3):
            for sizes in itertools.product((1, 2), repeat=count):
                s = space(q, P.chain(count), sizes, "lee")
                h = s.hamming_sibling()
                arr = s.all_vectors()
                wl = s.batch_weights(arr)
                wh = h.batch_weights(arr)
                mw = s.weight.max_weight
                for i in range(0, s.s + 1):
                    for sigma in range(1, mw + 1):
                        inside_lee = wl <= sigma + i * mw
                        inside_ham = wh <= i + 1
                        assert not (inside_lee & ~inside_ham).any()
                        if i < s.s:  # equality criterion needs block i+1 to exist
                            assert (inside_lee == inside_ham).all() == (sigma == mw)


def test_vector_text_roundtrip():
    assert parse_vector("1, 3,0") == (1, 3, 0)
    assert format_vector((1, 3, 0)) == "1,3,0"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weight_properties_random(data):
    s = space(3, P.from_cover_relations(3, [(1, 2), (1, 3)]), (1, 2, 1), "lee")
    u = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(s.n))
    v = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(s.n))
    wu, wv = s.wpb_weight(u), s.wpb_weight(v)
    assert (wu == 0) == (u == s.zero())
    assert s.wpb_weight(s.neg(u)) == wu
    assert s.wpb_weight(s.add(u, v)) <= wu + wv
    assert s.wpb_distance(u, v) == s.wpb_distance(v, u)


def test_piece_codes_of_one_row_match_the_matrix_product():
    """The intp piece codes of a one-row array, left and right, equal those
    of the same row inside a two-row array, also with blocks split into
    several pieces."""
    rng = np.random.default_rng(5)
    for q, sizes in ((2, (2, 1, 3)), (5, (1, 2)), (2, (9, 11))):
        sp = space(q, P.chain(len(sizes)), sizes)
        arr = rng.integers(0, q, size=(2, sp.n), dtype=np.uint8)
        for left in (True, False):
            one, two = sp.plan().codes(arr[:1], left), sp.plan().codes(arr, left)
            assert one.dtype == two.dtype == np.intp and (one == two[:, :1]).all()


# the shape-keyed kernels ------------------------------------------------------


def test_equal_shapes_share_one_kernel():
    """Equal spaces, a with_weight sibling under an equal weight table (Lee
    on GF(3) has Hamming's table) and every Instance.build() of the shape
    hold one kernel."""
    a = space(3, P.chain(3), (1, 2, 1), "lee")
    assert space(3, P.chain(3), (1, 2, 1), "lee")._kernel is a._kernel
    assert a.hamming_sibling()._kernel is a._kernel
    inst = random_linear_code(7, 3, P.chain(3), Labeling((1, 2, 1)), 2)
    assert inst.build()[0]._kernel is inst.build()[0]._kernel is a._kernel


_BASE = (5, P.chain(3), (1, 2, 1), "lee")


@pytest.mark.parametrize(
    "shape",
    [
        (5, P.chain(3), (1, 2, 1), "hamming"),  # the weight table
        (5, P.antichain(3), (1, 2, 1), "lee"),  # the order relation
        (5, P.chain(3), (2, 1, 1), "lee"),  # the block sizes
        (7, P.chain(3), (1, 2, 1), "lee"),  # q
    ],
    ids=["weight table", "order relation", "block sizes", "q"],
)
def test_shapes_that_differ_hold_their_own_kernels(shape):
    """A space that differs from the base in one part of its shape holds a
    kernel of its own, and its weights match the scalar formula after the
    base's kernel has built its tables."""
    base = space(*_BASE)
    base.batch_weights(base.all_vectors())
    base.cut(2)
    other = space(*shape)
    assert other._kernel is not base._kernel
    allv = other.all_vectors()
    assert other.batch_weights(allv).tolist() == [other.wpb_weight(v) for v in allv.tolist()]


def test_kernel_arrays_are_read_only():
    """Every array a kernel keeps (plan, block-max table and radix,
    strictly-below matrix, cut tables, digits and plans, row codes) raises
    on a write."""
    s = space(2, P.chain(2), (9, 3))
    s.batch_weights(s.all_vectors()[:5])
    k, cut = s._kernel, s.cut(4)  # inside block 1: a straddling digit
    plans = [s.plan(), cut.head.plan, cut.tail.plan]
    arrays = [*(getattr(plan, f) for plan in plans for f in ("left", "right", "offsets", "table")),
              k.bm_table, k.radix, k.strict, cut.table, cut.head.digits, cut.tail.digits,
              s.plan().row_codes(np.array([0, 5, 10]))]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def _kept_arrays(obj):
    """The arrays an engine object keeps, through its fields, tuples and
    dicts (a cut's sides hold their plans, a plan its row codes)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (blockspace._Kernel, blockspace._PiecePlan)):
        yield from _kept_arrays(vars(obj))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _kept_arrays(value)
    elif isinstance(obj, tuple):
        for value in obj:
            yield from _kept_arrays(value)


def test_engine_arrays_are_integer():
    """Every array a plan, a kernel or a cut keeps has an integer or bool
    dtype, so no product of the engine is a float one: a kernel with a
    block-max table and cuts (one inside a split block), and one without a
    table."""
    s = space(2, P.chain(2), (9, 3))
    s.batch_weights(s.all_vectors()[:5])
    s.plan().row_codes(np.array([0, 5, 10]))
    cuts = [s.cut(4), s.cut(9)]
    wide = space(2, P.antichain(15), (1,) * 15)  # 2^15 tuples: no table
    wide.batch_weights(np.eye(15, dtype=np.uint8))
    assert wide._kernel.radix is None
    arrays = list(_kept_arrays((s._kernel, s.plan(), cuts, wide._kernel, wide.plan())))
    assert {arr.dtype.kind for arr in arrays} == {"b", "i", "u"}


def test_patched_constants_give_fresh_kernels(monkeypatch):
    """A space built after _CHUNK or _PIECE_CODES is patched gets a kernel
    sized under the patched value, never one kept from before: no
    block-max table at _CHUNK 0, no cut inside a block once its table
    would exceed _CHUNK, single-coordinate pieces at _PIECE_CODES 1; the
    weights stay those of the scalar formula."""
    s = space(*_BASE)
    allv = s.all_vectors()
    want = [s.wpb_weight(v) for v in allv.tolist()]
    assert s._kernel.radix is not None and s.cut(1) and s.cut(2)
    assert s.batch_weights(allv).tolist() == want
    # Lee on GF(5) weighs at most 2, so the 3 blocks have 3^3 = 27
    # block-max tuples, and a cut inside block 2 needs 3^4 = 81
    for chunk, table, inside in ((0, False, False), (27, True, False), (81, True, True)):
        monkeypatch.setattr(blockspace, "_CHUNK", chunk)
        t = space(*_BASE)
        assert t._kernel is not s._kernel
        assert (t._kernel.radix is not None) == table
        assert (t.cut(1) is not None, t.cut(2) is not None) == (table, inside)
        assert t.batch_weights(allv).tolist() == want
    monkeypatch.undo()
    monkeypatch.setattr(blockspace, "_PIECE_CODES", 1)
    u = space(*_BASE)
    assert u._kernel is not s._kernel and len(u._kernel.plan().left) == u.n
    assert u.batch_weights(allv).tolist() == want


def test_charges_do_not_depend_on_the_kernel_cache():
    """The same call raises SpaceTooLarge under a cap one below its charge
    with a cold kernel cache and again once the kernel has built its
    tables, and runs at the charge.  Blocks of 9 and 11 over GF(2) make
    pieces of at most 8: 2 + 2 pieces x 20 coordinates; a cut at 10 makes
    a head (9, 1) of 3 pieces x 10 and a tail (10,) of 2 pieces x 10,
    charged in that order."""
    calls = [
        (80, lambda s: s.batch_weights(np.zeros((1, 20), np.uint8))),
        (80, lambda s: s.pair_weights(np.zeros((4, 1), np.intp))),
        (80, lambda s: s.plan().row_codes(np.array([0, 19]))),
        (30, lambda s: s.cut(10)),
    ]
    blockspace._kernel.cache_clear()
    blockspace._piece_plan.cache_clear()
    for warm in (False, True):
        s = space(2, P.antichain(2), (9, 11))
        assert ("bm_table" in vars(s._kernel)) == warm
        for count, call in calls:
            with enumeration_cap(count - 1), pytest.raises(
                SpaceTooLarge, match=f"piece-plan entries = {count} exceeds"
            ):
                call(s)
            with enumeration_cap(count):
                call(s)


def test_row_codes_are_kept_within_the_budget(monkeypatch):
    """A piece plan keeps the row codes of column sets while they total at
    most pieces x _CHUNK entries, here 4 x 16: those of all 4 columns (16
    rows) fill it, and those of later sets are built on every call.  Kept or
    not, they are the left piece codes of the rows of F_q^cols, zero off
    cols."""
    monkeypatch.setattr(blockspace, "_CHUNK", 16)
    blockspace._piece_plan.cache_clear()
    plan = space(2, P.antichain(4), (1,) * 4).plan()
    for cols, kept in (([0, 1, 2, 3], True), ([1, 3], False), ([2], False)):
        cols = np.array(cols)
        codes = plan.row_codes(cols)
        assert (codes is plan.row_codes(cols)) == kept
        rows = np.zeros((2 ** len(cols), 4), dtype=np.uint8)
        rows[:, cols] = odometer_table(2, len(cols))
        assert codes.tolist() == plan.codes(rows).tolist()
    assert plan._kept == 4 * 16


# the piece plans ----------------------------------------------------------------


def _chunk_bounds(q: int, m: int, rows: int) -> list[tuple[int, int]]:
    """(start rank, rows) of the chunks of F_q^m that odometer_codes yields
    for a row count: the last t coordinates, t the largest with q^t <= rows,
    make a table of q^t rows, and each chunk but the last holds rows // q^t
    values of the leading m - t coordinates."""
    t = 0
    while t < m and q ** (t + 1) <= rows:
        t += 1
    width, heads, per = q**t, q ** (m - t), rows // q**t
    return [(lo * width, (min(lo + per, heads) - lo) * width) for lo in range(0, heads, per)]


def test_broadcast_row_codes_match_the_row_product(monkeypatch):
    """The left piece codes a plan builds by broadcast adds equal
    plan.left @ x.T + offsets on the rows x of F_q^cols from odometer_table,
    widened with zeros off cols, and odometer_codes yields the chunks of
    _chunk_bounds: seeded column subsets; row counts of 1,
    several chunks with a partial last one (q = 3 and 5), and one chunk;
    blocks longer than t (a GF(2) block of 9, and every block at
    _PIECE_CODES 1); the kernel's plan and both sides of cuts inside a
    block."""
    rng = random.Random(31)
    cases = [
        (2, P.chain(2), (9, 3), 4),
        (3, P.antichain(3), (2, 1, 3), 4),
        (5, TREE6, (1, 2, 1, 1, 1, 1), 2),
    ]
    split, partial = set(), set()
    for piece_codes in (blockspace._PIECE_CODES, 1):
        monkeypatch.setattr(blockspace, "_PIECE_CODES", piece_codes)
        for q, pos, sizes, p in cases:
            s = space(q, pos, sizes)
            cut = s.cut(p)
            assert len(cut.head.digits) + len(cut.tail.digits) > s.s  # p inside a block
            for plan in (s.plan(), cut.head.plan, cut.tail.plan):
                split.add(len(plan.extra) > 0)
                n = plan.left.shape[1]
                for _ in range(4):
                    m = rng.randint(0, min(n, 5 if q < 5 else 3))
                    cols = np.array(sorted(rng.sample(range(n), m)), dtype=np.intp)
                    x = np.zeros((q**m, n), dtype=np.uint8)
                    x[:, cols] = odometer_table(q, m)
                    want = plan.left @ x.T + plan.offsets
                    assert plan.row_codes(cols).tolist() == want.tolist()
                    for rows in (1, 7, 12, q**m):
                        chunks = list(plan.odometer_codes(cols, rows))
                        bounds = _chunk_bounds(q, m, rows)
                        assert [(start, c.shape[1]) for start, c in chunks] == bounds
                        got = np.concatenate([c for _, c in chunks], axis=1)
                        assert got.dtype == np.intp and got.tolist() == want.tolist()
                        partial.add(bounds[-1][1] < bounds[0][1])
    assert split == partial == {True, False}


def test_piece_plans_are_shared_across_posets_and_cut_sides():
    """The plan cache is keyed by the weight table, the block sizes, t and
    _CHUNK, not by the order relation: spaces that differ only in their
    poset hold one plan, and the sides of a cut on a block boundary hold
    the plans of spaces with the sides' block sizes."""
    a = space(3, P.chain(3), (1, 2, 1), "lee")
    b = space(3, P.antichain(3), (1, 2, 1), "lee")
    assert a._kernel is not b._kernel and a.plan() is b.plan()
    cut = a.cut(3)  # between blocks 2 and 3
    assert cut.tail.plan is space(3, P.chain(1), (1,), "lee").plan()
    assert cut.head.plan is space(3, P.antichain(2), (1, 2), "lee").plan()


def test_a_cold_verify_run_builds_each_plan_once(monkeypatch):
    """With cold kernel and plan caches, a small verify suite builds each
    distinct (weights, sizes, t) piece plan once, for kernels and cut sides
    alike, though it builds more kernels than plans."""
    built = []
    init = blockspace._PiecePlan.__init__

    def recording(self, weights, sizes, t, chunk):
        built.append((weights, sizes, t))
        init(self, weights, sizes, t, chunk)

    monkeypatch.setattr(blockspace._PiecePlan, "__init__", recording)
    blockspace._kernel.cache_clear()
    blockspace._piece_plan.cache_clear()
    verify_suite(["plotkin"], seed=0, trials=5)
    assert built and len(built) == len(set(built))
    assert blockspace._kernel.cache_info().misses > len(built)


def test_a_cold_verify_run_builds_each_kernel_once(monkeypatch):
    """With a cold kernel cache, a full verify run at seed 0, whose spaces
    have more shapes (471) than a 256-entry cache holds, builds each
    shape's kernel once."""
    built = []
    init = blockspace._Kernel.__init__

    def recording(self, *key):
        built.append(key)
        init(self, *key)

    monkeypatch.setattr(blockspace._Kernel, "__init__", recording)
    blockspace._kernel.cache_clear()
    verify_suite(["all"], seed=0)
    assert len(built) == len(set(built)) > 256
