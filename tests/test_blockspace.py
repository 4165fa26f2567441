import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbcodes import blockspace
from wpbcodes.blockspace import (
    _CHUNK,
    BlockSpace,
    Labeling,
    format_vector,
    odometer_chunks,
    odometer_table,
    parse_vector,
)
from wpbcodes.errors import LengthMismatch, SpaceTooLarge
from wpbcodes.field import make_field
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


def test_ball_size_center_independent(chain21_lee5):
    s = chain21_lee5
    for r in range(0, 7):
        base = s.ball_size(s.zero(), r)
        for center in [(1, 3, 0), (0, 0, 4), (4, 4, 4)]:
            assert s.ball_size(center, r) == base


def test_space_too_large_guard():
    s = space(2, P.chain(5), (1, 1, 1, 1, 1))
    with pytest.raises(SpaceTooLarge):
        s.ball(s.zero(), 1, max_space=16)


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
            split.add(len(s._pieces[3]) > 0)
            assert batch.tolist() == [s.wpb_weight(tuple(row)) for row in arr.tolist()]
            # the table is built exactly when it fits in one chunk
            built = "_bm_table" in vars(s)
            assert built == ((s.weight.max_weight + 1) ** s.s <= chunk)
            tabulated.add(built)
        assert tabulated == ({True, False} if chunk == _CHUNK else {chunk > 0})
        assert split == {True, False}


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
    assert s.vector_rank((1, 2)) == 5
    assert s.unrank(5) == (1, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 16, 17, 243, 256])
def test_table_enumeration_matches_divmod(q):
    """Chunks built from the tail table equal divide/mod odometer order, stay
    within the requested row count, and all_vectors agrees with them."""
    for m in range(0, 4):
        if q**m > 1 << 18:
            continue
        radix = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
        ref = (np.arange(q**m, dtype=np.int64)[:, None] // radix % q).astype(np.uint8)
        for rows in (1, 3, q, _CHUNK):
            if q**m > 1024 * rows:  # keep the chunk count small
                continue
            chunks = list(odometer_chunks(q, m, rows))
            assert all(1 <= len(c) <= rows and c.shape[1] == m for _, c in chunks)
            assert [start for start, _ in chunks] == list(
                np.cumsum([0] + [len(c) for _, c in chunks[:-1]])
            )
            assert np.array_equal(np.concatenate([c for _, c in chunks]), ref)
        assert np.array_equal(odometer_table(q, m), ref)
    s = space(q, P.antichain(2), (1, 1))
    chunks = list(s.iter_chunks())
    assert all(len(c) <= _CHUNK for _, c in chunks)
    assert np.array_equal(np.concatenate([c for _, c in chunks]), s.all_vectors())


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
