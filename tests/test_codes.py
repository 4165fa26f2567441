import itertools
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from wpbcodes import blockspace
from wpbcodes.blockspace import BlockSpace, Labeling, enumeration_cap
from wpbcodes import codes as codes_module
from wpbcodes.codes import Code
from wpbcodes.errors import LengthMismatch, NotAChain, NotLinear, SpaceTooLarge, TooFewWords
from wpbcodes.field import make_field
from wpbcodes.instances import random_rows
from wpbcodes import poset as P
from wpbcodes.weights import custom_weight, hamming_weight, lee_weight

from small_posets import all_posets


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


def test_explicit_words_are_validated_as_one_array():
    """Explicit words are checked as one array: the sorted, deduplicated
    tuples of Python ints as before, LengthMismatch for a short word, a
    ValueError for coordinates out of range and for non-integer ones, which
    are rejected rather than truncated."""
    s = space(3, P.chain(2), (1, 2))
    words = [(2, 1, 0), (0, 2, 2), (2, 1, 0), (0, 0, 1)]
    c = Code.explicit(s, words)
    assert c.words == tuple(sorted(set(words)))
    assert all(type(x) is int for w in c.words for x in w)
    assert Code.explicit(s, np.array(words)).words == c.words
    assert c.codeword_array().tolist() == [list(w) for w in c.words]
    rng = random.Random(3)
    for q, n in [(2, 5), (5, 3), (256, 2)]:
        sp = space(q, P.antichain(n), (1,) * n)
        ws = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randrange(1, 40))]
        assert Code.explicit(sp, ws).words == tuple(sorted(set(ws)))
    with pytest.raises(LengthMismatch):
        Code.explicit(s, [(0, 1, 2), (0, 1)])
    for bad in ([(0, 1, 3)], [(0, -1, 2)]):
        with pytest.raises(ValueError, match="must lie in 0..2"):
            Code.explicit(s, bad)
    for bad in (
        [(0, 1.5, 2)], [(0, 1.0, 2)], [(True, False, True)], [(0, True, 2)], [("0", "1", "2")]
    ):
        with pytest.raises(ValueError, match="must be integers"):
            Code.explicit(s, bad)
    with pytest.raises(ValueError, match="at least one word"):
        Code.explicit(s, [])


def test_generators_are_validated_not_truncated():
    """Generator rows go through the same validation as single vectors:
    floats, bools and strings are rejected rather than truncated."""
    s = space(3, P.chain(2), (1, 1))
    for bad in [[(1.7, 2.2)], [(1, 0), (0.0, 1)], [(True, 2)], [("1", "2")]]:
        with pytest.raises(ValueError, match="must be integers"):
            Code.linear(s, bad)
    with pytest.raises(ValueError, match="must lie in 0..2"):
        Code.linear(s, [(1, 3)])
    assert Code.linear(s, [np.array([2, 1])]).generators == ((1, 2),)


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


RADIUS_READINGS = {
    "ball": lambda c, r: c.space.ball(c.space.zero(), r),
    "ball_size": lambda c, r: c.space.ball_size(c.space.zero(), r),
    "weight_spectrum": lambda c, r: c.space.weight_spectrum(r),
    "is_r_perfect": lambda c, r: c.is_r_perfect(r),
}


@pytest.mark.parametrize("reading", RADIUS_READINGS)
def test_radii_are_integers(reading):
    """A radius that is a float, a bool or a string raises ValueError; none
    is truncated (ball(c, 2.5) listing the radius-2 ball, or is_r_perfect(True)
    reading radius 1).  A numpy integer reads as the int."""
    read, c = RADIUS_READINGS[reading], rep3()
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="radii must be integers"):
            read(c, bad)
    assert read(c, np.int64(2)) == read(c, 2)


def test_coset_table_examples():
    s = space(2, P.chain(3), (1, 1, 1))
    c = Code.linear(s, [(1, 1, 1)])
    t = c.coset_table()
    assert sorted(t.weights.tolist()) == [0, 1, 2, 2]
    assert t.max_weight == 2
    assert t.max_weight == c.covering_radius()
    # leaders actually lie in distinct cosets and have their coset's weight
    for leader, w in zip(t.leaders.tolist(), t.weights.tolist()):
        assert s.wpb_weight(leader) == w
    full = Code.linear(s, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ft = full.coset_table()
    assert ft.weights.tolist() == [0]
    zero = Code.linear(s, [])
    zt = zero.coset_table()
    assert zt.leaders.shape == (8, 3)
    assert zt.max_weight == max(s.batch_weights(s.all_vectors()))


def test_coset_table_arrays_are_read_only():
    """A coset table keeps its leaders as a (q^(n-k), n) uint8 array and its
    weights as a (q^(n-k),) int64 array; both raise on a write, and a second
    coset_table() returns the same memoized table.  The table memoizes
    itself alone: the covering radius is left to its own reading, which
    equals the max leader weight."""
    s = space(3, P.chain(2), (2, 1), "lee")
    c = Code.linear(s, [(1, 2, 1)])
    t = c.coset_table()
    assert t.leaders.shape == (9, 3) and t.leaders.dtype == np.uint8
    assert t.weights.shape == (9,) and t.weights.dtype == np.int64
    assert type(t.max_weight) is int
    for arr in (t.leaders, t.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    assert c.coset_table() is t
    assert "covering_radius" not in c._memo
    assert c.covering_radius() == t.max_weight == int(t.weights.max())


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
        leader = tuple(t.leaders[idx].tolist())
        diff = s.sub(v, leader)
        assert diff in set(c.codewords())
        assert s.wpb_weight(leader) <= s.wpb_weight(v)


def test_trailing_full_index():
    c = rep3()
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
        pos = list(all_posets(s_count))[rng.randrange(len(list(all_posets(s_count))))]
        sizes = tuple(rng.randrange(1, 3) for _ in range(s_count))
        sp = space(q, pos, sizes, rng.choice(["hamming", "lee"]) if q != 4 else "hamming")
        if sp.size > 4096:
            continue
        dim = rng.randrange(1, min(sp.n, 3) + 1)
        c = Code.linear(sp, random_rows(rng, q, sp.n, dim))
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
        all_p = list(all_posets(s_count))
        pos = all_p[rng.randrange(len(all_p))]
        sizes = tuple(rng.randrange(1, 3) for _ in range(s_count))
        sp = space(q, pos, sizes, "lee" if q != 2 else "hamming")
        if sp.size > 1024:
            continue
        dim = rng.randrange(0, min(sp.n, 3) + 1)
        c = Code.linear(sp, random_rows(rng, q, sp.n, dim))
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
        c = Code.linear(sp, random_rows(rng, q, sp.n, k))
        if c.dimension == k:
            return c


def test_sphere_bounds_from_weight_spectrum():
    """The coset and word-set passes against the ideal DP of ball_size:
    balls of the packing radius around the codewords are disjoint, so
    |C| |B(rho)| <= q^n, with equality iff the code is perfect; balls of
    the covering radius cover F_q^n, so |C| |B(R)| >= q^n.  Seeded linear
    codes and explicit word sets on the same spaces."""
    rng = random.Random(41)
    perfect, kinds = set(), set()
    for i in range(60):
        code = _random_linear_code(rng)
        sp = code.space
        if i % 2:
            allv = [sp.unrank(r) for r in range(sp.size)]
            code = Code.explicit(sp, rng.sample(allv, rng.randrange(1, min(sp.size, 12) + 1)))
        kinds.add(code.kind)
        center = sp.unrank(rng.randrange(sp.size))
        assert code.size * sp.ball_size(center, code.covering_radius()) >= sp.size
        if code.size >= 2:
            packed = code.size * sp.ball_size(center, code.packing_radius())
            assert packed <= sp.size
            assert (packed == sp.size) == code.is_perfect()
            perfect.add(code.is_perfect())
    assert perfect == {True, False} and kinds == {"linear", "explicit"}


class _Tiles(NamedTuple):
    kernel: list[int]  # entries of every pair-kernel call
    cut: list[tuple[int, np.dtype]]  # entries and dtype of every tile through a cut


@contextmanager
def _counting_tiles(sp):
    """Record the pairs of every pair-kernel call, and the pairs and dtype
    of every tile made through a cut (head rows x words x tail rows),
    inside the block: on sp and on the spaces of the parts its readings
    split into, which are their nodes' own (BlockSpace.restrict)."""
    kernel, cut_weights = BlockSpace.pair_weights, blockspace._Cut.weights
    tiles = _Tiles([], [])

    def counted(space, left, right=None):
        w = kernel(space, left, right)
        tiles.kernel.append(w.size)
        return w

    def counted_cut(cut, head, tail):
        w = cut_weights(cut, head, tail)
        tiles.cut.append((w.size, w.dtype))
        return w

    BlockSpace.pair_weights = counted
    blockspace._Cut.weights = counted_cut
    try:
        yield tiles
    finally:
        BlockSpace.pair_weights = kernel
        blockspace._Cut.weights = cut_weights


def _assert_tile_bounds(tiles: _Tiles, chunk: int) -> None:
    """The passes' tile bounds: a pair-kernel tile holds at most chunk
    pairs; a tile through a cut, coset-table tiles included, is uint8 and
    holds at most 4 * chunk pairs."""
    assert tiles.kernel or tiles.cut
    assert max(tiles.kernel, default=0) <= chunk
    assert all(dtype == np.uint8 for _, dtype in tiles.cut)
    assert max((size for size, _ in tiles.cut), default=0) <= 4 * chunk


def _brute_force_table(code):
    """(weights, leaders) per coset_index of a linear code: the first
    minimum-weight vector of each coset in odometer order, under the scalar
    weight."""
    sp = code.space
    best: dict[int, tuple[int, tuple]] = {}
    for v in map(tuple, sp.all_vectors().tolist()):
        idx, w = code.coset_index(v), sp.wpb_weight(v)
        if idx not in best or w < best[idx][0]:
            best[idx] = (w, v)
    assert sorted(best) == list(range(len(best)))
    return tuple(best[i][0] for i in range(len(best))), tuple(best[i][1] for i in range(len(best)))


def _table_tuples(table):
    """(weights, leaders) of a coset table as the tuples of _brute_force_table."""
    return tuple(table.weights.tolist()), tuple(map(tuple, table.leaders.tolist()))


@pytest.mark.parametrize("chunk", [None, 1, 5])
def test_coset_pass_matches_explicit_scan_and_brute_force(chunk, monkeypatch):
    """The coset-major pass against the explicit word-set scan, a dense
    distance-count oracle for r-perfectness, and brute-force coset leaders
    (first minimum-weight vector in odometer order per coset_index, under
    the scalar weight).  A small _CHUNK forces codeword tiling (q^k > _CHUNK);
    a second round with _PIECE_CODES at 1 cuts the blocks into
    single-coordinate pieces, so every block of two coordinates is split."""
    if chunk is not None:
        monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    limit = chunk or codes_module._CHUNK
    for piece_codes in (blockspace._PIECE_CODES, 1):
        monkeypatch.setattr(blockspace, "_PIECE_CODES", piece_codes)
        rng = random.Random(97)
        dims, split = set(), set()
        for _ in range(40):
            code = _random_linear_code(rng)
            sp, cw = code.space, code.codeword_array()
            dims.add((code.dimension == 0, code.dimension == sp.n, code.size > limit))
            with _counting_tiles(sp) as tiles:
                covering = code.covering_radius()
                packing = code.packing_radius() if code.size >= 2 else None
                top = sp.weight.max_weight * sp.s
                perfect = [code.is_r_perfect(r) for r in range(top + 1)]
            with _counting_tiles(sp) as leader_tiles:
                table = Code.linear(sp, code.generators).coset_table()
            _assert_tile_bounds(tiles, limit)
            _assert_tile_bounds(leader_tiles, limit)
            split.add(len(sp.plan().starts) > sp.s)

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

            assert _table_tuples(table) == _brute_force_table(code)
        # k = 0, k = n and q^k > _CHUNK all occur
        assert {d[0] for d in dims} == {d[1] for d in dims} == {True, False}
        if chunk is not None:
            assert any(d[2] for d in dims)
        assert split == ({False} if piece_codes > 1 else {True, False})


@pytest.mark.parametrize("chunk", [1, 5])
def test_explicit_pass_matches_scalar_brute_force(chunk, monkeypatch):
    """The explicit word-set pass and the minimum distance (the words' rows
    against the words) against scalar distances, covering radius first and
    packing radius first (one pass gives both either way).  A small _CHUNK
    splits the words over several tiles and the vectors over many; at
    _CHUNK 5, codes of 6 or 7 words read d over several word blocks, more
    pair-kernel tiles than words.  No tile may exceed its bound
    (_assert_tile_bounds), those of a fresh code's d included.  A second
    round with _PIECE_CODES at 1 cuts the blocks into single-coordinate
    pieces, so every block of two coordinates is split."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    for piece_codes in (blockspace._PIECE_CODES, 1):
        monkeypatch.setattr(blockspace, "_PIECE_CODES", piece_codes)
        rng = random.Random(53)
        sizes, split, blocks = set(), set(), set()
        for _ in range(20):
            sp = _random_linear_code(rng).space
            if sp.size > 128:
                continue
            allv = [sp.unrank(r) for r in range(sp.size)]
            code = Code.explicit(sp, rng.sample(allv, rng.randrange(1, min(sp.size, 7) + 1)))
            sizes.add(code.size)
            with _counting_tiles(sp) as tiles:
                covering = code.covering_radius()
                packing = code.packing_radius() if code.size >= 2 else None
                mindist = code.min_distance() if code.size >= 2 else None
                top = sp.weight.max_weight * sp.s
                perfect = [code.is_r_perfect(r) for r in range(top + 1)]
                pack_first = Code.explicit(sp, code.words)
                if code.size >= 2:
                    assert pack_first.packing_radius() == packing
                assert pack_first.covering_radius() == covering
            _assert_tile_bounds(tiles, chunk)
            split.add(len(sp.plan().starts) > sp.s)
            if code.size >= 2:
                with _counting_tiles(sp) as dist_tiles:
                    assert Code.explicit(sp, code.words).min_distance() == mindist
                _assert_tile_bounds(dist_tiles, chunk)
                blocks.add((code.size > chunk, len(dist_tiles.kernel) > code.size))

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
        assert split == ({False} if piece_codes > 1 else {True, False})
        assert (True, True) in blocks  # d over several word blocks


@pytest.mark.parametrize("chunk", [16, 64])
def test_cut_passes_match_dense_reduction_and_brute_force(chunk, monkeypatch):
    """The passes through a cut of the enumerated columns (head rows plus
    tail rows) against a dense batch_weights reduction, and coset leaders
    against the scalar brute force.  A small _CHUNK makes most passes cut;
    the cut falls inside a block, on a block boundary, or nowhere when one
    tile holds the pass.  A second round with _PIECE_CODES at 1 splits every
    block of two or more coordinates into pieces.  Every tile keeps its
    bound (_assert_tile_bounds), and every head or tail index is uint16 and
    holds at most 4 * _CHUNK entries, as a covering or packing chunk through
    a cut does."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    cut, index, run = BlockSpace.cut, blockspace._Side.index, Code._pass
    seen: list = []  # the cut point of each pass that asked for one
    indices: list = []  # entries and dtype of every head and tail index
    # per pass: one tile holds it, a row's words fill a tile, its cuts, the
    # block offsets of its space (a split's part has its node's own) and what
    # it keeps per row
    passes: list = []

    def recording_cut(sp, p):
        seen.append(p)
        return cut(sp, p)

    def recording_pass(code, cols, keep):
        start = len(seen)
        out = run(code, cols, keep)
        q = code.space.q
        passes.append((q ** len(cols) * code.size <= chunk, q * code.size > chunk, seen[start:],
                       code.space.labeling.offsets, keep))
        return out

    def recording_index(side, left, right):
        out = index(side, left, right)
        indices.append((out.size, out.dtype))
        return out

    monkeypatch.setattr(BlockSpace, "cut", recording_cut)
    monkeypatch.setattr(blockspace._Side, "index", recording_index)
    monkeypatch.setattr(Code, "_pass", recording_pass)
    for piece_codes in (blockspace._PIECE_CODES, 1):
        monkeypatch.setattr(blockspace, "_PIECE_CODES", piece_codes)
        rng = random.Random(67)
        kinds, cuts, split = set(), set(), set()
        for i in range(30):
            code = _random_linear_code(rng)
            sp = code.space
            allv = sp.all_vectors()
            if i % 2:
                rows = rng.sample(range(sp.size), rng.randrange(1, min(sp.size, 8) + 1))
                code = Code.explicit(sp, allv[rows])
            kinds.add(code.kind)
            passes.clear()
            with _counting_tiles(sp) as tiles:
                covering = code.covering_radius()
                packing = code.packing_radius() if code.size >= 2 else None
                top = sp.weight.max_weight * sp.s
                perfect = [code.is_r_perfect(r) for r in range(top + 1)]
            with _counting_tiles(sp) as leader_tiles:
                table = Code.linear(sp, code.generators).coset_table() if code.is_linear else None
            _assert_tile_bounds(tiles, chunk)
            if table is not None:
                _assert_tile_bounds(leader_tiles, chunk)
            split.add(len(sp.plan().starts) > sp.s)
            # the reading's leaf passes, then the coset table's full pass
            assert passes
            # covering keeps the row minima, packing the two smallest entries
            # and the table the first word reaching the minimum, in read order
            keeps = [p[-1] for p in passes]
            assert keeps == sorted(keeps, key=["min", "two", "first"].index)
            assert keeps.count("first") == (table is not None)
            for one_tile, word_blocks, at, offsets, _ in passes:
                assert len(at) == (0 if one_tile or word_blocks else 1)
                if at:
                    cuts.add("boundary" if at[0] in offsets else "inside")
                elif one_tile:
                    cuts.add("none")

            cw = code.codeword_array()
            dist = sp.batch_weights(
                sp.field.sub_table[allv[:, None, :], cw[None, :, :]].reshape(-1, sp.n)
            ).reshape(len(allv), len(cw))
            assert covering == dist.min(axis=1).max()
            if code.size >= 2:
                assert packing == np.sort(dist, axis=1)[:, 1].min() - 1
            assert perfect == [bool(((dist <= r).sum(axis=1) == 1).all()) for r in range(top + 1)]
            if table is None:
                continue
            assert _table_tuples(table) == _brute_force_table(code)
        assert kinds == {"linear", "explicit"}
        assert cuts == {"none", "boundary", "inside"}
        assert split == ({False} if piece_codes > 1 else {True, False})
    assert indices and max(size for size, _ in indices) <= 4 * chunk
    assert {dtype for _, dtype in indices} == {np.dtype(np.uint16)}


@pytest.mark.parametrize("chunk, tile", [(4, blockspace._TILE), (16, 12)])
def test_whole_rows_over_row_chunks_and_word_blocks(chunk, tile, monkeypatch):
    """Whole-row passes with more rows and more words than a tile's pairs =
    min(_CHUNK, _TILE // n), so each runs several chunks of rows, each
    against several blocks of words: "min", "two" and "first" over all
    columns against a dense batch_weights reduction of w(x + c) over the
    code's own words, a coset table against the scalar brute force, and an
    explicit minimum distance (the negated words' rows against the words)
    against the least distance of two distinct words.  A _CHUNK
    of 4 sizes the tiles by _CHUNK, and a _TILE of 12 by _TILE // n (2 or 3
    pairs on these spaces of 4 to 6 coordinates); no pair-kernel tile
    exceeds pairs entries.  At a _CHUNK of 4 some coset tables have fewer
    rows than pairs, one chunk against blocks of several words, where
    "first" keeps an earlier block's word on a tie."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    monkeypatch.setattr(codes_module, "_TILE", tile)
    tiles_of = Code._tiles
    # per pass: its row chunks, word blocks and most words in a block
    layouts: list[tuple[int, int, int]] = []

    def recording(code, cols, rows=None):
        chunks, blocks, width = 0, set(), 0

        def chunk(tiles):
            nonlocal width
            for lo, w in tiles:
                blocks.add(lo)
                width = max(width, w.shape[1])
                yield lo, w

        for start, tiles in tiles_of(code, cols, rows):
            chunks += 1
            yield start, chunk(tiles)
        layouts.append((chunks, len(blocks), width))

    def nested(name, read):
        layouts.clear()
        value = read()
        for chunks, blocks, width in layouts:
            if blocks > 1 and (chunks > 1 or width > 1):
                seen.add(name if chunks > 1 else f"{name} in one chunk")
        return value

    monkeypatch.setattr(Code, "_tiles", recording)
    rng = np.random.default_rng(30)
    seen: set[str] = set()
    for q, pos, sizes in [(2, P.chain(3), (2, 1, 2)), (2, P.antichain(3), (2, 2, 2)),
                          (3, P.antichain(4), (1,) * 4), (3, P.chain(2), (1, 2))]:
        sp = space(q, pos, sizes)
        pairs, allv = min(chunk, tile // sp.n), sp.all_vectors()
        codes = [Code.explicit(sp, allv[rng.choice(len(allv), m, replace=False)]) for m in (9, 12)]
        for k in (sp.n // 2, sp.n - 1):
            while (code := Code.linear(sp, rng.integers(0, q, (k, sp.n)))).dimension < k:
                pass
            codes.append(code)
        for code in codes:
            cw = code.codeword_array()
            dist = sp.batch_weights(
                sp.field.add_table[allv[:, None, :], cw[None, :, :]].reshape(-1, sp.n)
            ).reshape(len(allv), len(cw))
            cols = np.arange(sp.n)
            with _counting_tiles(sp) as counted:
                covering, _, (best, first) = nested("first", lambda: code._pass(cols, "first"))
                assert nested("min", lambda: code._pass(cols, "min")) == (covering, None, None)
                two = nested("two", lambda: code._pass(cols, "two"))
                if code.is_linear:
                    table = nested("table", Code.linear(sp, code.generators).coset_table)
                else:
                    d = nested("d", Code.explicit(sp, code.words).min_distance)
            _assert_tile_bounds(counted, chunk)
            assert max(counted.kernel, default=0) <= pairs
            assert best.tolist() == dist.min(axis=1).tolist()
            assert first.tolist() == dist.argmin(axis=1).tolist()  # argmin: the first minimum
            assert covering == dist.min(axis=1).max()
            assert two == (covering, np.sort(dist, axis=1)[:, 1].min() - 1, None)
            if code.is_linear:
                assert _table_tuples(table) == _brute_force_table(code)
                continue
            pair = sp.batch_weights(sp.field.sub_table[cw[:, None, :], cw[None, :, :]].reshape(-1, sp.n))
            assert d == pair.reshape(len(cw), len(cw))[~np.eye(len(cw), dtype=bool)].min()
    one_chunk = {"table in one chunk"} if chunk == 4 else set()
    assert seen == {"min", "two", "first", "table", "d"} | one_chunk


@pytest.mark.parametrize("chunk", [16, 64])
def test_cut_coset_tables_take_the_first_tied_word(chunk, monkeypatch):
    """Coset tables whose pass cuts its columns with two or more words per
    tile, where many rows reach their minimum at several words: every
    leader is the first of them in odometer order, against the scalar brute
    force.  GF(2) and GF(3) chains and antichains of single coordinates
    under the Hamming weight, codes of dimension 1 and 2."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    first_smallest = codes_module._first_smallest
    tied: list[int] = []  # rows minimal at two or more words, per tile through a cut

    def recording(w):
        t1, word = first_smallest(w)
        if w.ndim == 3:
            tied.append(int(((w == t1[:, None]).sum(axis=1) > 1).sum()))
        return t1, word

    monkeypatch.setattr(codes_module, "_first_smallest", recording)
    rng = random.Random(83)
    for q, n in [(2, 6), (2, 8), (3, 4), (3, 5)]:
        f = make_field(q)
        for pos in (P.chain(n), P.antichain(n)):
            sp = BlockSpace(pos, Labeling((1,) * n), f, hamming_weight(f))
            for k in (1, 2):
                code = Code.linear(sp, random_rows(rng, q, n, k))
                table = code.coset_table()
                assert _table_tuples(table) == _brute_force_table(code)
    assert sum(tied) > 0


def _head_classes(code, cols: np.ndarray, p: int) -> tuple[int, int]:
    """(head rows, classes) of a pass over the columns cols cut at p: the
    rows of F_q^(cols below p), two of them in one class when the tuples of
    their blocks' maxima of w(h_j + c_j) over the columns below p agree for
    every word c, counted from the scalar weight table."""
    sp = code.space
    heads = blockspace.space_rows(sp.q, sp.n, cols[cols < p])[:, :p]
    sums = sp.field.add_table[heads[:, None, :], code.codeword_array()[None, :, :p]]
    starts = [o for o in sp.labeling.offsets if o < p]
    maxima = np.maximum.reduceat(np.array(sp.weight.table)[sums], starts, axis=2)
    return len(heads), len({row.tobytes() for row in maxima.reshape(len(heads), -1)})


@pytest.mark.parametrize("chunk, tile", [(16, blockspace._TILE), (32, blockspace._TILE), (16, 24)])
def test_cut_pass_reads_each_head_class_once(chunk, tile, monkeypatch):
    """Head rows whose head indices are equal give equal tile rows against
    every word and tail row, so a pass through a cut reads each class of
    them once.  Seeded word sets and linear codes on the N poset (1 < 3,
    2 < 3, 2 < 4) and the 2 x 2 grid, over GF(2), GF(3) and GF(5) under the
    Hamming and Lee weights, read "min", "two" and "first" over all columns
    as a dense batch_weights reduction of w(x + c) gives them, and their
    coset tables as the scalar brute force does, with cuts on a block
    boundary and inside a block.  A _CHUNK of 16 or 32 reads the classes of
    a pass in several tiles.  At the default _TILE the head rows are one
    block, and the cut tiles of a pass total classes x |C| x T entries
    (_head_classes), fewer than head rows x |C| x T on some pass.  A _TILE
    of 24 cuts the head rows of some passes into several blocks, each
    sorted for its classes alone: the tiles then total between the two, and
    more than the classes' entries on some pass.  Every block sorted for its
    classes holds at most max(_TILE, 2 * _CHUNK) head-index entries, and
    every tile keeps its bound (_assert_tile_bounds)."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    monkeypatch.setattr(codes_module, "_TILE", tile)
    cut, row_classes = BlockSpace.cut, codes_module._row_classes
    seen: list[int] = []  # the cut point of every pass that asked for one
    blocks: list[int] = []  # the entries of every head-index block sorted for its classes

    def recording_cut(sp, p):
        seen.append(p)
        return cut(sp, p)

    def recording_classes(rows):
        if rows.dtype == np.uint16:
            blocks.append(rows.size)
        return row_classes(rows)

    monkeypatch.setattr(BlockSpace, "cut", recording_cut)
    monkeypatch.setattr(codes_module, "_row_classes", recording_classes)

    def tile_entries(code, cols, read):
        """The value of read() and its cut-tile entries, checked against the
        classes of its head rows."""
        seen.clear()
        with _counting_tiles(code.space) as tiles:
            value = read()
        _assert_tile_bounds(tiles, chunk)
        if seen and tiles.cut:
            p, size = seen[0], code.space.q ** int((cols >= seen[0]).sum()) * code.size
            rows, classes = _head_classes(code, cols, p)
            total = sum(entries for entries, _ in tiles.cut)
            assert classes * size <= total <= rows * size
            exact.add(total == classes * size)
            cuts.add("boundary" if p in code.space.labeling.offsets else "inside")
            fewer.add(classes < rows)
            several.add(len(tiles.cut) > 1)
        return value

    n_poset = P.from_cover_relations(4, [(1, 3), (2, 3), (2, 4)])
    grid = P.cartesian_product(P.chain(2), P.chain(2))
    rng = np.random.default_rng(37)
    cuts, fewer, several, exact = set(), set(), set(), set()
    for q, sizes, weight in [(2, (2, 1, 2, 2), "hamming"), (3, (1, 2, 1, 1), "lee"),
                             (5, (1, 1, 1, 1), "hamming"), (5, (1, 1, 1, 1), "lee")]:
        for pos in (n_poset, grid):
            sp = space(q, pos, sizes, weight)
            allv, cols = sp.all_vectors(), np.arange(sp.n)
            codes = [Code.explicit(sp, allv[rng.choice(len(allv), m, replace=False)])
                     for m in (2, 3, 5)]
            codes += [Code.linear(sp, rng.integers(0, q, (k, sp.n))) for k in (1, 2)]
            for code in codes:
                cw = code.codeword_array()
                dist = sp.batch_weights(
                    sp.field.add_table[allv[:, None, :], cw[None, :, :]].reshape(-1, sp.n)
                ).reshape(len(allv), len(cw))
                covering, _, (best, first) = tile_entries(code, cols, lambda: code._pass(cols, "first"))
                assert best.tolist() == dist.min(axis=1).tolist()
                assert first.tolist() == dist.argmin(axis=1).tolist()  # argmin: the first minimum
                assert covering == dist.min(axis=1).max()
                assert tile_entries(code, cols, lambda: code._pass(cols, "min")) == (covering, None, None)
                two = tile_entries(code, cols, lambda: code._pass(cols, "two"))
                assert two[0] == covering and two[2] is None
                if code.size > 1:
                    assert two[1] == np.sort(dist, axis=1)[:, 1].min() - 1
                if code.is_linear:
                    table = tile_entries(code, code._free, code.coset_table)
                    assert _table_tuples(table) == _brute_force_table(code)
    assert cuts == {"boundary", "inside"} and True in several and True in fewer
    assert exact == ({True} if tile == blockspace._TILE else {True, False})
    assert blocks and max(blocks) <= max(tile, 2 * chunk)


@pytest.mark.parametrize("chunk, path", [(5, "word blocks"), (16, "cut")])
def test_each_reading_keeps_what_it_needs(chunk, path, monkeypatch):
    """What a pass keeps per row, on seeded linear codes and word sets, over
    all columns against the code's own words, w(x + c): "min" gives the
    covering radius of "two" and "first",
    "first" the row minimum and the first word reaching it of a dense
    batch_weights reduction, and "two" its least second-smallest entry - 1.  A _CHUNK of 5 runs whole rows over several
    word blocks (|C| > 5, so q |C| > 5) and one of 16 cuts most passes.
    Every read order gives a fresh code's values: covering then packing
    (one pass per reading), packing then covering and is_r_perfect (on a
    code read as one leaf, the packing pass alone), and a coset table then
    covering (the table's pass, then the covering reading's own passes, as
    on a fresh code: a table memoizes no covering radius)."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    cut, run = BlockSpace.cut, Code._pass
    keeps: list[str] = []  # the reading of every pass
    cuts: list = []  # every cut asked for, None where the space has no table
    paths: set[str] = set()

    def recording_pass(code, cols, keep):
        keeps.append(keep)
        return run(code, cols, keep)

    def recording_cut(space, p):
        cuts.append(cut(space, p))
        return cuts[-1]

    def passes(read) -> tuple[object, list[str]]:
        keeps.clear()
        value = read()
        return value, list(keeps)

    monkeypatch.setattr(Code, "_pass", recording_pass)
    monkeypatch.setattr(BlockSpace, "cut", recording_cut)
    rng = random.Random(71)
    kinds, leaves = set(), 0
    for i in range(40):
        code = _random_linear_code(rng)
        sp = code.space
        allv = sp.all_vectors()
        if i % 2:
            rows = rng.sample(range(sp.size), rng.randrange(1, min(sp.size, 12) + 1))
            code = Code.explicit(sp, allv[rows])
        kinds.add(code.kind)

        def fresh():
            return Code.linear(sp, code.generators) if code.is_linear else Code.explicit(sp, code.words)

        # the pass's words: the code's own, in codeword_array's order
        cw = code.codeword_array()
        dist = sp.batch_weights(
            sp.field.add_table[allv[:, None, :], cw[None, :, :]].reshape(-1, sp.n)
        ).reshape(len(allv), len(cw))
        cuts.clear()
        cols = np.arange(sp.n)
        covering, none, leaders = code._pass(cols, "first")
        assert none is None and leaders[0].tolist() == dist.min(axis=1).tolist()
        assert leaders[1].tolist() == dist.argmin(axis=1).tolist()  # argmin: the first minimum
        assert code._pass(cols, "min") == (covering, None, None)
        two = code._pass(cols, "two")
        assert two[0] == covering == dist.min(axis=1).max() and two[2] is None
        if code.size >= 2:
            assert two[1] == np.sort(dist, axis=1)[:, 1].min() - 1
        if any(c is not None for c in cuts):
            paths.add("cut")
        elif len(cw) > chunk:
            paths.add("word blocks")

        top = sp.weight.max_weight * sp.s
        perfect = [bool(((dist <= r).sum(axis=1) == 1).all()) for r in range(top + 1)]
        cov, cov_keeps = passes(fresh().covering_radius)
        assert cov == covering and set(cov_keeps) <= {"min"}
        if code.size < 2:
            assert passes(lambda: fresh().is_r_perfect(top))[1] == cov_keeps
            continue
        pack, pack_keeps = passes(fresh().packing_radius)
        assert pack == two[1] and set(pack_keeps) == {"two"}
        cover_first = fresh()
        assert passes(lambda: (cover_first.covering_radius(), cover_first.packing_radius())) == (
            (cov, pack), cov_keeps + pack_keeps)
        pack_first = fresh()
        read, both = passes(lambda: (pack_first.packing_radius(), pack_first.covering_radius()))
        assert read == (pack, cov) and both[: len(pack_keeps)] == pack_keeps
        perfect_first = fresh()
        assert passes(lambda: [perfect_first.is_r_perfect(r) for r in range(top + 1)]) == (
            perfect, both)
        if pack_first._plan("packing_radius")[1] is None:
            assert both == ["two"]  # one leaf: its packing pass memoizes both radii
            leaves += 1
        if code.is_linear:
            tabled = fresh()
            table, table_keeps = passes(tabled.coset_table)
            assert table_keeps == ["first"] and table.max_weight == cov
            assert passes(tabled.covering_radius) == (table.max_weight, cov_keeps)
            assert _table_tuples(table) == _brute_force_table(code)
    assert kinds == {"linear", "explicit"} and path in paths and leaves


@pytest.mark.parametrize("pos, sizes", [(P.antichain(2), (1, 1)), (P.chain(2), (1, 1)),
                                         (P.antichain(1), (2,))])
def test_narrow_cut_table_at_the_largest_weight_it_admits(pos, sizes, monkeypatch):
    """GF(2) under the weight (0, 127): the cut's table has 128^2 = _CHUNK
    entries.  With two blocks the cut falls on their boundary and a vector
    nonzero in both (antichain) or in the top one (chain) weighs
    s * max_weight = 254, the largest weight any cut admits; with one block
    it falls inside it.  The table is uint8 with its maximum above every
    weight, and every word set, one-word codes included, gives the covering
    and packing radius (or TooFewWords) of the dense reduction through it:
    a pass's _CHUNK of 2|C| makes its tail the last coordinate.  The uint16
    indices are exact at the largest tables: the kernel's with two blocks
    ((M_w + 1)^s = _CHUNK) and the straddling cut's with one
    ((M_w + 1)^(s + 1) = _CHUNK) give the scalar weight of every x - c."""
    f = make_field(2)
    sp = BlockSpace(pos, Labeling(sizes), f, custom_weight(f, [0, 127]))
    top = sp.s * sp.weight.max_weight
    split = sp.cut(1)
    table = split.table
    assert table.dtype == np.uint8 and np.iinfo(table.dtype).max > top
    assert table.size == blockspace._CHUNK and table.max() == top
    assert sp._kernel.bm_table.size == (blockspace._CHUNK if sp.s == 2 else 128)
    allv = sp.all_vectors()
    want = [[sp.wpb_distance(x, c) for c in allv.tolist()] for x in allv.tolist()]
    plan = sp.plan()
    pairs = sp.pair_weights(plan.codes(allv)[:, :, None], plan.codes(allv, left=False)[:, None])
    assert pairs.tolist() == want

    def part(side):  # (rows of the side, words) index part
        rows = blockspace.odometer_table(sp.q, side.hi - side.lo)
        return side.index(side.plan.codes(rows), side.plan.codes(allv[:, side.lo : side.hi], False))

    assert part(split.head).dtype == np.uint16
    tile = split.weights(part(split.head), part(split.tail).T.copy())  # (head, word, tail)
    assert tile.transpose(0, 2, 1).reshape(len(allv), -1).tolist() == want
    cut, seen = BlockSpace.cut, []

    def recording_cut(space, p):
        seen.append(cut(space, p))
        return seen[-1]

    monkeypatch.setattr(BlockSpace, "cut", recording_cut)
    allv = sp.all_vectors()
    for m in range(1, len(allv) + 1):
        monkeypatch.setattr(codes_module, "_CHUNK", sp.q * m)
        for rows in itertools.combinations(range(len(allv)), m):
            code, cw = Code.explicit(sp, allv[list(rows)]), allv[list(rows)]
            seen.clear()
            # the pass over all columns, which the tree reading may split
            covering, packing, _ = code._pass(np.arange(sp.n), "two")
            assert len(seen) == 1 and seen[0].table.dtype == np.uint8
            dist = sp.batch_weights(
                sp.field.sub_table[allv[:, None, :], cw[None, :, :]].reshape(-1, sp.n)
            ).reshape(len(allv), len(cw))
            assert covering == code.covering_radius() == dist.min(axis=1).max()
            if m == 1:
                assert covering == top
                with pytest.raises(TooFewWords):
                    code.packing_radius()
            else:
                second = np.sort(dist, axis=1)[:, 1].min() - 1
                assert packing == code.packing_radius() == second


TREE6 = P.from_cover_relations(6, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])
_SMALL_POSETS = [p for s in (1, 2, 3) for p in all_posets(s)]


def _level_space(rng):
    """A seeded space for the level reading: an ordinal sum (linear_sum) of
    1-3 posets on at most 3 elements, a chain, TREE6 or an antichain, over
    q in {2, 3, 4, 5, 7} under the Hamming, Lee or a custom weight, with
    blocks of 1-3 coordinates and at most 2^7 vectors."""
    while True:
        shape = rng.choice(["sum", "sum", "chain", "antichain", "tree"])
        if shape == "sum":
            pos = rng.choice(_SMALL_POSETS)
            for _ in range(rng.randrange(3)):
                pos = P.linear_sum(pos, rng.choice(_SMALL_POSETS))
        elif shape == "tree":
            pos = TREE6
        else:
            pos = getattr(P, shape)(rng.randrange(1, 5))
        if 2**pos.s <= 128:
            break
    q = rng.choice([q for q in (2, 3, 4, 5, 7) if q**pos.s <= 128])
    while True:
        sizes = tuple(rng.randrange(1, 4) for _ in range(pos.s))
        if q ** sum(sizes) <= 128:
            break
    f = make_field(q)
    kind = rng.choice(["hamming", "lee", "custom"])
    if kind == "lee" and q != 4:
        w = lee_weight(f)
    elif kind == "hamming":
        w = hamming_weight(f)
    else:  # 1 on +-1, 2 elsewhere
        w = custom_weight(f, [0] + [1 if x in (1, f.neg(1)) else 2 for x in range(1, q)])
    return BlockSpace(pos, Labeling(sizes), f, w)


def _columns(sp, elements):
    """The coordinates of the blocks of the given ascending elements."""
    return np.concatenate([np.arange(sp.n)[sp.labeling.block_slice(e)] for e in elements])


def _level_summands(code):
    """(j*, j0) of a code from its codewords, summands numbered 1..h from
    the bottom: j* the highest summand j whose projection together with the
    summands above it is not the whole space (0 for C = F_q^n), j0 the lowest
    summand that is the top nonzero summand of a nonzero codeword (None for
    a one-word code)."""
    sp, cw = code.space, code.codeword_array()
    cols = [_columns(sp, part) for part in sp.poset.summands()]
    top = 0
    for j in range(len(cols), 0, -1):
        above = np.concatenate(cols[j - 1 :])
        if len({tuple(row) for row in cw[:, above].tolist()}) < sp.q ** len(above):
            top = j
            break
    tops = [max(j for j, c in enumerate(cols, 1) if row[c].any()) for row in cw if row.any()]
    return top, min(tops, default=None)


@pytest.mark.parametrize("chunk", [None, 4])
def test_level_reading_matches_word_set_scan_and_coset_table(chunk, monkeypatch):
    """The level reading of a linear code (covering radius from j*'s
    sub-pass, packing radius from j0's, minimum distance from D0's words,
    and every is_r_perfect(r)) against the explicit word-set scan of the
    same words and the coset table's full pass, covering radius first,
    packing radius first and coset table first.  A small _CHUNK makes
    sub-passes on two or more summands cut their columns."""
    if chunk is not None:
        monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    cut = BlockSpace.cut
    cuts: list[int] = []

    def recording_cut(sp, p):
        cuts.append(p)
        return cut(sp, p)

    monkeypatch.setattr(BlockSpace, "cut", recording_cut)
    rng = random.Random(71)
    seen = set()
    for _ in range(150):
        sp = _level_space(rng)
        rows = random_rows(rng, sp.q, sp.n, rng.randrange(sp.n + 1))
        oracle = Code.explicit(sp, Code.linear(sp, rows).codewords())
        top = sp.weight.max_weight * sp.s
        expect = [oracle.covering_radius()]
        if oracle.size >= 2:
            expect += [oracle.packing_radius(), oracle.min_distance()]
        expect.append([oracle.is_r_perfect(r) for r in range(top + 1)])

        cuts.clear()
        cover_first = Code.linear(sp, rows)
        got = [cover_first.covering_radius()]
        if cover_first.size >= 2:
            got += [cover_first.packing_radius(), cover_first.min_distance()]
        got.append([cover_first.is_r_perfect(r) for r in range(top + 1)])
        assert got == expect
        multi = len(sp.poset.summands()) > 1
        if multi and cuts:
            seen.add("cut")

        pack_first = Code.linear(sp, rows)
        got = []
        if pack_first.size >= 2:
            got += [pack_first.packing_radius(), pack_first.min_distance()]
        got.insert(0, pack_first.covering_radius())
        got.append([pack_first.is_r_perfect(r) for r in range(top + 1)])
        assert got == expect

        # the coset table memoizes its max leader weight as the covering
        # radius and no packing radius, which the level reading then gives
        table_first = Code.linear(sp, rows)
        assert table_first.coset_table().max_weight == expect[0]
        assert table_first.covering_radius() == expect[0]
        if table_first.size >= 2:
            assert table_first.packing_radius() == expect[1]

        top, low = _level_summands(cover_first)
        seen.add((multi, top == 0, low is None))
        if multi and top and low is not None:
            seen.add("shared" if top == low else "apart")
        if any(len(part) > 1 for part in sp.poset.summands()[1:]):
            seen.add("wide upper summand")
    # one and several summands, C = F_q^n and C = 0 on several, j* = j0
    # and j* != j0, and a summand above the bottom that is not one element
    assert {(False, False, False), (True, False, False)} <= seen
    assert {(True, True, False), (True, False, True), "shared", "apart"} <= seen
    assert "wide upper summand" in seen
    assert ("cut" in seen) == (chunk is not None)


def _sp_poset(rng, budget):
    """A seeded poset of at most `budget` elements built by disjoint unions
    and ordinal sums from chains and antichains of 1-2 elements and, now
    and then, the N poset (a leaf that is no ordinal sum and connected), so
    that sums of unions and unions of sums nest."""
    if budget >= 4 and rng.random() < 0.1:
        return _N_POSET
    if budget < 2 or rng.random() < 0.3:
        return rng.choice([P.chain, P.antichain])(rng.randrange(1, min(budget, 2) + 1))
    left = rng.randrange(1, budget)
    return rng.choice([P.disjoint_union, P.linear_sum])(
        _sp_poset(rng, left), _sp_poset(rng, budget - left)
    )


def test_a_node_weighs_its_offset_plus_its_own_space():
    """The offset identity of the tree reading: on seeded series-parallel
    spaces, at every node of the tree, a nonzero vector zero off the node
    weighs M_w times the elements outside the node below one of its
    elements, plus its weight in the node's own space
    (BlockSpace.restrict), under batch_weights and under wpb_weight."""
    rng = random.Random(59)
    offsets, kinds = set(), set()
    for _ in range(60):
        q = rng.choice([2, 3, 4, 5])
        pos = _sp_poset(rng, 6)
        f = make_field(q)
        w = lee_weight(f) if q != 4 and rng.random() < 0.5 else hamming_weight(f)
        sp = BlockSpace(pos, Labeling(tuple(rng.randrange(1, 3) for _ in range(pos.s))), f, w)
        stack = [pos.tree()]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            kinds.add(node.kind)
            inside = set(node.elements)
            below = sum(1 for a in pos.elements() if a not in inside
                        and any(pos.less(a, b) for b in inside))
            offsets.add(below > 0)
            sub, cols = sp.restrict(node.elements), _columns(sp, node.elements)
            local = np.array([[rng.randrange(q) for _ in cols] for _ in range(12)], dtype=np.uint8)
            local = local[local.any(axis=1)]
            full = np.zeros((len(local), sp.n), dtype=np.uint8)
            full[:, cols] = local
            offset = sp.weight.max_weight * below
            assert (sp.batch_weights(full) == offset + sub.batch_weights(local)).all()
            assert [sp.wpb_weight(v) for v in full.tolist()] == [
                offset + sub.wpb_weight(v) for v in local.tolist()]
    assert offsets == {True, False} and kinds == {"series", "parallel", "leaf"}


def _lower(node):
    """A series node without its top summand, as the reading splits it."""
    low = node.children[:-1]
    if len(low) == 1:
        return low[0]
    return P.Node("series", tuple(sorted(e for c in low for e in c.elements)), low)


def _tree_words(rng, sp, node, limit):
    """At most `limit` distinct words zero off a node's columns, shaped by
    its tree: on a parallel node the product of word sets of its parts,
    less one word now and then (|C| = |pi_1 C| * |pi_2 C| - 1, so the
    product test fails by one); on a series node a top projection T, the
    whole top summand now and then, with a fiber of one or several words
    below each top value; anywhere else, or now and then, random words."""
    cols = _columns(sp, node.elements)
    space_rows = blockspace.odometer_table(sp.q, len(cols))

    def anywhere(m):
        out = np.zeros((m, sp.n), dtype=np.uint8)
        out[:, cols] = space_rows[rng.sample(range(len(space_rows)), m)]
        return out

    if node.kind == "leaf" or rng.random() < 0.2:
        return anywhere(rng.randrange(1, min(limit, len(space_rows)) + 1))
    if node.kind == "parallel":
        words = np.zeros((1, sp.n), dtype=np.uint8)
        for child in node.children:
            part = _tree_words(rng, sp, child, 3)
            words = (words[:, None, :] + part[None, :, :]).reshape(-1, sp.n)  # disjoint supports
        if len(words) > 2 and rng.random() < 0.4:
            words = np.delete(words, rng.randrange(len(words)), axis=0)
        return words if len(words) <= limit else anywhere(limit)
    hi_cols = _columns(sp, node.children[-1].elements)
    tops = blockspace.odometer_table(sp.q, len(hi_cols))
    if len(tops) <= limit // 2 and rng.random() < 0.4:
        chosen = range(len(tops))  # T fills the top summand
    else:
        chosen = rng.sample(range(len(tops)), rng.randrange(1, min(len(tops), 3) + 1))
    fibers = []
    for t in chosen:
        fiber = _tree_words(rng, sp, _lower(node), 3)
        fiber[:, hi_cols] = tops[t]
        fibers.append(fiber)
    words = np.concatenate(fibers)
    return words if len(words) <= limit else anywhere(limit)


def _tree_rows(rng, sp, node):
    """Generator rows zero off a node's columns: on a parallel node, now
    and then, the rows of each part (a direct sum along the split), else
    random rows of random rank over all of the node's columns."""
    cols = _columns(sp, node.elements)
    if node.kind == "parallel" and rng.random() < 0.6:
        return np.concatenate([_tree_rows(rng, sp, child) for child in node.children])
    rows = np.zeros((rng.randrange(len(cols) + 1), sp.n), dtype=np.uint8)
    rows[:, cols] = np.array(random_rows(rng, sp.q, len(cols), len(rows)),
                             dtype=np.uint8).reshape(len(rows), len(cols))
    return rows


def _scalar_readings(sp, words):
    """Covering radius, and for two or more words packing radius, minimum
    distance and perfectness, from the scalar wpb_weight of every vector:
    d(v, c) is the weight of v - c, looked up by its odometer rank."""
    allv = sp.all_vectors()
    weight = np.array([sp.wpb_weight(v) for v in allv.tolist()])
    radix = sp.q ** np.arange(sp.n - 1, -1, -1)
    rank = lambda a, b: sp.field.sub_table[a[:, None, :], b[None, :, :]].astype(np.int64) @ radix
    dist = weight[rank(allv, words)]
    out = [int(dist.min(axis=1).max())]
    if len(words) >= 2:
        packing = int(np.sort(dist, axis=1)[:, 1].min()) - 1
        pairs = weight[rank(words, words)][~np.eye(len(words), dtype=bool)]
        out += [packing, int(pairs.min()), bool(((dist <= packing).sum(axis=1) == 1).all())]
    return out


def _splits_taken(code):
    """The kinds of split a code's readings took on its tree, walking the
    plan of each reading it memoized (Code._plan, priced: a priced plan
    does not depend on the memo, so it is the plan the reading took)
    through the codes of its parts, each on its node's own space, with the
    offset at which each sits in the code's space: M_w times the elements
    below its node."""
    taken = set()
    readings = ("covering_radius", "packing_radius", "min_distance")
    stack = [(what, code._plan(what)[1], 0, code) for what in readings if what in code._memo]
    while stack:
        what, plan, offset, part = stack.pop()
        node = part.space.poset.tree()
        if part._parts == () and node.kind == "parallel":
            taken.add((code.kind, "no product"))
        if plan is None:
            continue
        stack.extend((what, dep_plan, offset + o, dep) for o, dep, dep_plan in plan)
        if node.kind == "parallel":
            taken.add((code.kind, "parallel"))
            values = [dep._combine(what, dep_plan) for _, dep, dep_plan in plan]
            if what == "covering_radius" and offset and sum(map(bool, values)) > 1:
                taken.add("offset sum")
            continue
        # read from the top summand, or from below it: a linear code's
        # D (j* below the top) or D0 (j0 below it), an explicit code's
        # fibers; the top summand's offset is M_w times the elements
        # below it, and a lower summand's is smaller
        under_top = part.space.s - len(node.children[-1].elements)
        if all(o == part.space.weight.max_weight * under_top for o, _, _ in plan):
            taken.add((code.kind, "top"))
            continue
        taken.add((code.kind, "top filled" if what == "covering_radius" else "fibers"))
        if code.kind == "explicit" and any(f.size > 1 for _, f, _ in plan):
            taken.add((code.kind, "fiber of several words"))
    return taken


def test_tree_reading_matches_scalar_brute_force(monkeypatch):
    """Covering radius, packing radius, minimum distance and is_perfect of
    linear and explicit codes on series-parallel posets (disjoint unions,
    ordinal sums and sums of unions, blocks of 1-2 coordinates, GF(2),
    GF(3), GF(4), GF(5) under the Hamming and Lee weights) against the
    scalar brute force.  A small _CHUNK, and a split price of an eighth of
    it, make every reading take the splits that lower its cost, so parallel
    splits (products, and word sets that fail the product test by one
    word), series splits through fibers of one and of several words, a top
    projection that fills the top summand, and parallel splits above lower
    summands (where the parts' offsets must not add up) all occur."""
    monkeypatch.setattr(codes_module, "_CHUNK", 8)
    monkeypatch.setattr(codes_module, "_SPLIT_PRICE", 1)
    rng = random.Random(97)
    seen, qs = set(), set()
    for case in range(240):
        q = (2, 3, 4, 5)[case % 4]
        pos = _sp_poset(rng, {2: 5, 3: 5, 4: 4, 5: 3}[q])  # q^s <= 256
        f = make_field(q)
        w = lee_weight(f) if q != 4 and rng.random() < 0.5 else hamming_weight(f)
        while True:
            sizes = tuple(rng.randrange(1, 3) for _ in range(pos.s))
            if q ** sum(sizes) <= 256:
                break
        sp = BlockSpace(pos, Labeling(sizes), f, w)
        if case % 2:
            code = Code.linear(sp, _tree_rows(rng, sp, pos.tree()))
        else:
            code = Code.explicit(sp, _tree_words(rng, sp, pos.tree(), 24))
        got = [code.covering_radius()]
        if code.size >= 2:
            got += [code.packing_radius(), code.min_distance(), code.is_perfect()]
        assert got == _scalar_readings(sp, code.codeword_array()), (case, sp, code.size)
        seen |= _splits_taken(code)
        qs.add(q)
    assert qs == {2, 3, 4, 5}
    for kind in ("linear", "explicit"):
        assert {(kind, "parallel"), (kind, "top"), (kind, "top filled"), (kind, "fibers")} <= seen
    assert {("explicit", "no product"), ("explicit", "fiber of several words")} <= seen
    assert "offset sum" in seen


def _verify_sized():
    """A GF(2) Hamming space on a chain of four 2-blocks (256 vectors) and
    23 distinct seeded words: a radius pass of 5,888 entries, the size of
    verify's covering-oracle word sets."""
    words = np.random.default_rng(7).integers(0, 2, size=(24, 8), dtype=np.uint8)
    return space(2, P.chain(4), (2,) * 4), words


def test_a_code_priced_below_a_split_is_never_searched(monkeypatch):
    """A code whose leaf costs at most _SPLIT_PRICE reads as a leaf, and its
    split, which could not cost less, is never searched or built: every
    reading of a verify-sized explicit code on a chain, which has a split,
    runs without calling Code._split and matches the scalar brute force."""
    sp, words = _verify_sized()
    monkeypatch.setattr(Code, "_split", _refuse)
    code = Code.explicit(sp, words)
    got = [code.covering_radius(), code.packing_radius(), code.min_distance(), code.is_perfect()]
    assert got == _scalar_readings(sp, code.codeword_array())
    for what in ("covering_radius", "packing_radius", "min_distance"):
        cost, plan = code._plan(what)
        assert cost <= codes_module._SPLIT_PRICE and plan is None
    monkeypatch.undo()
    assert Code.explicit(sp, words)._split()


@pytest.mark.parametrize("kind", ["linear", "explicit"])
def test_a_group_of_components_that_do_not_factor_is_searched_once(kind, monkeypatch):
    """Over GF(2) on the 3-antichain of 1-blocks, the code spanned by 110
    and 001 is {00, 11} on elements 1 and 2, which do not factor, times F_2
    on element 3.  The unpriced covering plan searches the parallel split
    at the root once: the {1, 2} part comes with its split known, (), and
    is never searched again.  With both radii read through the split
    (under a cap of the most entries a reading's plan of fewest entries
    charges, below each radius leaf's), the readings match the scalar brute
    force."""
    sp = space(2, P.antichain(3), (1, 1, 1))
    linear = Code.linear(sp, [[1, 1, 0], [0, 0, 1]])
    code = linear if kind == "linear" else Code.explicit(sp, linear.codewords())
    searched = []
    parallel = Code._parallel

    def counting(self, *args):
        searched.append(self)
        return parallel(self, *args)

    monkeypatch.setattr(Code, "_parallel", counting)
    plan = code._plan("covering_radius", priced=False)[1]
    assert searched == [code] and plan is not None
    pair = next(part for _, part, _ in plan if part.space.n == 2)
    assert pair._parts == () and pair.size == 2
    readings = ("covering_radius", "packing_radius", "min_distance")
    cap = max(code._plan(what, priced=False)[0] for what in readings)
    assert all(cap < code._leaf(what)[0] for what in readings[:2])
    with enumeration_cap(cap):
        got = [code.covering_radius(), code.packing_radius(), code.min_distance(),
               code.is_perfect()]
    assert got == _scalar_readings(sp, code.codeword_array())
    assert searched == [code]


def test_a_split_that_fits_the_cap_answers_where_the_leaf_does_not():
    """Under a cap below the leaf's entries, the same verify-sized code,
    which its price reads as a leaf, reads through its split, whose leaves
    charge fewer entries (the plan of fewest entries, Code._plan unpriced,
    whose leaves the reading reads): it answers as without the cap, and a
    cap one below the fewest entries raises SpaceTooLarge naming them."""
    sp, words = _verify_sized()
    for what, fewest in (("covering_radius", 60), ("packing_radius", 56), ("min_distance", 28)):
        want = getattr(Code.explicit(sp, words), what)()
        with enumeration_cap(fewest - 1), pytest.raises(SpaceTooLarge, match=f"= {fewest} exc"):
            getattr(Code.explicit(sp, words), what)()
        code = Code.explicit(sp, words)
        assert code._plan(what)[1] is None and code._leaf(what)[0] > fewest
        cost, plan = code._plan(what, priced=False)
        assert plan is not None and cost == fewest
        assert sum(leaf._leaf(what)[0] for leaf in code._leaves(plan)) == fewest
        with enumeration_cap(fewest):
            assert getattr(code, what)() == want
        assert all(what in leaf._memo for leaf in code._leaves(plan))


def test_a_cheaper_leaf_case_is_priced_read_and_charged(monkeypatch):
    """A second, cheaper case for one reading, added by wrapping Code._leaf,
    is the case the reading takes.  The verify-sized explicit code's own
    covering leaf costs more entries than its split's leaves (60), so its
    plan of fewest entries splits; with a 12-entry case on the code's own
    space, both plans price the code as that leaf, a cap one below its
    entries raises SpaceTooLarge naming 12 before any read runs, and under
    a cap of 12 the reading runs the case's read and returns its value, 99,
    which no covering radius on the 8 coordinates reaches."""
    sp, words = _verify_sized()
    assert Code.explicit(sp, words)._plan("covering_radius", priced=False)[0] == 60
    leaf, ran, entries = Code._leaf, [], 12

    def cheaper(self, what):
        if what != "covering_radius" or self.space is not sp:
            return leaf(self, what)

        def read():
            ran.append(self)
            self._memo[what] = 99
        return entries, read

    monkeypatch.setattr(Code, "_leaf", cheaper)
    code = Code.explicit(sp, words)
    assert code._plan("covering_radius") == (codes_module._CHUNK // 8 + entries, None)
    assert code._plan("covering_radius", priced=False) == (entries, None)
    with enumeration_cap(entries - 1), pytest.raises(SpaceTooLarge, match=f"= {entries} exc"):
        code.covering_radius()
    assert ran == [] and not code._memo
    with enumeration_cap(entries):
        assert code.covering_radius() == 99
    assert ran == [code]


def test_a_deep_chain_reads_its_fibers_through_the_top_summand():
    """40 seeded words on a GF(2) chain of blocks (3, 3, 2, 2, 3, 3), 2^16
    vectors: the covering and packing readings split at the root into the
    fibers below the top summand, and every fiber splits again rather than
    reading its 2^13 vectors whole, so the split price stays below what a
    split saves on a deep chain.  Every reading equals the code's own leaf
    reading."""
    sp = space(2, P.chain(6), (3, 3, 2, 2, 3, 3))
    words = np.random.default_rng(28).integers(0, 2, size=(40, 16), dtype=np.uint8)
    for what in ("covering_radius", "packing_radius", "min_distance"):
        leaf = Code.explicit(sp, words)
        leaf._leaf(what)[1]()
        code = Code.explicit(sp, words)
        assert getattr(code, what)() == leaf._memo[what]
        plan = code._plan(what)[1]  # priced, the plan the reading took
        if what == "min_distance":  # 40 x 40 entries, a leaf
            assert plan is None
            continue
        assert len(plan) == 8
        for offset, fiber, fiber_plan in plan:
            assert offset == 0 and fiber.space is sp.restrict((1, 2, 3, 4, 5))
            assert fiber_plan is not None


def _chain_code(rng, kind, k):
    """A GF(2) Hamming code of dimension k on a 30-block chain of single
    coordinates, linear or as its word set."""
    f = make_field(2)
    sp = BlockSpace(P.chain(30), Labeling((1,) * 30), f, hamming_weight(f))
    while True:
        code = Code.linear(sp, random_rows(rng, 2, 30, k))
        if code.dimension == k:
            return code if kind == "linear" else Code.explicit(sp, code.codeword_array())


@pytest.mark.parametrize("kind, k1, k2", [("linear", 5, 25), ("explicit", 5, 5)])
def test_disjoint_sum_of_two_30_block_chains(kind, k1, k2):
    """The disjoint direct sum of two codes on 30-block GF(2) chains (n = 60,
    2^60 vectors) answers all three queries under the default cap: d is the
    smaller part's, R the sum of the parts' and rho the smaller part's, each
    part read on its own chain."""
    rng = random.Random(k1 + k2)
    c1, c2 = _chain_code(rng, kind, k1), _chain_code(rng, kind, k2)
    f = make_field(2)
    sp = BlockSpace(P.disjoint_union(c1.space.poset, c2.space.poset), Labeling((1,) * 60), f,
                    hamming_weight(f))
    if kind == "linear":
        rows = np.zeros((k1 + k2, 60), dtype=np.uint8)
        rows[:k1, :30] = c1._rows
        rows[k1:, 30:] = c2._rows
        code = Code.linear(sp, rows)
    else:
        w1, w2 = c1.codeword_array(), c2.codeword_array()
        code = Code.explicit(sp, np.concatenate(
            [np.repeat(w1, len(w2), axis=0), np.tile(w2, (len(w1), 1))], axis=1))
    assert code.size == c1.size * c2.size
    assert code.min_distance() == min(c1.min_distance(), c2.min_distance())
    assert code.covering_radius() == c1.covering_radius() + c2.covering_radius()
    assert code.packing_radius() == min(c1.packing_radius(), c2.packing_radius())


def test_trailing_full_index_reads_ranks_like_the_suffix_loop():
    """A linear code's trailing_full_index comes from its level echelon form
    (j*), an explicit one's from the suffix loop over the codewords, the
    oracle here; on chains whose order is not the labeling order as well."""
    rng = random.Random(41)
    seen = set()
    for _ in range(80):
        s_count = rng.randrange(1, 5)
        order = rng.sample(range(1, s_count + 1), s_count)
        pos = P.from_cover_relations(s_count, list(zip(order, order[1:])))
        q = rng.choice([2, 3, 5])
        while True:
            sizes = tuple(rng.randrange(1, 3) for _ in range(s_count))
            if q ** sum(sizes) <= 729:
                break
        sp = space(q, pos, sizes)
        code = Code.linear(sp, random_rows(rng, q, sp.n, rng.randrange(sp.n + 1)))
        r = code.trailing_full_index()
        assert r == Code.explicit(sp, code.codewords()).trailing_full_index()
        seen.add("full" if r == 0 else "top" if r == s_count else "between")
    assert seen == {"full", "top", "between"}


def test_explicit_trailing_full_index_leaves_numpy_ma_unimported():
    """Counting an explicit code's distinct projections sorts its rows and
    imports nothing more: np.unique would import numpy.ma, tens of ms, on
    its first call in a process."""
    script = (
        "import sys\n"
        "from wpbcodes.blockspace import BlockSpace, Labeling\n"
        "from wpbcodes.codes import Code\n"
        "from wpbcodes.field import make_field\n"
        "from wpbcodes.poset import chain\n"
        "from wpbcodes.weights import hamming_weight\n"
        "f = make_field(2)\n"
        "sp = BlockSpace(chain(2), Labeling((1, 1)), f, hamming_weight(f))\n"
        "assert Code.explicit(sp, [(0, 0), (0, 1), (1, 1)]).trailing_full_index() == 1\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(codes_module.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_codewords_rise_in_odometer_order_inside_every_coset():
    """The coset table's tie-break (codes module docstring): for every x
    zero on a linear code's pivot columns, the odometer ranks of x + c over
    the rows c of codeword_array() strictly increase, so the first word
    reaching a row minimum of the coset pass gives the coset's first
    minimum-weight vector.  Seeded spaces over q in {2, 3, 4, 5, 7} with
    blocks of 1-3 coordinates and generators of every rank k = 0..n."""
    rng = random.Random(29)
    qs, sizes, full = set(), set(), set()
    for _ in range(40):
        sp = _level_space(rng)
        radix = sp.q ** np.arange(sp.n - 1, -1, -1, dtype=np.int64)
        for k in range(sp.n + 1):
            code = Code.linear(sp, random_rows(rng, sp.q, sp.n, k))
            free = [c for c in range(sp.n) if c not in code.pivots]
            x = np.zeros((sp.q ** len(free), sp.n), dtype=np.uint8)
            x[:, free] = blockspace.odometer_table(sp.q, len(free))
            cw = code.codeword_array()
            ranks = sp.field.add_table[x[:, None, :], cw[None, :, :]].astype(np.int64) @ radix
            assert (np.diff(ranks, axis=1) > 0).all()
            full.add(code.dimension == k)
        qs.add(sp.q)
        sizes.update(sp.labeling.sizes)
    assert qs == {2, 3, 4, 5, 7} and sizes == {1, 2, 3} and full == {True, False}


def _coset_index_reference(code, v):
    """The coset index of v by the scalar canonical form: each generator
    clears its pivot, then the free coordinates are ranked in Python ints."""
    f, canon = code.space.field, list(v)
    for g, p in zip(code.generators, code.pivots):
        c = canon[p]
        canon = [f.sub(x, f.mul(c, y)) for x, y in zip(canon, g)]
    index = 0
    for c in code._free:
        index = index * code.space.q + canon[c]
    return index


def test_coset_indices_match_the_scalar_canonical_form():
    """coset_indices of every vector against the scalar reference, and
    coset_index as its one-row case; beyond int64 (3^55 cosets) the indices
    are exact Python ints."""
    rng = random.Random(43)
    for _ in range(20):
        code = _random_linear_code(rng)
        allv = code.space.all_vectors()
        got = code.coset_indices(allv).tolist()
        assert got == [_coset_index_reference(code, v) for v in allv.tolist()]
        assert got == [code.coset_index(v) for v in allv.tolist()]
    sp = space(3, P.chain(30), (2,) * 30)
    code = Code.linear(sp, random_rows(rng, 3, sp.n, 5))
    vs = [tuple(rng.randrange(3) for _ in range(sp.n)) for _ in range(5)]
    assert code.coset_indices(vs).tolist() == [_coset_index_reference(code, v) for v in vs]
    assert max(code.coset_indices(vs).tolist()) > np.iinfo(np.int64).max
    with pytest.raises(NotLinear):
        rep3().coset_indices([(0, 0, 0)])


_N_POSET = P.from_cover_relations(4, [(1, 3), (2, 3), (2, 4)])  # connected, no ordinal sum
_CAPPED_SPACE = space(3, P.chain(2), (1, 2), "lee")  # q^n = 27
# the same blocks on one summand, where the level reading is the full pass
_CAPPED_FLAT = space(3, P.antichain(2), (1, 2), "lee")
_CAPPED_GENERATORS = [(1, 2, 0), (0, 1, 1)]  # q^k = 9
_CAPPED_WORDS = [(0, 0, 0), (1, 2, 0), (2, 2, 1)]  # q^n * |C| = 81
_CAPPED_PRODUCT = [(a, b, 2 * b) for a in (0, 1) for b in (0, 1)]
_CAPPED_GRAPH = [((b + c) % 3, b, c) for b in range(3) for c in range(3)]
# entry point -> (the count it charges, a call on fresh objects)
_CAPPED = {
    "all_vectors": (27, lambda s: s.all_vectors()),
    "ball": (27, lambda s: s.ball(s.zero(), 1)),
    "weight_spectrum": (2, lambda s: s.weight_spectrum()),  # DP states on a 2-chain
    "linear min_distance": (
        9, lambda s: Code.linear(_CAPPED_FLAT, _CAPPED_GENERATORS).min_distance()
    ),
    "linear covering_radius": (
        27, lambda s: Code.linear(_CAPPED_FLAT, _CAPPED_GENERATORS).covering_radius()
    ),
    # on the 2-chain C fills block 2 (j0 = 2, D0 = F_3^2: 9 words, 9 pass
    # entries) and misses block 1 (j* = 1, D = 0: q^1 pass entries); that
    # pass runs in block 1's own space and charges its piece plan, 1
    # column, below the pass's 3
    "level min_distance": (9, lambda s: Code.linear(s, _CAPPED_GENERATORS).min_distance()),
    "level covering_radius": (3, lambda s: Code.linear(s, _CAPPED_GENERATORS).covering_radius()),
    "level packing_radius": (9, lambda s: Code.linear(s, _CAPPED_GENERATORS).packing_radius()),
    "linear coset_table": (27, lambda s: Code.linear(s, _CAPPED_GENERATORS).coset_table()),
    # the words do not factor on the antichain, whose tree is then one leaf
    "explicit covering_radius": (
        81, lambda s: Code.explicit(_CAPPED_FLAT, _CAPPED_WORDS).covering_radius()
    ),
    # split readings charge the sum of their leaves before the first runs:
    # {0, 1} x {00, 12} on the antichain, 3 * 2 + 9 * 2 pass entries
    "parallel explicit covering_radius": (
        24, lambda s: Code.explicit(_CAPPED_FLAT, _CAPPED_PRODUCT).covering_radius()
    ),
    # on the 2-chain every top value has one word, so T = F_3^2 and each of
    # the 9 one-word fibers takes 3 pass entries
    "series explicit covering_radius": (
        27, lambda s: Code.explicit(s, _CAPPED_GRAPH).covering_radius()
    ),
    # the generators lie in the two blocks, both parts two or more words:
    # F_3 (1 x 3 entries) and span(12) (3 x 3)
    "parallel linear packing_radius": (
        12, lambda s: Code.linear(_CAPPED_FLAT, [(1, 0, 0), (0, 1, 2)]).packing_radius()
    ),
    # the n = 20 coordinates of a fresh GF(2) space with blocks of 9 and 11
    "piece plan": (
        20,
        lambda s: space(2, P.antichain(2), (9, 11)).batch_weights(np.zeros((1, 20), np.uint8)),
    ),
}


@pytest.mark.parametrize("entry", _CAPPED)
def test_each_entry_point_charges_its_count(entry, monkeypatch):
    """A cap one below the entry point's count raises SpaceTooLarge naming
    the count; a cap equal to it runs, or, where a later charge is larger,
    a cap one below that one raises naming it and a cap equal to it runs.
    Charges do not depend on what ran before (the kernels are shared), so
    each entry holds alone and in any order.  A _CHUNK of 1 runs every
    pass in the smallest tiles.  Where the code read whole exceeds a cap
    that a split reading fits, the reading takes its fewest entries (the
    unpriced Code._plan), whatever the split price."""
    monkeypatch.setattr(codes_module, "_CHUNK", 1)
    count, call, *later = _CAPPED[entry]
    for cap in (count, *later):
        with enumeration_cap(cap - 1), pytest.raises(SpaceTooLarge, match=f" = {cap} exceeds"):
            call(_CAPPED_SPACE)
    with enumeration_cap(cap):
        call(_CAPPED_SPACE)


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the charge")


def test_explicit_min_distance_charges_its_entries_first(monkeypatch):
    """An explicit code's minimum distance charges its |C|^2 entries, the
    words' rows against the words, before the first pair-kernel call.  The
    space is small enough that its piece plan (3 entries) fits the cap
    as well.  No coordinate's projection is a factor of the words, so the
    antichain reads them as one leaf."""
    s = space(2, P.antichain(3), (1,) * 3)
    words = [s.unrank(r) for r in range(1, 7)]  # 6 x 6 entries
    monkeypatch.setattr(BlockSpace, "pair_weights", _refuse)
    with enumeration_cap(35), pytest.raises(SpaceTooLarge, match="pairs = 36 exceeds"):
        Code.explicit(s, words).min_distance()
    monkeypatch.undo()
    with enumeration_cap(36):
        assert Code.explicit(s, words).min_distance() == 1


def test_explicit_pass_charges_its_pairs_first(monkeypatch):
    """The word-set pass charges q^n * |C| vector x word pairs, not q^n,
    before the first pair-kernel call: here q^n = 16 fits the cap and the
    48 pairs do not.  The N poset is one leaf of its decomposition tree, so
    the pass runs on all of F_q^n."""
    s = space(2, _N_POSET, (1,) * 4)
    words = [(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)]
    monkeypatch.setattr(BlockSpace, "pair_weights", _refuse)
    with enumeration_cap(47):
        for query in ("covering_radius", "packing_radius", "is_perfect"):
            with pytest.raises(SpaceTooLarge, match="pairs = 48 exceeds"):
                getattr(Code.explicit(s, words), query)()
    monkeypatch.undo()
    with enumeration_cap(48):
        assert Code.explicit(s, words).covering_radius() == 3


def test_explicit_min_distance_on_a_2000_element_antichain():
    """An explicit d of 64 seeded random words on a 2,000-block GF(2)
    antichain of one-coordinate blocks, read as one leaf: its 2^2000
    block-max tuples have no table, so every entry takes the kernel's
    top-down pass over the covers, of which an antichain has none.  The
    metric is Hamming's, so d is the least Hamming distance of two words."""
    s = space(2, P.antichain(2000), (1,) * 2000)
    words = np.random.default_rng(24).integers(0, 2, size=(64, 2000), dtype=np.uint8)
    pairs = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    want = pairs[~np.eye(64, dtype=bool)].min()
    start = time.perf_counter()
    assert Code.explicit(s, words.tolist()).min_distance() == want
    assert s._kernel.radix is None
    assert time.perf_counter() - start < 2


# a wrapper that runs `python -c argv[1]` as its one child, passes its
# stdout through, then prints the child's peak RSS in MB
_MEASURED = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n"
    "sys.exit(code)\n"
)
_SPACE_SCRIPT = (
    "import numpy as np\n"
    "from wpbcodes.blockspace import BlockSpace, Labeling\n"
    "from wpbcodes.codes import Code\n"
    "from wpbcodes.field import make_field\n"
    "from wpbcodes.poset import antichain\n"
    "from wpbcodes.weights import hamming_weight\n"
    "f = make_field(2)\n"
    "sp = BlockSpace(antichain({s}), Labeling(({size},) * {s}), f, hamming_weight(f))\n"
)


def _measured(script: str) -> tuple[list[str], float]:
    """The stdout words of a script run in a fresh process and that
    process's peak RSS in MB, read with resource.getrusage(RUSAGE_CHILDREN)
    in a wrapper whose only child it is."""
    src = str(Path(codes_module.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", _MEASURED, script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    *out, peak = run.stdout.split()
    return out, float(peak)


def _antichain_generators(k: int) -> np.ndarray:
    """k seeded generator rows over GF(2) on the 16-element antichain of
    2-blocks (32 coordinates)."""
    return np.random.default_rng(1).integers(0, 2, size=(k, 32), dtype=np.uint8)


def _gf2_rank(masks) -> int:
    """The rank over GF(2) of rows given as int bit masks, by elimination."""
    pivots: dict[int, int] = {}
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in pivots:
                pivots[top] = m
                break
            m ^= pivots[top]
    return len(pivots)


def _least_blocks_holding_a_word(gens: np.ndarray, size: int) -> int:
    """The rank oracle of a linear d under the Hamming weight on an
    antichain of blocks of `size` coordinates, where a word weighs its
    nonzero blocks: the least b such that some b blocks B hold a nonzero
    codeword, i.e. k - rank(G on the columns outside B) > 0."""
    n = gens.shape[1]
    rows = [int("".join(map(str, row)), 2) for row in gens.tolist()]
    k = _gf2_rank(rows)
    block = (1 << size) - 1
    for b in range(1, n // size + 1):
        for blocks in itertools.combinations(range(n // size), b):
            outside = (1 << n) - 1
            for i in blocks:
                outside &= ~(block << (n - size * (i + 1)))
            if _gf2_rank(r & outside for r in rows) < k:
                return b
    raise AssertionError("no set of blocks holds a nonzero word")


@pytest.mark.parametrize("k", [16, 20])
def test_streamed_linear_min_distance_matches_the_rank_oracle(k):
    """A linear d of q^k > _CHUNK words streams its span in message-order
    chunks and keeps the least nonzero weight: on the 16-element antichain
    of 2-blocks over GF(2) (one leaf, as seeded rows join every block) it
    equals the rank oracle and the least weight of the listed words."""
    sp = space(2, P.antichain(16), (2,) * 16)
    gens = _antichain_generators(k)
    code = Code.linear(sp, gens)
    assert code.size > codes_module._CHUNK
    d = code.min_distance()
    assert d == _least_blocks_holding_a_word(gens, 2)
    assert d == sp.batch_weights(code.codeword_array()[1:]).min()


def test_linear_min_distance_at_the_cap_in_bounded_memory():
    """The k = 24 d on the 16-element antichain of 2-blocks is admitted at
    exactly the default cap (2^24 words); streamed, it peaks below 256 MB
    in a fresh process (listed whole it took 6.7 GB), and it equals the
    rank oracle."""
    gens = _antichain_generators(24)
    out, peak = _measured(_SPACE_SCRIPT.format(s=16, size=2) + (
        "gens = np.random.default_rng(1).integers(0, 2, size=(24, 32), dtype=np.uint8)\n"
        "print(Code.linear(sp, gens).min_distance())\n"
    ))
    assert int(out[0]) == _least_blocks_holding_a_word(gens, 2)
    assert peak < 256


def test_explicit_min_distance_of_128_words_in_bounded_memory():
    """An explicit d of 128 seeded words on the 2,000-block GF(2) antichain
    of 1-blocks (one leaf, one piece per block): its whole-row tiles are
    sized by pieces x rows x words, so it peaks below 100 MB in a fresh
    process (419 MB with tiles of rows x words), and it is the least
    Hamming distance of two words."""
    words = np.random.default_rng(24).integers(0, 2, size=(128, 2000), dtype=np.uint8)
    out, peak = _measured(_SPACE_SCRIPT.format(s=2000, size=1) + (
        "words = np.random.default_rng(24).integers(0, 2, size=(128, 2000), dtype=np.uint8)\n"
        "print(Code.explicit(sp, words).min_distance())\n"
    ))
    ones = words.astype(np.int64)
    counts = ones.sum(axis=1)
    pairs = counts[:, None] + counts[None, :] - 2 * ones @ ones.T
    assert int(out[0]) == pairs[~np.eye(128, dtype=bool)].min()
    assert peak < 100


def test_explicit_min_distance_over_row_chunks_and_word_blocks_in_bounded_memory():
    """An explicit d of 300 seeded words on the 2,000-block GF(2) antichain
    of 1-blocks at the default constants: a tile holds pairs =
    min(_CHUNK, _TILE // 2000) = 262 pairs, fewer than the rows and the
    words, so its whole-row pass runs chunks of 262 rows, each against
    blocks of one word.  In a fresh process it peaks below 100 MB, and it
    is the least Hamming distance of two words."""
    assert min(codes_module._CHUNK, codes_module._TILE // 2000) == 262
    words = np.random.default_rng(30).integers(0, 2, size=(300, 2000), dtype=np.uint8)
    out, peak = _measured(_SPACE_SCRIPT.format(s=2000, size=1) + (
        "words = np.random.default_rng(30).integers(0, 2, size=(300, 2000), dtype=np.uint8)\n"
        "print(Code.explicit(sp, words).min_distance())\n"
    ))
    ones = words.astype(np.int64)
    counts = ones.sum(axis=1)
    pairs = counts[:, None] + counts[None, :] - 2 * ones @ ones.T
    assert int(out[0]) == pairs[~np.eye(300, dtype=bool)].min()
    assert peak < 100


def test_passes_over_more_words_than_a_tile_in_bounded_memory():
    """The passes of a linear code with q^k > _CHUNK words take them in
    blocks, listed and coded once each, never all at once: the even-weight
    code of length 21 over GF(2) (2^20 words, one leaf on the antichain of
    1-blocks) reads packing radius 0, covering radius 1, d = 2 and the coset
    table of leaders 0 and (0, ..., 0, 1) in a fresh process below 100 MB
    (about 400 MB with the words listed whole)."""
    out, peak = _measured(_SPACE_SCRIPT.format(s=21, size=1) + (
        "gens = np.concatenate([np.eye(20, dtype=np.uint8), np.ones((20, 1), np.uint8)], axis=1)\n"
        "code = Code.linear(sp, gens)\n"
        "table = code.coset_table()\n"
        "ones = [r.index(1) if any(r) else -1 for r in table.leaders.tolist()]\n"
        "print(code.packing_radius(), code.covering_radius(), code.min_distance(),\n"
        "      *table.weights.tolist(), *ones)\n"
    ))
    assert out == ["0", "1", "2", "0", "1", "-1", "20"]
    assert peak < 100


def _counting_reads(monkeypatch) -> list[str]:
    """The names of the passes and batch_weights calls made from here on."""
    calls: list[str] = []
    for owner, name in ((Code, "_pass"), (BlockSpace, "batch_weights")):
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return calls


def _read_all(code):
    return code.covering_radius(), code.packing_radius(), code.min_distance()


def test_equal_codes_share_one_memo_inside_shared_memos(monkeypatch):
    """Inside shared_memos, a code equal to an earlier one (same kernel,
    kind and reduced rows, on a space built anew) reads covering, packing,
    d and its coset table with no pass and no batch_weights call, and gets
    the same CosetTable; codes that differ in weight table, poset, block
    sizes, kind (its words, or its generator rows as words) or rows run
    their own passes, and so does an equal code after the block, also one
    left by an error, or past the memo bound."""
    calls = _counting_reads(monkeypatch)
    rows, other_rows = [(1, 2, 3)], [(0, 1, 4)]

    def chain_code(gens=rows, weight="hamming", pos=None, sizes=(1, 2)):
        return Code.linear(space(5, pos or P.chain(2), sizes, weight), gens)

    fresh = chain_code()
    readings, table = _read_all(fresh), fresh.coset_table()
    with codes_module.shared_memos():
        first = chain_code()
        assert _read_all(first) == readings and "_pass" in calls and "batch_weights" in calls
        first_table = first.coset_table()
        assert _table_tuples(first_table) == _table_tuples(table)
        differing = [
            chain_code(weight="lee"),
            chain_code(pos=P.antichain(2)),
            chain_code(sizes=(2, 1)),
            Code.explicit(first.space, first.codeword_array()),
            Code.explicit(first.space, rows),  # the same rows, another kind
            chain_code(other_rows),
        ]
        for code in differing:
            calls.clear()
            code.covering_radius()
            assert calls == ["_pass"]
        calls.clear()
        again = chain_code([(2, 4, 1)])  # 2 * (1, 2, 3), equal once reduced
        assert _read_all(again) == readings and again.coset_table() is first_table
        assert calls == []
    assert codes_module._shared.get() is None
    assert chain_code().covering_radius() == readings[0] and calls == ["_pass"]

    with pytest.raises(KeyError):
        with codes_module.shared_memos():
            chain_code().covering_radius()
            raise KeyError("left by an error")
    calls.clear()
    assert chain_code().covering_radius() == readings[0] and calls == ["_pass"]

    monkeypatch.setattr(codes_module, "_SHARED_CODES", 1)
    with codes_module.shared_memos():
        chain_code().covering_radius()
        chain_code(other_rows).covering_radius()  # past the bound: its own memo
        calls.clear()
        chain_code().covering_radius()
        assert calls == []
        chain_code(other_rows).covering_radius()
        assert calls == ["_pass"]
