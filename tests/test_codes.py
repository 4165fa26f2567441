import itertools
import os
import random
import subprocess
import sys
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
        pos = list(P.all_posets(s_count))[rng.randrange(len(list(P.all_posets(s_count))))]
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
        all_p = list(P.all_posets(s_count))
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
    """Record the pairs of every pair-kernel call on sp, and the pairs and
    dtype of every tile made through a cut (head rows x words x tail rows),
    inside the block."""
    kernel, cut_weights = sp.pair_weights, blockspace._Cut.weights
    tiles = _Tiles([], [])

    def counted(left, right=None):
        w = kernel(left, right)
        tiles.kernel.append(w.size)
        return w

    def counted_cut(cut, head, tail):
        w = cut_weights(cut, head, tail)
        tiles.cut.append((w.size, w.dtype))
        return w

    sp.pair_weights = counted
    blockspace._Cut.weights = counted_cut
    try:
        yield tiles
    finally:
        del sp.pair_weights
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
            split.add(len(sp._kernel.plan().extra) > 0)

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

            assert (table.weights, table.leaders) == _brute_force_table(code)
        # k = 0, k = n and q^k > _CHUNK all occur
        assert {d[0] for d in dims} == {d[1] for d in dims} == {True, False}
        if chunk is not None:
            assert any(d[2] for d in dims)
        assert split == ({False} if piece_codes > 1 else {True, False})


@pytest.mark.parametrize("chunk", [1, 5])
def test_explicit_pass_matches_scalar_brute_force(chunk, monkeypatch):
    """The explicit word-set pass and the pairwise minimum distance against
    scalar distances, covering radius first and packing radius first (one
    pass gives both either way).  A small _CHUNK splits the words over
    several tiles, the vectors over many and the word pairs across rows; no
    tile may exceed its bound (_assert_tile_bounds).  A second round with
    _PIECE_CODES at 1 cuts the blocks into single-coordinate pieces, so
    every block of two coordinates is split."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    for piece_codes in (blockspace._PIECE_CODES, 1):
        monkeypatch.setattr(blockspace, "_PIECE_CODES", piece_codes)
        rng = random.Random(53)
        sizes, split = set(), set()
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
            split.add(len(sp._kernel.plan().extra) > 0)

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
    passes: list = []  # per pass: one tile holds it, a row's words fill a tile, its cuts

    def recording_cut(sp, p):
        seen.append(p)
        return cut(sp, p)

    def recording_pass(code, cols, words, leaders=False):
        start = len(seen)
        out = run(code, cols, words, leaders)
        q = code.space.q
        passes.append((q ** len(cols) * len(words) <= chunk, q * len(words) > chunk, seen[start:]))
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
            split.add(len(sp._kernel.plan().extra) > 0)
            # the reading's leaf passes, then the coset table's full pass
            assert passes
            for one_tile, word_blocks, at in passes:
                assert len(at) == (0 if one_tile or word_blocks else 1)
                if at:
                    cuts.add("boundary" if at[0] in sp.labeling.offsets else "inside")
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
            assert (table.weights, table.leaders) == _brute_force_table(code)
        assert kinds == {"linear", "explicit"}
        assert cuts == {"none", "boundary", "inside"}
        assert split == ({False} if piece_codes > 1 else {True, False})
    assert indices and max(size for size, _ in indices) <= 4 * chunk
    assert {dtype for _, dtype in indices} == {np.dtype(np.uint16)}


@pytest.mark.parametrize("chunk", [16, 64])
def test_cut_coset_tables_take_the_first_tied_word(chunk, monkeypatch):
    """Coset tables whose pass cuts its columns with two or more words per
    tile, where many rows reach their minimum at several words: every
    leader is the first of them in odometer order, against the scalar brute
    force.  GF(2) and GF(3) chains and antichains of single coordinates
    under the Hamming weight, codes of dimension 1 and 2."""
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    two_smallest = codes_module._two_smallest
    tied: list[int] = []  # rows minimal at two or more words, per tile through a cut

    def recording(w):
        t1, t2, hit = two_smallest(w)
        if hit.ndim == 3:
            tied.append(int((hit.sum(axis=1) > 1).sum()))
        return t1, t2, hit

    monkeypatch.setattr(codes_module, "_two_smallest", recording)
    rng = random.Random(83)
    for q, n in [(2, 6), (2, 8), (3, 4), (3, 5)]:
        f = make_field(q)
        for pos in (P.chain(n), P.antichain(n)):
            sp = BlockSpace(pos, Labeling((1,) * n), f, hamming_weight(f))
            for k in (1, 2):
                code = Code.linear(sp, random_rows(rng, q, n, k))
                table = code.coset_table()
                assert (table.weights, table.leaders) == _brute_force_table(code)
    assert sum(tied) > 0


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
            covering, packing, _ = code._pass(np.arange(sp.n), cw)
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
_SMALL_POSETS = [p for s in (1, 2, 3) for p in P.all_posets(s)]


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


def _level_summands(code):
    """(j*, j0) of a code from its codewords, summands numbered 1..h from
    the bottom: j* the highest summand j whose projection together with the
    summands above it is not the whole space (0 for C = F_q^n), j0 the lowest
    summand that is the top nonzero summand of a nonzero codeword (None for
    a one-word code)."""
    sp, cw = code.space, code.codeword_array()
    cols = [sp.columns(part) for part in sp.poset.summands()]
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


def _lower(node):
    """A series node without its top summand, as the reading splits it."""
    low = node.children[:-1]
    if len(low) == 1:
        return low[0]
    return P.Node("series", tuple(sorted(e for c in low for e in c.elements)), low, node.below)


def _tree_words(rng, sp, node, limit):
    """At most `limit` distinct words zero off a node's columns, shaped by
    its tree: on a parallel node the product of word sets of its parts,
    less one word now and then (|C| = |pi_1 C| * |pi_2 C| - 1, so the
    product test fails by one); on a series node a top projection T, the
    whole top summand now and then, with a fiber of one or several words
    below each top value; anywhere else, or now and then, random words."""
    cols = sp.columns(node.elements)
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
    hi_cols = sp.columns(node.children[-1].elements)
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
    cols = sp.columns(node.elements)
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
    """The kinds of split a code's readings took on its tree."""
    taken, stack = set(), [code._memo["root"]]
    while stack:
        part = stack.pop()
        if part.split == () and part.node.kind == "parallel":
            taken.add((code.kind, "no product"))
        for what, (deps, _) in part.plan.items():
            if deps is None:
                continue
            stack.extend(deps)
            if part.node.kind == "parallel":
                taken.add((code.kind, "parallel"))
                values = [code._combine(dep, what) for dep in deps]
                if what == "cover" and part.node.below and sum(map(bool, values)) > 1:
                    taken.add("offset sum")
                continue
            # read from the top summand, or from below it: a linear code's
            # D (j* below the top) or D0 (j0 below it), an explicit code's
            # fibers
            if all(dep.node is part.node.children[-1] for dep in deps):
                taken.add((code.kind, "top"))
                continue
            taken.add((code.kind, "top filled" if what == "cover" else "fibers"))
            if code.kind == "explicit" and any(f.size > 1 for f in deps):
                taken.add((code.kind, "fiber of several words"))
    return taken


def test_tree_reading_matches_scalar_brute_force(monkeypatch):
    """Covering radius, packing radius, minimum distance and is_perfect of
    linear and explicit codes on series-parallel posets (disjoint unions,
    ordinal sums and sums of unions, blocks of 1-2 coordinates, GF(2),
    GF(3), GF(4), GF(5) under the Hamming and Lee weights) against the
    scalar brute force.  A small _CHUNK makes every reading take the splits
    that lower its cost, so parallel splits (products, and word sets that
    fail the product test by one word), series splits through fibers of
    one and of several words, a top projection that fills the top summand,
    and parallel splits above lower summands (where the parts' offsets must
    not add up) all occur."""
    monkeypatch.setattr(codes_module, "_CHUNK", 8)
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
        rows[:k1, :30] = c1._defining_rows()
        rows[k1:, 30:] = c2._defining_rows()
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
    # pass then charges the space's piece plan, 2 pieces x 3 columns
    "level min_distance": (9, lambda s: Code.linear(s, _CAPPED_GENERATORS).min_distance()),
    "level covering_radius": (
        3, lambda s: Code.linear(s, _CAPPED_GENERATORS).covering_radius(), 6
    ),
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
    # pieces x n on a fresh GF(2) space: blocks of 9 and 11 cut into pieces
    # of at most 8 coordinates make 2 + 2 pieces, times n = 20
    "piece plan": (
        80,
        lambda s: space(2, P.antichain(2), (9, 11)).batch_weights(np.zeros((1, 20), np.uint8)),
    ),
}


@pytest.mark.parametrize("entry", _CAPPED)
def test_each_entry_point_charges_its_count(entry, monkeypatch):
    """A cap one below the entry point's count raises SpaceTooLarge naming
    the count; a cap equal to it runs, or, where a later charge is larger,
    a cap one below that one raises naming it and a cap equal to it runs.
    Charges do not depend on what ran before (the kernels are shared), so
    each entry holds alone and in any order.  A _CHUNK of 1 makes a
    reading take every split that lowers its kernel calls, which on these
    tiny spaces all fit one tile."""
    monkeypatch.setattr(codes_module, "_CHUNK", 1)
    count, call, *later = _CAPPED[entry]
    for cap in (count, *later):
        with enumeration_cap(cap - 1), pytest.raises(SpaceTooLarge, match=f" = {cap} exceeds"):
            call(_CAPPED_SPACE)
    with enumeration_cap(cap):
        call(_CAPPED_SPACE)


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the charge")


def test_pairwise_min_charges_its_pairs_first(monkeypatch):
    """An explicit code's minimum distance charges its |C|(|C|-1)/2 word
    pairs before the first pair-kernel call.  The space is small enough
    that its piece plan (3 x 3 entries) fits the cap as well.  No
    coordinate's projection is a factor of the words, so the antichain
    reads them as one leaf."""
    s = space(2, P.antichain(3), (1,) * 3)
    words = [s.unrank(r) for r in range(1, 7)]  # 15 pairs
    monkeypatch.setattr(BlockSpace, "pair_weights", _refuse)
    with enumeration_cap(14), pytest.raises(SpaceTooLarge, match="pairs = 15 exceeds"):
        Code.explicit(s, words).min_distance()
    monkeypatch.undo()
    with enumeration_cap(15):
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
