import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbcodes.errors import CycleDetected, NotAnIdeal, OutOfRange
from wpbcodes import poset as P

from small_posets import all_posets


def test_from_cover_relations_chain():
    p = P.from_cover_relations(3, [(1, 2), (2, 3)])
    assert p == P.chain(3)
    assert p.leq(1, 3)


def test_from_cover_relations_empty_is_antichain():
    assert P.from_cover_relations(3, []) == P.antichain(3)


def test_cycle_detected():
    with pytest.raises(CycleDetected) as e:
        P.from_cover_relations(2, [(1, 2), (2, 1)])
    cyc = e.value.cycle
    assert set(cyc) == {1, 2}


@pytest.mark.parametrize(
    "leq, message",
    [
        ([[1, 0], [1]], "leq must be a square matrix"),
        ([[1, 0, 0], [0, 1, 0]], "leq must be a square matrix"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], "relation is not reflexive at 3"),
        # reflexivity is checked on the whole diagonal first
        ([[1, 1, 0], [1, 1, 0], [0, 0, 0]], "relation is not reflexive at 3"),
        ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], "relation is not antisymmetric at (1,2)"),
        ([[1, 0, 0], [0, 1, 1], [0, 1, 1]], "relation is not antisymmetric at (2,3)"),
        # at one pair antisymmetry is checked before transitivity
        ([[1, 1, 0], [1, 1, 1], [0, 0, 1]], "relation is not antisymmetric at (1,2)"),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "relation is not transitive at (1,2,3)"),
        # the first violating pair in row-major order wins
        ([[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]],
         "relation is not transitive at (1,2,3)"),
        ([[1, 0, 1, 0], [0, 1, 0, 0], [0, 1, 1, 1], [0, 0, 0, 1]],
         "relation is not transitive at (1,3,2)"),
    ],
)
def test_invalid_relation_names_its_first_violation(leq, message):
    with pytest.raises(ValueError) as e:
        P.Poset(leq)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "s, covers, error, message",
    [
        (3, [(1, 2), (2, 4)], OutOfRange, "cover (2,4) outside 1..3"),
        (3, [(0, 1)], OutOfRange, "cover (0,1) outside 1..3"),
        (3, [(1, 2), (2, 2)], ValueError, "cover (2,2) relates an element to itself"),
        # covers are checked in the order given
        (3, [(2, 2), (1, 5)], ValueError, "cover (2,2) relates an element to itself"),
    ],
)
def test_invalid_cover_names_the_first_bad_pair(s, covers, error, message):
    with pytest.raises(error) as e:
        P.from_cover_relations(s, covers)
    assert type(e.value) is error and str(e.value) == message


@pytest.mark.parametrize(
    "s, covers, cycle",
    [
        (2, [(1, 2), (2, 1)], (1, 2, 1)),
        (4, [(1, 2), (2, 3), (3, 1)], (1, 2, 3, 1)),
        # cycles that miss element 1 and hang off a tail
        (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (6, 1)], (3, 4, 5, 3)),
        (6, [(6, 4), (1, 2), (2, 5), (5, 4), (4, 2), (3, 6)], (2, 5, 4, 2)),
        # of two cycles, the one through the least element
        (7, [(5, 6), (6, 5), (3, 7), (7, 4), (4, 3), (1, 2)], (3, 7, 4, 3)),
    ],
)
def test_cycle_detected_names_the_cycle(s, covers, cycle):
    with pytest.raises(CycleDetected) as e:
        P.from_cover_relations(s, covers)
    assert e.value.cycle == cycle
    assert str(e.value) == f"cover relations contain a cycle: {list(cycle)}"


def test_random_cycles_are_named_simple_and_closed():
    """On seeded random cover lists that close a cycle, CycleDetected names
    a simple cycle of the given covers, closed and starting at its least
    element."""
    import random

    rng, found = random.Random(24), 0
    while found < 300:
        s = rng.randrange(2, 9)
        covers = [(a, b) for a in range(1, s + 1) for b in range(1, s + 1)
                  if a != b and rng.random() < 0.25]
        rng.shuffle(covers)
        try:
            P.from_cover_relations(s, covers)
        except CycleDetected as e:
            cyc, found = e.cycle, found + 1
            assert cyc[0] == cyc[-1] == min(cyc) and len(set(cyc[:-1])) == len(cyc) - 1 >= 2
            assert set(zip(cyc, cyc[1:])) <= set(covers)


def test_chain_antichain_predicates():
    assert P.chain(4).is_chain()
    assert not P.chain(2).is_antichain()
    assert P.antichain(3).is_antichain()
    assert not P.antichain(3).is_chain()
    # a singleton is both
    assert P.antichain(1).is_chain()
    assert P.chain(1).is_antichain()


def test_ideal_examples():
    assert P.chain(3).ideal({3}) == {1, 2, 3}
    assert P.antichain(3).ideal({2}) == {2}
    vee = P.from_cover_relations(4, [(1, 3), (2, 3)])
    assert vee.ideal({3, 4}) == {1, 2, 3, 4}
    assert vee.ideal({3}) == {1, 2, 3}


def test_maximal_elements():
    assert P.chain(3).maximal_elements({1, 2, 3}) == {3}
    assert P.antichain(3).maximal_elements({1, 3}) == {1, 3}
    vee = P.from_cover_relations(4, [(1, 3), (2, 3)])
    assert vee.maximal_elements({1, 2, 3}) == {3}
    with pytest.raises(NotAnIdeal):
        P.chain(3).maximal_elements({2, 3})


def test_ideal_and_maximal_match_definitions_on_all_4_posets():
    """The precomputed down-sets and strict up-sets against the definitions
    read through leq/less, for every subset of every labelled 4-element
    poset: the ideal is the set of elements below some member, and a subset
    has maximal elements exactly when it is downward closed."""
    import itertools

    count = 0
    for p in all_posets(4):
        count += 1
        for r in range(5):
            for sub in map(frozenset, itertools.combinations(range(1, 5), r)):
                ideal = {j for j in range(1, 5) if any(p.leq(j, e) for e in sub)}
                assert p.ideal(sub) == ideal
                if ideal != sub:
                    with pytest.raises(NotAnIdeal):
                        p.maximal_elements(sub)
                    continue
                top = {i for i in sub if not any(p.less(i, j) for j in sub)}
                assert p.maximal_elements(sub) == top
    assert count == 219


def test_disjoint_union():
    p = P.disjoint_union(P.chain(2), P.chain(2))
    assert p.s == 4
    assert p.leq(1, 2) and p.leq(3, 4)
    assert not p.leq(1, 3) and not p.leq(2, 3) and not p.leq(1, 4)
    assert P.disjoint_union(P.antichain(1), P.antichain(1)) == P.antichain(2)
    assert not P.disjoint_union(P.chain(1), P.chain(1)).is_chain()


def test_linear_sum():
    assert P.linear_sum(P.chain(2), P.chain(2)) == P.chain(4)
    p = P.linear_sum(P.antichain(2), P.antichain(2))
    assert p.leq(1, 3) and p.leq(2, 4) and p.leq(1, 4)
    assert not p.leq(1, 2) and not p.leq(3, 4)
    assert P.linear_sum(P.chain(1), P.chain(1)).is_chain()


def test_cartesian_product_diamond():
    d = P.cartesian_product(P.chain(2), P.chain(2))
    # (1,1)->1, (1,2)->2, (2,1)->3, (2,2)->4
    assert d.leq(1, 2) and d.leq(1, 3) and d.leq(2, 4) and d.leq(3, 4) and d.leq(1, 4)
    assert not d.leq(2, 3) and not d.leq(3, 2)
    assert P.cartesian_product(P.antichain(2), P.antichain(2)) == P.antichain(4)
    # chain x antichain = two disjoint 2-chains: 1=(1,1)<(2,1)=3, 2=(1,2)<(2,2)=4
    p = P.cartesian_product(P.chain(2), P.antichain(2))
    assert p == P.from_cover_relations(4, [(1, 3), (2, 4)])


def test_lex_product():
    assert P.lex_product(P.chain(2), P.chain(2)) == P.chain(4)
    # chain(2) * antichain(2): layer {1,2} entirely below layer {3,4}
    p = P.lex_product(P.chain(2), P.antichain(2))
    for a in (1, 2):
        for b in (3, 4):
            assert p.leq(a, b)
    assert not p.leq(1, 2) and not p.leq(3, 4)
    assert P.lex_product(P.antichain(2), P.antichain(2)) == P.antichain(4)


def test_products_agree_on_antichains():
    for s, t in [(1, 1), (2, 2), (2, 3), (3, 2)]:
        a, b = P.antichain(s), P.antichain(t)
        assert P.cartesian_product(a, b) == P.lex_product(a, b)


def test_puncture():
    assert P.puncture(P.chain(3), 2) == P.chain(2)
    assert P.puncture(P.antichain(3), 1) == P.antichain(2)
    diamond = P.cartesian_product(P.chain(2), P.chain(2))
    top_removed = P.puncture(diamond, 4)
    assert top_removed == P.from_cover_relations(3, [(1, 2), (1, 3)])
    with pytest.raises(OutOfRange):
        P.puncture(P.chain(2), 3)


@pytest.mark.parametrize(
    "call",
    [lambda p: P.puncture(p, 2.5), lambda p: P.puncture(p, True), lambda p: p.leq(1.0, 2),
     lambda p: p.less(1, "2"), lambda p: p.ideal([1.5]), lambda p: p.maximal_elements([1, None]),
     lambda p: p.induced((1, 2.5)), lambda p: p.induced([False, 2])],
    ids=["puncture-float", "puncture-bool", "leq-float", "less-string", "ideal-float",
         "maximal-none", "induced-float", "induced-bool"])
def test_element_indices_follow_the_integer_rule(call):
    """An element index that is no integer raises ValueError naming element
    indices: puncture(chain(3), 2.5) does not return the chain unchanged,
    True does not stand for element 1, and leq, ideal and induced raise no
    bare TypeError.  Numpy integers pass, as ints: on a 70-chain, whose
    masks exceed 64 bits, they raise no OverflowError.  Indices outside 1..s
    keep OutOfRange and its text."""
    p = P.chain(3)
    with pytest.raises(ValueError, match="^element indices must be integers"):
        call(p)
    assert p.leq(np.int64(1), 2) and p.ideal([np.int64(2)]) == {1, 2}
    big = P.chain(70)
    assert big.leq(np.int64(1), 70) and big.ideal([np.int64(66)]) == set(range(1, 67))
    assert P.puncture(p, np.int64(2)) == P.chain(2) and p.induced((np.int64(1), 3)) == P.chain(2)
    with pytest.raises(OutOfRange, match=r"^element 4 outside 1\.\.3$"):
        p.induced((1, 4))


def test_extend():
    p = P.extend(P.chain(2))
    assert p.s == 3
    assert p.leq(1, 2) and not p.leq(1, 3) and not p.leq(2, 3) and not p.leq(3, 1)
    assert P.extend(P.antichain(2)) == P.antichain(3)
    # an extension is never a chain
    for base in (P.chain(1), P.chain(3), P.antichain(2)):
        assert not P.extend(base).is_chain()


def test_linear_sum_chain_iff_both_chains():
    cases = [P.chain(2), P.antichain(2), P.chain(1), P.from_cover_relations(3, [(1, 2)])]
    for a in cases:
        for b in cases:
            assert P.linear_sum(a, b).is_chain() == (a.is_chain() and b.is_chain())
            assert not P.disjoint_union(a, b).is_chain()


def test_all_posets_counts():
    # labelled posets: 1, 3, 19 for s = 1, 2, 3
    assert len(list(all_posets(1))) == 1
    assert len(list(all_posets(2))) == 3
    assert len(list(all_posets(3))) == 19


def _assert_partial_order(p: P.Poset) -> None:
    """Reflexivity, antisymmetry and transitivity of p, read through leq."""
    for i in p.elements():
        assert p.leq(i, i)
        for j in p.elements():
            assert not (i != j and p.leq(i, j) and p.leq(j, i))
            for k in p.elements():
                assert not (p.leq(i, j) and p.leq(j, k)) or p.leq(i, k)


def test_large_combinators_pass_construction_axioms():
    """The combinators build their masks without the validating matrix
    constructor, so the axioms are checked here, through leq, up to s = 13."""
    big = P.cartesian_product(P.chain(3), P.chain(4))
    assert big.s == 12
    assert P.lex_product(P.chain(4), P.chain(3)) == P.chain(12)
    assert P.linear_sum(big, P.antichain(1)).s == 13
    vee = P.from_cover_relations(3, [(1, 3), (2, 3)])
    for p in (big, P.linear_sum(big, P.antichain(1)), P.lex_product(vee, P.antichain(4)),
              P.disjoint_union(big, vee), P.puncture(big, 6), P.extend(big)):
        _assert_partial_order(p)


def _assert_up_sets_match(p: P.Poset) -> None:
    """The strict up-set masks against less, read from the down-sets: the
    combinators build the two directions separately."""
    assert [[bool(up >> (b - 1) & 1) for b in p.elements()] for up in p.above] == [
        [p.less(a, b) for b in p.elements()] for a in p.elements()
    ]


def _definition_covers(p: P.Poset) -> list[tuple[int, int]]:
    """The covers a < b with no c strictly between, read through less."""
    return [(a, b) for a in p.elements() for b in p.elements() if p.less(a, b)
            and not any(p.less(a, c) and p.less(c, b) for c in p.elements())]


def test_cover_pairs_match_their_definition():
    """cover_pairs against the definition, read through less, on every
    poset of at most 4 elements and on the combinators' outputs: all six on
    the posets of 1 or 2 elements, and larger products, sums, a puncture
    and an extension.  covers lists the same pairs, lowest level of the
    lower element first."""
    small = [p for s in (1, 2) for p in all_posets(s)]
    big = P.cartesian_product(P.chain(3), P.chain(4))
    vee = P.from_cover_relations(3, [(1, 3), (2, 3)])
    posets = [p for s in (1, 2, 3, 4) for p in all_posets(s)]
    posets += [P.puncture(p, z) for p in small for z in p.elements()] + list(map(P.extend, small))
    posets += [combine(p, q) for p in small for q in small for combine in
               (P.disjoint_union, P.linear_sum, P.cartesian_product, P.lex_product)]
    posets += [big, P.linear_sum(big, vee), P.lex_product(vee, P.antichain(4)),
               P.cartesian_product(vee, P.chain(3)), P.disjoint_union(big, vee),
               P.puncture(big, 6), P.extend(big)]
    for p in posets:
        assert p.cover_pairs() == _definition_covers(p)
        levels = [p.below[a - 1].bit_count() for a, _ in p.covers()]
        assert sorted(p.covers()) == p.cover_pairs() and levels == sorted(levels)


def test_combinators_match_their_definitions():
    """Each of the six combinators against its definition, read through
    leq, on every pair of labelled posets of 1 to 3 elements (puncture at
    every element, extend, on each one), with up-sets that match."""
    small = [p for s in (1, 2, 3) for p in all_posets(s)]
    for p in small:
        s = p.s
        for z in p.elements():
            keep = [e for e in p.elements() if e != z]
            punctured = P.puncture(p, z)
            assert punctured.s == s - 1
            _assert_up_sets_match(punctured)
            for a in punctured.elements():
                for b in punctured.elements():
                    assert punctured.leq(a, b) == p.leq(keep[a - 1], keep[b - 1])
        extended = P.extend(p)
        assert extended.s == s + 1
        _assert_up_sets_match(extended)
        for a in extended.elements():
            for b in extended.elements():
                assert extended.leq(a, b) == (p.leq(a, b) if max(a, b) <= s else a == b)
        for q in small:
            t = q.s
            union, stacked = P.disjoint_union(p, q), P.linear_sum(p, q)
            assert union.s == stacked.s == s + t
            _assert_up_sets_match(union)
            _assert_up_sets_match(stacked)
            for a in union.elements():
                for b in union.elements():
                    if max(a, b) <= s:
                        inside = p.leq(a, b)
                    elif min(a, b) > s:
                        inside = q.leq(a - s, b - s)
                    else:
                        inside = None
                    assert union.leq(a, b) == bool(inside)
                    assert stacked.leq(a, b) == (a <= s < b if inside is None else inside)
            grid, lex = P.cartesian_product(p, q), P.lex_product(p, q)
            assert grid.s == lex.s == s * t
            _assert_up_sets_match(grid)
            _assert_up_sets_match(lex)
            for a in grid.elements():
                for b in grid.elements():
                    (i, j), (k, l) = divmod(a - 1, t), divmod(b - 1, t)
                    x, y, u, v = i + 1, j + 1, k + 1, l + 1
                    assert grid.leq(a, b) == (p.leq(x, u) and q.leq(y, v))
                    assert lex.leq(a, b) == (p.less(x, u) or (x == u and q.leq(y, v)))


def test_induced_matches_leq_on_every_subset():
    """The order induced on every subset of every poset of 1 to 4
    elements, read through leq against the order of the subset's elements
    in P, with up-sets that match; the empty subset gives the empty order.
    Elements out of range or not ascending are refused."""
    runs = set()
    for s in (1, 2, 3, 4):
        for p in all_posets(s):
            for mask in range(1 << s):
                keep = [e for e in p.elements() if mask >> (e - 1) & 1]
                sub = p.induced(keep)
                assert sub.s == len(keep)
                _assert_up_sets_match(sub)
                for a in sub.elements():
                    for b in sub.elements():
                        assert sub.leq(a, b) == p.leq(keep[a - 1], keep[b - 1])
                runs.add(sum(1 for a, b in zip([-1] + keep, keep) if b != a + 1))
    assert runs == {0, 1, 2}
    with pytest.raises(OutOfRange):
        P.chain(3).induced([1, 4])
    for keep in ([2, 1], [1, 1]):
        with pytest.raises(ValueError, match="must ascend"):
            P.chain(3).induced(keep)


def test_ideal_is_smallest_downward_closed():
    # removing any non-generator element breaks closure or coverage (s <= 8 brute force)
    import itertools
    import random

    rng = random.Random(7)
    for _ in range(40):
        s = rng.randrange(2, 9)
        covers = [
            (a, b)
            for a, b in itertools.combinations(range(1, s + 1), 2)
            if rng.random() < 0.4
        ]
        p = P.from_cover_relations(s, covers)
        e = {i for i in range(1, s + 1) if rng.random() < 0.5}
        ideal = p.ideal(e)
        assert e <= ideal
        assert p.ideal(ideal) == ideal
        for x in ideal - e:
            smaller = ideal - {x}
            assert p.ideal(smaller) != smaller or not e <= smaller


@settings(max_examples=100, deadline=None)
@given(
    s=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_random_cover_posets_satisfy_axioms(s, data):
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=s), st.integers(min_value=1, max_value=s)
            ),
            max_size=10,
        )
    )
    covers = [(a, b) for a, b in pairs if a < b]  # acyclic by construction
    p = P.from_cover_relations(s, covers)
    for i in p.elements():
        assert p.leq(i, i)
        for j in p.elements():
            if i != j and p.leq(i, j):
                assert not p.leq(j, i)
            for k in p.elements():
                if p.leq(i, j) and p.leq(j, k):
                    assert p.leq(i, k)


def _incomparability_components(p: P.Poset) -> list[frozenset[int]]:
    """The connected components of the incomparability graph, by search."""
    left, out = set(p.elements()), []
    while left:
        stack, comp = [min(left)], set()
        while stack:
            a = stack.pop()
            if a in comp:
                continue
            comp.add(a)
            stack += [b for b in left if not p.leq(a, b) and not p.leq(b, a)]
        left -= comp
        out.append(frozenset(comp))
    return out


def test_summands_are_the_ordered_incomparability_components():
    """On every poset of 4 elements the summands are the components of the
    incomparability graph, each an ascending tuple, every element of a lower
    summand below every element of a higher one."""
    shapes = {1: 0, 2: 0}
    for p in all_posets(4):
        parts = p.summands()
        assert all(part == tuple(sorted(part)) for part in parts)
        assert sorted(map(frozenset, parts), key=min) == sorted(
            _incomparability_components(p), key=min
        )
        for i, low in enumerate(parts):
            for high in parts[i + 1 :]:
                assert all(p.less(a, b) for a in low for b in high)
        assert p.summands() == parts  # read from the tree, cached per relation
        shapes[min(len(parts), 2)] += 1
    assert P.chain(4).summands() == ((1,), (2,), (3,), (4,))
    assert P.antichain(4).summands() == ((1, 2, 3, 4),)
    assert shapes[1] and shapes[2]


def test_linear_sum_stacks_the_summands():
    """linear_sum(P, Q) has P's summands followed by Q's, shifted by |P|."""
    small = [p for s in (1, 2, 3) for p in all_posets(s)]
    for p in small:
        for q in small:
            shifted = tuple(tuple(e + p.s for e in part) for part in q.summands())
            assert P.linear_sum(p, q).summands() == p.summands() + shifted


def test_tree_splits_series_parallel_and_leaves():
    """On every poset of at most 4 elements: a series node's children are
    the summands of the order it induces, a parallel node's the connected
    components of its comparability graph, and a leaf is connected and no
    ordinal sum; the elements outside a node that lie below one of its
    elements lie below all of them, and the tree of the order a node's
    elements induce (Poset.induced) is the node's subtree, relabelled.  The
    tree is computed once per order relation."""
    kinds = set()
    for s in (1, 2, 3, 4):
        for p in all_posets(s):
            stack = [p.tree()]
            assert p.tree() is stack[0] and stack[0].elements == tuple(p.elements())
            while stack:
                node = stack.pop()
                kinds.add(node.kind)
                members = set(node.elements)
                under = {a for a in p.elements() if a not in members
                         and any(p.less(a, b) for b in members)}
                assert all(p.less(a, b) for a in under for b in members)
                sub = P.Poset([[p.leq(a, b) for b in node.elements] for a in node.elements])
                rank = {e: i for i, e in enumerate(node.elements, 1)}
                assert _shape(sub.tree()) == _shape(node, rank.get)
                parts = [tuple(node.elements[i - 1] for i in part) for part in sub.summands()]
                comps = _comparability_components(p, node.elements)
                if node.kind == "series":
                    assert [c.elements for c in node.children] == parts and len(parts) > 1
                elif node.kind == "parallel":
                    assert sorted(c.elements for c in node.children) == comps and len(comps) > 1
                else:
                    assert len(parts) == 1 and len(comps) == 1 and not node.children
                stack.extend(node.children)
    assert kinds == {"series", "parallel", "leaf"}
    assert P.from_cover_relations(4, [(1, 3), (2, 3), (2, 4)]).tree().kind == "leaf"



def _shape(node, label=lambda e: e):
    """A tree as nested (kind, elements, children), each element relabelled."""
    return node.kind, tuple(map(label, node.elements)), tuple(_shape(c, label) for c in node.children)


def _comparability_components(p: P.Poset, elements) -> list[tuple[int, ...]]:
    """The connected components of the comparability graph on elements."""
    left, out = set(elements), []
    while left:
        stack, comp = [min(left)], set()
        while stack:
            a = stack.pop()
            if a not in comp:
                comp.add(a)
                stack += [b for b in left if p.leq(a, b) or p.leq(b, a)]
        left -= comp
        out.append(tuple(sorted(comp)))
    return sorted(out)
