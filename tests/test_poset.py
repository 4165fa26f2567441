import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbcodes.errors import CycleDetected, NotAnIdeal, OutOfRange
from wpbcodes import poset as P


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
    assert vee.principal(3) == {1, 2, 3}
    assert vee.strict_principal(3) == {1, 2}
    assert P.chain(3).strict_principal(1) == frozenset()


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
    for p in P.all_posets(4):
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
    assert len(list(P.all_posets(1))) == 1
    assert len(list(P.all_posets(2))) == 3
    assert len(list(P.all_posets(3))) == 19


def test_large_combinators_pass_construction_axioms():
    # Poset.__init__ re-validates reflexivity/antisymmetry/transitivity, so
    # building these is itself the exhaustive triple scan up to s = 12.
    big = P.cartesian_product(P.chain(3), P.chain(4))
    assert big.s == 12
    assert P.lex_product(P.chain(4), P.chain(3)) == P.chain(12)
    assert P.linear_sum(big, P.antichain(1)).s == 13


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
