import hashlib
import random

import pytest

from wpbcodes.errors import NotAPrimePower
from wpbcodes.field import make_field

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_gf2_characteristic():
    f = make_field(2)
    assert f.add(1, 1) == 0


def test_gf4_generator_square():
    # Under x^2 + x + 1 the element x (value 2) squares to x + 1 (value 3).
    f = make_field(4)
    assert f.modulus == (1, 1, 1)
    assert f.mul(2, 2) == 3
    assert f.add(2, 3) == 1


def test_not_a_prime_power():
    for q in (1, 6, 10, 12, 100, 257, 512):
        with pytest.raises(NotAPrimePower):
            make_field(q)


def test_gf5_mod_arithmetic():
    f = make_field(5)
    assert f.add(3, 4) == 2
    assert f.inv(2) == 3
    assert f.mul(2, 3) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(7).inv(0)


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_axioms_exhaustive(q):
    f = make_field(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 1) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [25, 27, 49, 64, 81, 121, 128, 243, 256])
def test_axioms_randomized_large(q):
    f = make_field(q)
    rng = random.Random(q)
    for _ in range(10_000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


def test_digitwise_addition_gf9():
    # GF(9) uses x^2 + 1; values encode base-3 digits lowest degree first.
    f = make_field(9)
    assert f.modulus == (1, 0, 1)
    # (1 + x) + (2 + x) = 3 + 2x = 2x  ->  value 6
    assert f.add(4, 5) == 6


def test_field_identity_and_cache():
    assert make_field(8) is make_field(8)
    assert make_field(8) == make_field(8)
    assert make_field(8) != make_field(16)


def test_every_table_of_every_field_is_pinned():
    """The add, neg, mul, inv and sub tables of all 70 prime powers q <= 256,
    q ascending, hash to the digest of the exp/log construction that the
    polynomial product replaced, so every element encoding is unchanged."""
    digest, fields = hashlib.md5(), 0
    for q in range(2, 257):
        try:
            f = make_field(q)
        except NotAPrimePower:
            continue
        fields += 1
        for table in (f.add_table, f.neg_table, f.mul_table, f.inv_table, f.sub_table):
            digest.update(table.tobytes())
    assert fields == 70
    assert digest.hexdigest() == "1d180679825efbbce0146f5825c5ed90"
