"""GF(q) arithmetic for prime powers q <= 256, backed by lookup tables.

Elements are plain integers in [0, q).  For extension fields (q = p^e with
e > 1) the base-p digits of the value are the polynomial coefficients,
lowest degree first, reduced modulo a fixed irreducible polynomial: the
least monic x^e + sum_i m_i x^i, ordered by the base-p integer
m = sum_i m_i p^i, that no two elements multiply to.  Elements have degree
below e, so the monic products of degree e among them are exactly the
reducible monics of degree e.  This keeps element encodings stable across
runs:

    GF(4)   x^2 + x + 1
    GF(8)   x^3 + x + 1
    GF(9)   x^2 + 1

Every field is built the same way; a prime field is the case e = 1, one
digit per element and the modulus x, so nothing is reduced.  Addition and
negation act digit-wise mod p.  One vectorized product of the digit
polynomials of every pair of elements both picks the modulus and, reduced
from the top degree down by it, gives the multiplication table; each
inverse is the one element whose product with it is 1.  All four
operations are materialised as numpy tables so that bulk vector
arithmetic reduces to fancy indexing; the scalar operations take each
element through the element rule (weights.exact_element).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotAPrimePower
from .weights import exact_element, exact_ints

MAX_Q = 256

# Fields up to this size get a full q^3 axiom sweep at construction time.
_EXHAUSTIVE_CHECK_LIMIT = 16


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2 or q > MAX_Q:
        raise NotAPrimePower(f"q must be a prime power in [2, {MAX_Q}], got {q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # smallest divisor is prime
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotAPrimePower(f"{q} has at least two distinct prime factors")
    return p, e


class Field:
    """Arithmetic tables for GF(q).  Immutable; obtain instances via make_field."""

    def __init__(self, q: int):
        p, e = _prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        digits = np.array(
            [[(v // p**i) % p for i in range(e)] for v in range(q)], dtype=np.int32
        )
        pows = np.array([p**i for i in range(e)], dtype=np.int32)
        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ pows
        neg = ((-digits) % p) @ pows
        # (2e, q, q) int32: the coefficients of the product of every pair,
        # degree first, at most e (p - 1)^2 in magnitude, which int32 holds
        # for every q <= 256 (62,500 at p = 251); the top row stays zero
        coef, prod = digits.T, np.zeros((2 * e, q, q), np.int32)
        for i in range(e):
            prod[i : i + e] += coef[i][:, None] * coef[:, None, :]
        # a monic product of degree e has two factors of degree >= 1, and
        # every reducible monic of degree e is such a product: the modulus
        # is the least x^e + m (m's digits) that no pair hits; for e = 1
        # none does, so m = 0 and the modulus x reduces nothing
        monic = (prod[e] % p == 1) & ~(prod[e + 1 :] % p).any(axis=0)
        low = digits[np.bincount(pows @ (prod[:e, monic] % p), minlength=q).argmin()]
        self.modulus: tuple[int, ...] | None = (*low.tolist(), 1) if e > 1 else None
        # x^d = x^d - modulus * x^(d - e) from the top degree down
        for d in range(2 * e - 2, e - 1, -1):
            prod[d - e : d] -= prod[d] % p * low[:, None, None]
        mul = (pows @ (prod[:e] % p).reshape(e, -1)).reshape(q, q)

        one = mul == 1
        lacking = np.flatnonzero(one[1:].sum(axis=1) != 1)
        if len(lacking):
            raise AssertionError(f"element {lacking[0] + 1} of GF({q}) lacks a unique inverse")
        inv = one.argmax(axis=1)  # 0 for 0, whose row holds no 1

        self.add_table = add.astype(np.uint8)
        self.neg_table = neg.astype(np.uint8)
        self.mul_table = mul.astype(np.uint8)
        self.inv_table = inv.astype(np.uint8)
        self.sub_table = self.add_table[:, self.neg_table]

        if q <= _EXHAUSTIVE_CHECK_LIMIT:
            self._verify_axioms()

    def _verify_axioms(self) -> None:
        A = self.add_table.astype(np.int64)
        M = self.mul_table.astype(np.int64)
        q = self.q
        checks = {
            "additive identity": (A[:, 0] == np.arange(q)).all(),
            "additive inverse": (A[np.arange(q), self.neg_table] == 0).all(),
            "add commutative": (A == A.T).all(),
            "add associative": (A[A] == np.take(A, A, axis=1)).all(),
            "mul identity": (M[:, 1] == np.arange(q)).all(),
            "mul commutative": (M == M.T).all(),
            "mul associative": (M[M] == np.take(M, M, axis=1)).all(),
            "distributive": (np.take(M, A, axis=1) == A[M[:, :, None], M[:, None, :]]).all(),
            "mul inverse": (
                M[np.arange(1, q), self.inv_table[1:]] == 1
            ).all(),
        }
        for name, ok in checks.items():
            if not ok:
                raise AssertionError(f"GF({q}) construction violates: {name}")

    # scalar operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[exact_element(a, self.q), exact_element(b, self.q)])

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_table[exact_element(a, self.q), exact_element(b, self.q)])

    def neg(self, a: int) -> int:
        return int(self.neg_table[exact_element(a, self.q)])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[exact_element(a, self.q), exact_element(b, self.q)])

    def inv(self, a: int) -> int:
        a = exact_element(a, self.q)
        if a == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in GF({self.q})")
        return int(self.inv_table[a])

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.q})"
        return f"GF({self.q}=p{self.p}^{self.e}, modulus={self.modulus})"


def make_field(q: int) -> Field:
    """Return the cached GF(q) instance for an integer q (exact_ints, checked
    before the cache, so True and 2.0 are refused, not taken as 1 or 2);
    raises NotAPrimePower for invalid q."""
    (q,) = exact_ints([q], "field sizes")
    return _field(q)


# the field cache: one Field per q in the process (make_field)
_field = lru_cache(maxsize=None)(Field)
