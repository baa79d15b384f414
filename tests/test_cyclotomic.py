"""Exact cyclotomic arithmetic tests.

The polynomial oracle is the standard table of cyclotomic polynomials; ring
axioms are exercised on seeded random elements; the conjugation and modulus
identities include the classic conductor-5 value whose squared modulus is
irrational.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from groupchar import Cyclotomic, InputError, cyclotomic_polynomial, euler_phi, root_of_unity

# ascending coefficients, leading term included
KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
}


def test_cyclotomic_polynomials_match_table():
    for e, coeffs in KNOWN_POLYS.items():
        assert cyclotomic_polynomial(e) == coeffs


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_product_over_divisors_is_x_pow_e_minus_one():
    for e in range(1, 37):
        prod = [1]
        for d in range(1, e + 1):
            if e % d == 0:
                prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (e - 1) + [1]
        assert prod == expected


def test_euler_phi():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 9: 6, 12: 4, 30: 8}
    for e, val in known.items():
        assert euler_phi(e) == val
        assert len(cyclotomic_polynomial(e)) == val + 1


def test_root_of_unity_powers():
    for e in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        z = root_of_unity(1, e)
        acc = Cyclotomic.one(e)
        for k in range(e):
            assert acc == root_of_unity(k, e)
            acc = acc * z
        assert acc == Cyclotomic.one(e)  # z^e = 1
        if e > 1:
            total = Cyclotomic.zero(e)
            for k in range(e):
                total = total + root_of_unity(k, e)
            assert total.is_zero()  # geometric sum over all e-th roots


def _random_element(rng, e):
    phi = euler_phi(e)
    return Cyclotomic(e, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                          for _ in range(phi)])


def test_ring_axioms_random():
    rng = random.Random(11)
    for e in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        for _ in range(25):
            a, b, c = (_random_element(rng, e) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Cyclotomic.zero(e) == a
            assert a * Cyclotomic.one(e) == a
            assert (a - a).is_zero()


def test_conjugation_is_ring_involution():
    rng = random.Random(5)
    for e in (3, 4, 5, 8, 12):
        for _ in range(20):
            a, b = _random_element(rng, e), _random_element(rng, e)
            assert a.conj().conj() == a
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()
    # conjugation inverts roots of unity
    for e in (3, 5, 8):
        for k in range(e):
            assert root_of_unity(k, e).conj() == root_of_unity((e - k) % e, e)


def test_abs_squared_of_roots_is_one():
    for e in (2, 3, 4, 5, 8, 12):
        for k in range(e):
            assert root_of_unity(k, e).abs_squared() == 1


def test_abs_squared_can_be_irrational():
    # |z5 + z5^4|^2 = 2 + z5^2 + z5^3 = (3 - sqrt(5))/2, not rational
    v = root_of_unity(1, 5) + root_of_unity(4, 5)
    sq = v.abs_squared()
    assert sq.as_rational() is None
    assert sq == Cyclotomic(5, [2, 0, 1, 1]) + Cyclotomic.zero(5)
    # at quadratic-or-smaller conductors the modulus squared is rational
    rng = random.Random(2)
    for e in (1, 2, 3, 4, 6):
        for _ in range(20):
            assert _random_element(rng, e).abs_squared().as_rational() is not None


def test_rational_embedding_and_equality():
    half = Cyclotomic.from_rational(Fraction(1, 2), 4)
    assert half.as_rational() == Fraction(1, 2)
    assert half.equals_rational(Fraction(1, 2))
    assert Cyclotomic.one(6) == 1
    assert (Cyclotomic.one(6) + Cyclotomic.one(6)) == Fraction(2)
    assert root_of_unity(1, 3) != 1


def test_embedding_between_conductors():
    z3 = root_of_unity(1, 3)
    assert z3.embed(6) == root_of_unity(2, 6)
    assert z3.embed(12) == root_of_unity(4, 12)
    # zeta_6 = 1 + zeta_3
    assert root_of_unity(1, 6) == (Cyclotomic.one(3) + root_of_unity(1, 3)).embed(6)
    with pytest.raises(InputError):
        z3.embed(8)  # 3 does not divide 8
    rng = random.Random(9)
    for _ in range(10):  # embedding is a ring homomorphism
        a, b = _random_element(rng, 4), _random_element(rng, 4)
        assert (a * b).embed(12) == a.embed(12) * b.embed(12)
        assert (a + b).embed(12) == a.embed(12) + b.embed(12)


def test_render_strings():
    assert Cyclotomic.zero(5).render() == "0"
    assert Cyclotomic.one(5).render() == "1"
    assert root_of_unity(1, 5).render() == "z"
    v = Cyclotomic(5, [2, 0, 1, 1])
    assert v.render() == "2 + z^2 + z^3"


def test_integral_coefficients_are_stored_as_ints():
    v = Cyclotomic(6, [Fraction(3, 1), Fraction(-4, 2)])
    assert v.coeffs == (3, -2)
    assert all(type(c) is int for c in v.coeffs)
    assert type(Cyclotomic.from_rational(Fraction(5, 1), 4).coeffs[0]) is int
    assert all(type(c) is int for c in (root_of_unity(2, 5) * root_of_unity(4, 5)
                                        + root_of_unity(1, 5).conj()
                                        ).embed(10).coeffs)
    w = Cyclotomic(3, [np.int64(2), True])  # numpy and bool integers too
    assert w.coeffs == (2, 1) and all(type(c) is int for c in w.coeffs)
    half = Cyclotomic(4, [Fraction(1, 2), 3])
    assert type(half.coeffs[0]) is Fraction and type(half.coeffs[1]) is int
    assert type((half + half).coeffs[0]) is int  # 1/2 + 1/2 normalises to 1


def test_int_and_fraction_values_are_interchangeable():
    rng = random.Random(3)
    for e in (3, 4, 5, 12):
        ints = [rng.randrange(-9, 10) for _ in range(euler_phi(e))]
        a = Cyclotomic(e, ints)
        b = Cyclotomic(e, [Fraction(c) for c in ints])
        c = Cyclotomic(e, [Fraction(2 * c, 2) for c in ints])
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert a.coeffs == tuple(Fraction(x) for x in ints)
        assert hash(a.coeffs) == hash(tuple(Fraction(x) for x in ints))
        assert a.render() == b.render()
        assert len({a, b, c}) == 1


def test_render_of_non_integral_values():
    assert Cyclotomic(4, [0, Fraction(1, 2)]).render() == "1/2*z"
    assert Cyclotomic(3, [Fraction(-3, 4), Fraction(-1, 2)]).render() == "-3/4 - 1/2*z"
    assert Cyclotomic.from_rational(Fraction(6, 4), 5).render() == "3/2"
    assert Cyclotomic.from_rational(Fraction(6, 4), 5).as_rational() == Fraction(3, 2)
