"""The integer-matrix kernels of ``chartable`` against the scalar loops they
replaced.

The references below are the per-class root-of-unity multiplicity loop of
the value lift and the ``Cyclotomic`` inner product, kept here verbatim in
their loop form.  The kernels must reproduce them exactly: same rows, same
rationals, same refusal of an irrational pairing.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from groupchar import (Character, ConsistencyError, Cyclotomic, InputError,
                       character_table, decompose, from_spec, inner_product,
                       restrict, root_of_unity)
from groupchar import chartable
from groupchar.cyclotomic import _zeta_powers, euler_phi
from groupchar.modular import is_prime

LIFT_SPECS = {
    "s3": {"type": "named", "name": "s3"},
    "heis3": {"type": "named", "name": "heis3"},
    "c3wrc3": {"type": "named", "name": "c3wrc3"},
    "cyclic(60)": {"type": "cyclic", "n": 60},
    "d5 x C12": {"type": "product",
                 "factors": [{"type": "named", "name": "d5"},
                             {"type": "cyclic", "n": 12}]},
    "S6": {"type": "perm", "points": 6,
           "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]},
}


# ---------------------------------------------------------------------------
# scalar references

def _reference_lift(theta_pm, e, q, degree):
    """Values of one character by the per-class multiplicity loop;
    ``theta_pm[j][s]`` is theta on the class of g_j^s."""
    z = chartable._element_of_order(e, q)
    zpow = [1] * e
    for j in range(1, e):
        zpow[j] = zpow[j - 1] * z % q
    inv_e = pow(e, -1, q)
    zeta_rows = _zeta_powers(e)
    phi = euler_phi(e)
    values = []
    for j in range(len(theta_pm)):
        coeffs = [Fraction(0)] * phi
        total = 0
        for kk in range(e):
            m_kk = inv_e * sum(
                theta_pm[j][s] * zpow[(-s * kk) % e] for s in range(e)) % q
            if m_kk:
                total += m_kk
                row = zeta_rows[kk]
                for t in range(phi):
                    if row[t]:
                        coeffs[t] += m_kk * row[t]
        assert total == degree
        values.append(Cyclotomic(e, coeffs))
    return values


def _reference_inner_product(chi, psi):
    e = math.lcm(chi.conductor, psi.conductor)
    classes = chi.group.conjugacy_classes()
    total = Cyclotomic.zero(e)
    for size, a, b in zip(classes.sizes, chi.values, psi.values):
        total = total + size * (a.embed(e) * b.embed(e).conj())
    r = total.as_rational()
    if r is None:
        raise ConsistencyError("inner product of characters must be rational")
    return r / chi.group.order


# ---------------------------------------------------------------------------
# value lift

@pytest.mark.parametrize("name", list(LIFT_SPECS))
def test_lift_kernel_matches_scalar_loop(name, monkeypatch):
    seen = []
    kernel = chartable._root_multiplicities

    def spy(theta_pm, zmat, inv_e, q):
        seen.append((theta_pm.tolist(), q))
        return kernel(theta_pm, zmat, inv_e, q)

    monkeypatch.setattr(chartable, "_root_multiplicities", spy)
    g = from_spec(LIFT_SPECS[name])
    t = character_table(g)
    assert len(seen) == len(t)
    e = t.exponent
    reference = []
    for theta_pm, q in seen:
        assert q == t.field_prime
        degree = theta_pm[0][0]  # theta(1) is the degree
        values = _reference_lift(theta_pm, e, q, degree)
        reference.append((degree, tuple(v.coeffs for v in values)))
    assert sorted(reference) == [(ch.degree, tuple(v.coeffs for v in ch.values))
                                 for ch in t.irreducibles]


def _largest_prime_below(bound, e):
    q = bound - 1 - (bound - 2) % e  # largest q < bound with q = 1 (mod e)
    while not is_prime(q):
        q -= e
    return q


@pytest.mark.parametrize("bound", [chartable.PRIME_BOUND, 2 ** 31])
def test_root_multiplicities_do_not_overflow(bound):
    # At 2**31 the blocks shrink to one term, so every block boundary runs.
    e = 60
    q = _largest_prime_below(bound, e)
    assert q % e == 1 and q < bound
    rng = random.Random(7)
    theta_pm = [[q - 1] * e, [q - 1 - s for s in range(e)],
                [rng.randrange(q) for _ in range(e)], [0] * e]
    z = chartable._element_of_order(e, q)
    zmat = [[pow(z, (-s * kk) % e, q) for kk in range(e)] for s in range(e)]
    inv_e = pow(e, -1, q)
    got = chartable._root_multiplicities(
        np.array(theta_pm, dtype=np.int64), np.array(zmat, dtype=np.int64),
        inv_e, q)
    want = [[inv_e * sum(row[s] * zmat[s][kk] for s in range(e)) % q
             for kk in range(e)] for row in theta_pm]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# inner products

def _combination(table, coeffs, conductor=None):
    """The class function sum a_i chi_i, re-embedded at ``conductor``."""
    e = table.exponent
    values = []
    for c in range(len(table.classes)):
        acc = Cyclotomic.zero(e)
        for a, ch in zip(coeffs, table.irreducibles):
            acc = acc + ch.values[c].embed(e) * a
        values.append(acc.embed(conductor or e))
    return Character(table.group, values[0].as_rational(), tuple(values), False)


def _random_coeffs(rng, table):
    return [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 7)))
            for _ in table.irreducibles]


@pytest.mark.parametrize("name", ["s3", "d4", "heis3", "c3wrc3", "c5"])
def test_inner_product_matches_cyclotomic_loop(name, tables):
    t = tables[name]
    rng = random.Random(name)
    for _ in range(4):
        a, b = _random_coeffs(rng, t), _random_coeffs(rng, t)
        chi = _combination(t, a)
        psi = _combination(t, b, conductor=2 * t.exponent)
        got = inner_product(chi, psi)
        assert got == _reference_inner_product(chi, psi)
        assert got == sum(x * y for x, y in zip(a, b))
    for chi in t.irreducibles:
        for psi in t.irreducibles:
            assert inner_product(chi, psi) == _reference_inner_product(chi, psi)


def test_inner_product_of_restrictions_across_conductors(tables):
    for name in ("s3", "d4", "c3wrc3", "heis3xc3"):
        g = tables[name].group
        for h in (g.center(), g.derived_subgroup()):
            ht = character_table(h.as_group())
            for chi in tables[name].irreducibles:
                down = restrict(chi, h)
                for lam in ht.irreducibles:
                    assert (inner_product(down, lam)
                            == _reference_inner_product(down, lam))


def test_decompose_matches_cyclotomic_loop(tables):
    rng = random.Random(11)
    for name in ("s3", "heis3", "c3wrc3"):
        t = tables[name]
        a = [rng.randrange(3) for _ in t.irreducibles]
        chi = _combination(t, a, conductor=3 * t.exponent)
        assert list(decompose(chi, t)) == a == [
            _reference_inner_product(chi, irr) for irr in t.irreducibles]
        with pytest.raises(InputError):
            decompose(_combination(t, [Fraction(1, 2)] + a[1:]), t)


def test_irrational_pairing_is_refused(tables):
    t = tables["c3"]
    g = t.group
    trivial = next(ch for ch in t.irreducibles
                   if all(v.equals_rational(1) for v in ch.values))
    z = root_of_unity(1, 3)
    odd = Character(g, 1, (z,) + tuple(Cyclotomic.one(3)
                                       for _ in range(len(t.classes) - 1)),
                    False)
    with pytest.raises(ConsistencyError):
        _reference_inner_product(odd, trivial)
    with pytest.raises(ConsistencyError):
        inner_product(odd, trivial)
    with pytest.raises(ConsistencyError):
        decompose(odd, t)
