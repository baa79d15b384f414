"""Character tables of abelian groups by cyclic extension.

``character_table`` builds an abelian group's table directly, as exponents
of zeta_e, and never runs the Dixon split.  Here that route must give the
same table as the Dixon route (``chartable._dixon_tables``): the same rows in
the same order, the same field prime, inverse classes and power map.  It
runs on the abelian groups of the zoo, on a few larger products, and on
every abelian subgroup and quotient table that ``verify all`` builds on the
zoo's non-abelian groups.  Random products of cyclic groups are checked
against the closed form zeta^(sum a_i x_i e/n_i), and the route's own
cross-checks must refuse doctored exponent arrays.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from groupchar import (ConsistencyError, Group, ResourceError, character_table,
                       cyclic, direct_product, elementary_abelian, gvz, verify_all)
from groupchar import chartable, cli, modular
from groupchar.cyclotomic import _zeta_powers

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


def _assert_same_table(got, want):
    assert got.exponent == want.exponent
    assert got.field_prime == want.field_prime
    assert got.inverse_class == want.inverse_class
    assert got.power_map == want.power_map
    assert [(ch.degree, ch.conductor, ch.coeffs.tolist(), ch.is_irreducible)
            for ch in got.irreducibles] == \
        [(ch.degree, ch.conductor, ch.coeffs.tolist(), ch.is_irreducible)
         for ch in want.irreducibles]


def _products(*orders):
    return _with_coordinates(orders)[0]


def _with_coordinates(orders):
    """C_n1 x ... x C_nr and the exponent vector (x_1..x_r) of each element."""
    g = cyclic(orders[0])
    coords = [(x,) for x in g.elements]  # a cyclic label is the exponent
    for n in orders[1:]:
        c = cyclic(n)
        g = direct_product(g, c)  # labels are (index in g, index in c)
        coords = [coords[i] + (c.elements[j],) for i, j in g.elements]
    return g, coords


def test_abelian_route_matches_dixon(zoo):
    groups = [g for g in zoo.values() if g.is_abelian()]
    assert len(groups) == 7  # trivial, c2..c6, ea9
    groups += [cyclic(60), _products(4, 6, 10), elementary_abelian(2, 5)]
    for g in groups:
        _assert_same_table(character_table(g), chartable._dixon_tables([g])[0])


def test_abelian_route_uses_no_split(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the abelian route ran the Dixon split")

    for name in ("class_matrix", "_combination", "_split", "_root_multiplicities"):
        monkeypatch.setattr(chartable, name, refuse)
    monkeypatch.setattr(modular, "nullspace", refuse)
    monkeypatch.setattr(modular, "rref", refuse)
    t = character_table(_products(4, 6, 10))
    assert len(t) == 240 and t.field_prime == chartable.dixon_prime(240, 60)


def test_table_over_the_coefficient_limit_exits_3_at_once(capsys):
    # cyclic(997) would hold 997 * 997 * 996 int64 coefficients, 7.9 GB
    start = time.perf_counter()
    code = cli.main(["table", "--group", '{"type":"cyclic","n":997}', "--format", "json"])
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and "7920 MB" in out.err
    assert time.perf_counter() - start < 1
    with pytest.raises(ResourceError):  # 999 * 999 * 648 coefficients, 5.2 GB
        character_table(direct_product(cyclic(27), cyclic(37)))


def test_nested_abelian_tables_match_dixon(zoo, tables, monkeypatch):
    seen = []
    original = gvz._Ctx.nested_tables

    def spy(self, hs):
        out = original(self, hs)
        seen.extend(t for t in out if t.group.is_abelian())
        return out

    monkeypatch.setattr(gvz._Ctx, "nested_tables", spy)
    for name, g in zoo.items():
        if not g.is_abelian():
            verify_all(tables[name])
    assert len(seen) >= 20
    for t in seen:
        _assert_same_table(t, chartable._dixon_tables([t.group])[0])


@st.composite
def cyclic_orders(draw):
    return draw(st.lists(st.integers(min_value=1, max_value=8),
                         min_size=1, max_size=3))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cyclic_orders())
def test_products_of_cyclic_groups_match_closed_form(orders):
    g, coords = _with_coordinates(orders)
    t = character_table(g)
    e = math.lcm(*orders)
    assert t.exponent == e and len(t) == math.prod(orders)
    xs = np.array([coords[r] for r in t.classes.reps])
    steps = np.array([e // n for n in orders])
    zeta_rows = np.array(_zeta_powers(e))
    expected = {tuple(zeta_rows[xs @ (np.array(a) * steps) % e].ravel().tolist())
                for a in itertools.product(*(range(n) for n in orders))}
    assert {tuple(ch.coeffs.ravel().tolist()) for ch in t.irreducibles} == expected


def test_cross_checks_refuse_doctored_exponents():
    g = _products(4, 6)
    f = chartable._abelian_exponents(g)
    chartable._check_abelian(g, f)

    twin = f.copy()
    twin[-1] = twin[0]  # still multiplicative, no longer distinct
    with pytest.raises(ConsistencyError, match="distinct"):
        chartable._check_abelian(g, twin)

    bent = f.copy()
    bent[3, 5] = (int(bent[3, 5]) + 1) % g.exponent
    with pytest.raises(ConsistencyError, match="multiplicative"):
        chartable._check_abelian(g, bent)

    with pytest.raises(ConsistencyError, match="number"):
        chartable._check_abelian(g, f[:-1])


def test_generators_must_reach_the_whole_group():
    c2xc2 = elementary_abelian(2, 2)
    one_generator = Group("half", c2xc2.elements, c2xc2.words,
                          c2xc2.generators[:1], c2xc2.table)
    with pytest.raises(ConsistencyError, match="reach"):
        character_table(one_generator)
