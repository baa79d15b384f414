"""Group invariants and character tables against an independent oracle:
``sympy.combinatorics``.

Small random permutation groups are drawn with ``hypothesis``; order, class
sizes, centre order, derived-subgroup order and nilpotency must agree with
sympy's own algorithms, which share no code with this package.  Their
character tables must have one row per sympy class and degrees whose
squares sum to sympy's order, and must satisfy both orthogonality relations
and the degree bound chi(1)^2 <= |G:Z(chi)| (equality exactly when chi
vanishes off Z(chi)) when evaluated through the ``Cyclotomic`` scalar
arithmetic rather than the integer kernels of ``chartable``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
combinatorics = pytest.importorskip("sympy.combinatorics")

from hypothesis import given, settings, strategies as st  # noqa: E402

from groupchar import (Cyclotomic, NotNilpotent, character_table,  # noqa: E402
                       enumerate_from_permutations, nilpotency_class)


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
    perm = st.permutations(list(range(degree))).map(tuple)
    return degree, draw(st.lists(perm, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(permutation_groups())
def test_invariants_match_sympy(spec):
    degree, perms = spec
    g = enumerate_from_permutations(degree, perms)
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms])

    assert g.order == oracle.order()
    assert sorted(g.conjugacy_classes().sizes) == sorted(
        len(c) for c in oracle.conjugacy_classes())
    assert g.center().order == oracle.center().order()
    assert g.derived_subgroup().order == oracle.derived_subgroup().order()
    try:
        nilpotency_class(g)
        nilpotent = True
    except NotNilpotent:
        nilpotent = False
    assert nilpotent == oracle.is_nilpotent


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(permutation_groups())
def test_tables_match_sympy_and_are_orthogonal(spec):
    degree, perms = spec
    t = character_table(enumerate_from_permutations(degree, perms))
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms])
    order = oracle.order()

    k = len(t)
    assert k == len(oracle.conjugacy_classes())
    degrees = [ch.degree for ch in t.irreducibles]
    assert sum(d * d for d in degrees) == order
    assert all(order % d == 0 for d in degrees)

    sizes = t.classes.sizes
    values = [ch.values for ch in t.irreducibles]
    conj = [[v.conj() for v in row] for row in values]
    zero = Cyclotomic.zero(t.exponent)
    for i in range(k):  # rows: sum_c |C| chi_i(c) conj(chi_j(c)) = |G| delta_ij
        for j in range(k):
            total = sum((n * (a * b) for n, a, b in zip(sizes, values[i], conj[j])),
                        zero)
            assert total == (order if i == j else 0)
    for a in range(k):  # columns: sum_chi chi(a) conj(chi(b)) = |C_G(a)| delta_ab
        for b in range(k):
            total = sum((values[i][a] * conj[i][b] for i in range(k)), zero)
            assert total == (order // sizes[a] if a == b else 0)
    for d, row, crow in zip(degrees, values, conj):
        # Z(chi) = {g : |chi(g)|^2 = chi(1)^2}; chi(1)^2 <= |G:Z(chi)|, with
        # equality exactly when chi vanishes off Z(chi)
        inside = [v * w == d * d for v, w in zip(row, crow)]
        centre_order = sum(n for n, ok in zip(sizes, inside) if ok)
        vanishes = all(v.is_zero() for v, ok in zip(row, inside) if not ok)
        assert d * d * centre_order <= order
        assert (d * d * centre_order == order) == vanishes
