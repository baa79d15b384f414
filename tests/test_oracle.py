"""Group invariants against an independent oracle: ``sympy.combinatorics``.

Small random permutation groups are drawn with ``hypothesis``; order, class
sizes, centre order, derived-subgroup order and nilpotency must agree with
sympy's own algorithms, which share no code with this package.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
combinatorics = pytest.importorskip("sympy.combinatorics")

from hypothesis import given, settings, strategies as st  # noqa: E402

from groupchar import NotNilpotent, enumerate_from_permutations, nilpotency_class  # noqa: E402


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
