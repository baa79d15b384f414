"""Group constructors checked against independent models.

The two-degree family of order p^(2n+1) is compared element-by-element with
a unipotent matrix group over F_p: label (x_1..x_n, t, y_1..y_n) maps to the
(n+2) x (n+2) identity matrix plus t in position (0,1), y_j in (0, 1+j+1) and
-x_j in (1, 1+j+1).  Agreement of that map with every product is a complete
check of the multiplication law.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from groupchar import (
    InputError,
    ResourceError,
    cyclic,
    direct_product,
    elementary_abelian,
    from_spec,
    gn,
    heisenberg,
    named,
    predicted_centres,
)
from groupchar.groups import generated_by


def _gn_matrix(label, p, n):
    m = np.eye(n + 2, dtype=np.int64)
    x, t, y = label[:n], label[n], label[n + 1:]
    m[0, 1] = t
    for j in range(n):
        m[0, 2 + j] = y[j]
        m[1, 2 + j] = (-x[j]) % p
    return m % p


def _unipotent_inverse(m, p):
    n = m - np.eye(m.shape[0], dtype=np.int64)
    return (np.eye(m.shape[0], dtype=np.int64) - n + n @ n) % p


def test_gn_matches_matrix_model_small():
    for p, n in ((3, 1), (5, 1)):
        g = gn(p, n)
        mats = [_gn_matrix(lab, p, n) for lab in g.elements]
        for i in range(g.order):
            for j in range(g.order):
                assert ((mats[i] @ mats[j]) % p == mats[g.mul(i, j)]).all()
        for i in range(g.order):
            assert (_unipotent_inverse(mats[i], p) == mats[g.inv(i)]).all()


def test_gn32_matches_matrix_model_batched():
    g = gn(3, 2)
    mats = np.stack([_gn_matrix(lab, 3, 2) for lab in g.elements])
    prod = np.einsum("iab,jbc->ijac", mats, mats) % 3
    mul = np.array([[g.mul(i, j) for j in range(g.order)]
                    for i in range(g.order)])
    assert (prod == mats[mul]).all()


def test_gn_matrix_presentation():
    # [a_i, a] = b_i, computed entirely inside the matrix group
    for p, n in ((3, 2), (5, 1)):
        g = gn(p, n)
        meta = g.meta
        a = _gn_matrix(g.elements[meta["alpha"]], p, n)
        for i in range(n):
            ai = _gn_matrix(g.elements[meta["alphas"][i]], p, n)
            bi = _gn_matrix(g.elements[meta["betas"][i]], p, n)
            comm = (_unipotent_inverse(ai, p) @ _unipotent_inverse(a, p) @ ai @ a) % p
            assert (comm == bi).all()
            assert (np.linalg.matrix_power(ai, p) % p == np.eye(n + 2)).all()


def test_gn_structural_facts():
    for p, n in ((3, 1), (3, 2), (5, 1)):
        g = gn(p, n)
        assert g.order == p ** (2 * n + 1)
        assert g.exponent == p
        assert not g.is_abelian()
        betas = generated_by(g, g.meta["betas"])
        assert betas.order == p ** n
        assert g.center().members == betas.members
        assert g.derived_subgroup().members == betas.members
        orders = g.element_orders()
        assert orders[0] == 1 and all(o == p for o in orders[1:])


def _reference_gn_word(u, n):
    """The word of one gn label by one Python call per element, as ``gn``
    named its elements before it named them all from the label array."""
    parts = []
    for i in range(n):
        if u[i]:
            parts.append(f"a{i + 1}" + (f"^{u[i]}" if u[i] > 1 else ""))
    if u[n]:
        parts.append("a" + (f"^{u[n]}" if u[n] > 1 else ""))
    for i in range(n):
        if u[n + 1 + i]:
            parts.append(f"b{i + 1}" + (f"^{u[n + 1 + i]}" if u[n + 1 + i] > 1 else ""))
    return "*".join(parts) or "1"


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (7, 1), (5, 2)])
def test_gn_words_match_the_per_element_word(p, n):
    g = gn(p, n)
    assert g.words == tuple(_reference_gn_word(u, n) for u in g.elements)


def test_gn_rejects_bad_parameters():
    for p, n in ((2, 1), (4, 1), (9, 1), (1, 1)):
        with pytest.raises(InputError):
            gn(p, n)
    with pytest.raises(InputError):
        gn(3, 0)
    with pytest.raises(ResourceError):
        gn(3, 4, cap=100)


def test_heisenberg_is_gn_with_n_one():
    h = heisenberg(3)
    assert h.order == 27 and h.exponent == 3
    assert h.meta["n"] == 1 and h.meta["p"] == 3


def test_predicted_centres_for_gn32():
    g = gn(3, 2)
    meta = g.meta
    a1, a2 = meta["alphas"]
    betas = meta["betas"]
    expected = sorted([
        generated_by(g, [a1] + betas).members,
        generated_by(g, [a2] + betas).members,
    ])
    got = predicted_centres(g)
    assert got == expected
    assert all(len(m) == 27 for m in got)
    assert predicted_centres(named("s3")) == []
    assert predicted_centres(cyclic(4)) == []


def test_predicted_centres_for_heisenberg():
    g = gn(3, 1)
    assert predicted_centres(g) == [g.center().members]


def test_cyclic_and_elementary_abelian():
    c = cyclic(12)
    assert c.order == 12 and c.is_abelian() and c.exponent == 12
    assert sorted(c.element_orders()) == [1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12]
    ea = elementary_abelian(3, 2)
    assert ea.order == 9 and ea.is_abelian() and ea.exponent == 3
    with pytest.raises(InputError):
        elementary_abelian(6, 2)
    with pytest.raises(InputError):
        cyclic(0)


def test_named_catalogue(zoo):
    assert zoo["q8"].order == 8
    assert sorted(zoo["q8"].element_orders()).count(2) == 1  # unique involution
    assert sorted(zoo["d4"].element_orders()).count(2) == 5
    d5 = zoo["d5"]
    assert d5.order == 10
    assert sorted(d5.element_orders()) == [1] + [2] * 5 + [5] * 4
    w = zoo["c3wrc3"]
    assert w.order == 81 and w.exponent == 9
    with pytest.raises(InputError):
        named("m11")


def test_direct_product_facts():
    g = direct_product(named("s3"), cyclic(2))
    assert g.order == 12
    assert g.center().order == 2
    assert g.derived_subgroup().order == 3
    assert g.words[0] == "1"
    h = direct_product(cyclic(2), cyclic(3))
    assert h.is_abelian() and h.exponent == 6


def test_from_spec_all_kinds():
    assert from_spec({"type": "gn", "p": 3, "n": 1}).order == 27
    assert from_spec({"type": "cyclic", "n": 5}).order == 5
    assert from_spec({"type": "named", "name": "d4"}).order == 8
    perm = from_spec({"type": "perm", "points": 3,
                      "generators": [[[1, 2, 3]], [[1, 2]]]})
    assert perm.order == 6 and not perm.is_abelian()
    prod = from_spec({"type": "product",
                      "factors": [{"type": "named", "name": "heis3"},
                                  {"type": "cyclic", "n": 3}]})
    assert prod.order == 81


def test_from_spec_errors():
    for bad in (
        42,
        {"type": "frobnicate"},
        {"type": "gn", "p": "3", "n": 1},
        {"type": "cyclic"},
        {"type": "named", "name": 7},
        {"type": "perm", "points": 0, "generators": [[[1]]]},
        {"type": "perm", "points": 3, "generators": []},
        {"type": "product", "factors": []},
    ):
        with pytest.raises(InputError):
            from_spec(bad)
    with pytest.raises(ResourceError):
        from_spec({"type": "gn", "p": 3, "n": 3}, cap=1000)


def test_perm_spec_builds_only_the_moved_points():
    # A huge point count is not enumerated before admission: the image
    # tuples cover the points the cycles move, and the name keeps the count.
    tracemalloc.start()
    try:
        g = from_spec({"type": "perm", "points": 10 ** 12,
                       "generators": [[[1, 2]]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 2 and g.name == f"perm({10 ** 12})"
    assert peak < 4 * 2 ** 20
    # fixed points change nothing: the same products in the same order
    spread = from_spec({"type": "perm", "points": 9,
                        "generators": [[[2, 5, 9]], [[2, 5]]]})
    tight = from_spec({"type": "perm", "points": 3,
                       "generators": [[[1, 2, 3]], [[1, 2]]]})
    assert spread.name == "perm(9)" and spread.words == tight.words
    assert np.array_equal(spread.table, tight.table)
    assert from_spec({"type": "perm", "points": 4, "generators": [[]]}).order == 1
    with pytest.raises(InputError):
        from_spec({"type": "perm", "points": 10 ** 12,
                   "generators": [[[1, 10 ** 12 + 1]]]})
