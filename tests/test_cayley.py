"""The array operations on the Cayley table against the scalar loops they
replaced, and every constructor's table against its label-level product.

The references below are the element-by-element loops that ``groups`` and
``chartable`` used before every group held one dense table, kept here in
their loop form over Python lists.  The array code must reproduce them
exactly: same members in the same order, same class numbering, same
quotient projection, section and target table, same class matrices.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from groupchar import (InputError, ResourceError, Subgroup, build_group,
                       centralizer, commutator_subgroup, cyclic,
                       direct_product, elementary_abelian,
                       enumerate_from_permutations, from_spec, generated_by,
                       gn, induce, is_normal, named, quotient)
from groupchar import chartable, cli, constructions
from groupchar.cyclotomic import Cyclotomic
from groupchar.groups import ORDER_CAP, right_coset_minima

EXTRA_SPECS = {
    "d5 x C12": {"type": "product",
                 "factors": [{"type": "named", "name": "d5"},
                             {"type": "cyclic", "n": 12}]},
    "S6": {"type": "perm", "points": 6,
           "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]},
}


@pytest.fixture(scope="module")
def groups(zoo):
    out = dict(zoo)
    out.update({name: from_spec(spec) for name, spec in EXTRA_SPECS.items()})
    return out


def _ops(g):
    """The table and the inverses as Python lists, for the scalar loops."""
    return g.table.tolist(), g.inverse.tolist()


# ---------------------------------------------------------------------------
# scalar references

def _reference_generated_by(g, seeds):
    mul, _ = _ops(g)
    seed_list = list(dict.fromkeys(int(s) for s in seeds))
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in seed_list:
                y = mul[x][s]
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(members))


def _reference_commutator_subgroup(h, k):
    g = h.parent
    mul, inv = _ops(g)
    comms = set()
    for a in h.members:
        for b in k.members:
            comms.add(mul[mul[inv[a]][inv[b]]][mul[a][b]])
    return _reference_generated_by(g, sorted(comms))


def _reference_conjugacy_classes(g):
    mul, inv = _ops(g)
    n = g.order
    class_of = [-1] * n
    gens = list(dict.fromkeys(g.generators))
    reps, members = [], []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        ci = len(reps)
        class_of[x] = ci
        orbit = [x]
        qi = 0
        while qi < len(orbit):
            y = orbit[qi]
            qi += 1
            for s in gens:
                z = mul[mul[inv[s]][y]][s]
                if class_of[z] < 0:
                    class_of[z] = ci
                    orbit.append(z)
        reps.append(x)
        members.append(tuple(sorted(orbit)))
    return tuple(reps), tuple(members), tuple(class_of)


def _reference_center(g):
    mul, _ = _ops(g)
    gens = list(dict.fromkeys(g.generators))
    return tuple(z for z in range(g.order)
                 if all(mul[z][s] == mul[s][z] for s in gens))


def _reference_element_orders(g):
    mul, _ = _ops(g)
    orders = []
    for x in range(g.order):
        k, p = 1, x
        while p != 0:
            p = mul[p][x]
            k += 1
        orders.append(k)
    return tuple(orders)


def _reference_subgroup_table(sub):
    par = sub.parent
    mul, _ = _ops(par)
    lookup = {m: i for i, m in enumerate(sub.members)}
    table = []
    for a in sub.members:
        row = []
        for b in sub.members:
            idx = lookup.get(mul[a][b])
            if idx is None:
                raise InputError("not closed under multiplication")
            row.append(idx)
        table.append(row)
    return table


def _reference_quotient(g, n):
    """Projection, section, words and table of G/N through coset tuples."""
    mul, inv = _ops(g)
    cid_of = [-1] * g.order
    coset_members = []
    for x in range(g.order):
        if cid_of[x] >= 0:
            continue
        mem = tuple(sorted(mul[x][m] for m in n.members))
        for y in mem:
            cid_of[y] = len(coset_members)
        coset_members.append(mem)

    def comp(c1, c2):
        return coset_members[cid_of[mul[c1[0]][c2[0]]]]

    gens = {}  # one generator per coset, named by its first generator
    for x in g.generators:
        gens.setdefault(coset_members[cid_of[x]], g.words[x])
    target = build_group("ref", list(gens), comp, coset_members[0],
                         gen_names=list(gens.values()))
    projection = tuple(target.index_of(coset_members[cid_of[x]])
                       for x in range(g.order))
    section = tuple(lab[0] for lab in target.elements)
    return projection, section, target.words, target.table.tolist()


def _reference_class_matrix(g, classes, i):
    mul, inv = _ops(g)
    k = len(classes)
    m = np.zeros((k, k), dtype=np.int64)
    for x in classes.members[i]:
        for t in range(k):
            m[classes.class_of[mul[inv[x]][classes.reps[t]]], t] += 1
    return m


def _reference_power_map(g, classes, e):
    mul, _ = _ops(g)
    pm = []
    for rep in classes.reps:
        row, x = [], 0
        for _ in range(e):
            row.append(classes.class_of[x])
            x = mul[x][rep]
        pm.append(tuple(row))
    return tuple(pm)


def _reference_transversal(g, h):
    mul, _ = _ops(g)
    covered = [False] * g.order
    reps = []
    for x in range(g.order):
        if not covered[x]:
            reps.append(x)
            for m in h.members:
                covered[mul[m][x]] = True
    return reps


def _reference_induce_values(lam, h, g):
    mul, inv = _ops(g)
    e = g.exponent
    h_class_of = h.as_group().conjugacy_classes().class_of
    sub_index = {m: i for i, m in enumerate(h.members)}
    values = []
    for rep in g.conjugacy_classes().reps:
        acc = Cyclotomic.zero(e)
        for t in _reference_transversal(g, h):
            y = mul[mul[t][rep]][inv[t]]
            if y in sub_index:
                acc = acc + lam.values[h_class_of[sub_index[y]]].embed(e)
        values.append(acc)
    return [v.coeffs for v in values]


def _subgroups(g, count=6, seed=11):
    """The trivial, derived and whole subgroups, the centre, and a few
    seeded cyclic and two-generator subgroups."""
    rng = random.Random(seed)
    subs = [Subgroup(g, [0]), g.derived_subgroup(), g.center(),
            g.full_subgroup()]
    for _ in range(count):
        seeds = [rng.randrange(g.order) for _ in range(rng.choice((1, 2)))]
        subs.append(generated_by(g, seeds))
    return subs


# ---------------------------------------------------------------------------
# group layer

def test_element_data_matches_scalar_loops(groups):
    for g in groups.values():
        assert g.element_orders() == _reference_element_orders(g)
        cls = g.conjugacy_classes()
        assert (cls.reps, cls.members, cls.class_of) == \
            _reference_conjugacy_classes(g)
        assert g.center().members == _reference_center(g)
        assert all(g.inv(x) == g.inverse[x] for x in range(g.order))
        assert g.is_abelian() == (len(cls) == g.order)


def test_generated_by_matches_scalar_loop(groups):
    rng = random.Random(5)
    for g in groups.values():
        for _ in range(10):
            seeds = [rng.randrange(g.order) for _ in range(rng.randrange(4))]
            assert generated_by(g, seeds).members == \
                _reference_generated_by(g, seeds)


def test_commutator_subgroup_matches_scalar_loop(groups):
    for name, g in groups.items():
        subs = _subgroups(g, count=2 if name == "S6" else 4)
        whole = g.full_subgroup()
        for h in subs:
            assert commutator_subgroup(h, whole).members == \
                _reference_commutator_subgroup(h, whole)
        h, k = subs[-2], subs[-1]
        assert commutator_subgroup(h, k).members == \
            _reference_commutator_subgroup(h, k)


def test_centralizer_and_normality_match_definitions(groups):
    for g in groups.values():
        mul, inv = _ops(g)
        for x in range(0, g.order, max(1, g.order // 12)):
            assert centralizer(g, x).members == tuple(
                y for y in range(g.order) if mul[y][x] == mul[x][y])
        for h in _subgroups(g):
            expected = all(mul[mul[inv[s]][m]][s] in h
                           for s in g.generators for m in h.members)
            assert is_normal(g, h) == expected


def test_as_group_matches_scalar_loop(groups):
    for g in groups.values():
        for h in _subgroups(g):
            assert h.as_group().table.tolist() == _reference_subgroup_table(h)
        # a set that is not closed fails in both, naming the escape
        x = next((y for y in range(g.order) if g.element_orders()[y] > 2), None)
        if x is not None:
            with pytest.raises(InputError, match="escapes"):
                Subgroup(g, [0, x]).as_group()
            with pytest.raises(InputError):
                _reference_subgroup_table(Subgroup(g, [0, x]))


def test_quotient_matches_coset_arithmetic(groups):
    for g in groups.values():
        for n in _subgroups(g):
            if not is_normal(g, n):
                continue
            qm = quotient(g, n)
            projection, section, words, table = _reference_quotient(g, n)
            assert qm.projection == projection
            assert qm.section == section
            assert qm.target.words == words
            assert qm.target.table.tolist() == table


def test_quotient_words_name_the_right_generators():
    # a, b, c lie in the base group N, so the cosets of a, b, c coincide
    # and the coset of s must be named s
    g = named("c3wrc3")
    qm = quotient(g, generated_by(g, g.generators[:3]))
    assert qm.target.words == ("1", "s", "s*s")
    assert [g.words[x] for x in qm.section] == ["1", "s", "s*s"]


def test_right_coset_minima(groups):
    for g in groups.values():
        mul, _ = _ops(g)
        for h in _subgroups(g, count=2):
            assert right_coset_minima(h).tolist() == [
                min(mul[m][x] for m in h.members) for x in range(g.order)]


# ---------------------------------------------------------------------------
# chartable

def test_class_matrices_and_power_map_match_scalar_loops(groups):
    for g in groups.values():
        classes = g.conjugacy_classes()
        for i in range(len(classes)):
            assert np.array_equal(chartable.class_matrix(g, classes, i),
                                  _reference_class_matrix(g, classes, i))
        assert chartable._power_map(g, classes, g.exponent) == \
            _reference_power_map(g, classes, g.exponent)


def test_transversal_and_induction_match_scalar_loops(groups):
    for g in groups.values():
        for h in _subgroups(g, count=3):
            assert chartable._transversal(g, h) == _reference_transversal(g, h)
        for h in _subgroups(g, count=2)[4:]:
            ht = chartable.character_table(h.as_group())
            for lam in ht.irreducibles[:3]:
                assert [v.coeffs for v in induce(lam, h, g).values] == \
                    _reference_induce_values(lam, h, g)


# ---------------------------------------------------------------------------
# every constructor's table against its label-level product

def _perm_product(p, r):
    return tuple(p[r[i]] for i in range(len(p)))


def _gn_product(p, n):
    def comp(u, v):
        t = u[n]
        return tuple((u[i] + v[i]) % p if i <= n
                     else (u[i] + v[i] - t * v[i - n - 1]) % p
                     for i in range(2 * n + 1))
    return comp


def _constructed():
    a, b = named("d5"), cyclic(12)
    s6 = from_spec(EXTRA_SPECS["S6"])
    return [
        (cyclic(12), lambda u, v: (u + v) % 12),
        (elementary_abelian(3, 3), lambda u, v: tuple(
            (x + y) % 3 for x, y in zip(u, v))),
        (direct_product(a, b), lambda u, v: (a.mul(u[0], v[0]),
                                             b.mul(u[1], v[1]))),
        (gn(3, 2), _gn_product(3, 2)),
        (gn(5, 1), _gn_product(5, 1)),
        (named("q8"), _perm_product),
        (named("c3wrc3"), _perm_product),
        (s6, _perm_product),
        (enumerate_from_permutations(4, [(1, 0, 2, 3), (0, 2, 3, 1)]),
         _perm_product),
    ]


def test_tables_match_label_level_products():
    rng = random.Random(2)
    for g, compose in _constructed():
        n = g.order
        pairs = ([(a, b) for a in range(n) for b in range(n)] if n <= 250
                 else [(rng.randrange(n), rng.randrange(n)) for _ in range(20000)])
        labels = g.elements
        for a, b in pairs:
            assert g.table[a, b] == g.index_of(compose(labels[a], labels[b]))


def test_subgroup_and_quotient_tables_match_their_labels(groups):
    for g in groups.values():
        mul, _ = _ops(g)
        for h in _subgroups(g, count=2):
            hg = h.as_group()
            for a in range(hg.order):  # labels are parent indices
                for b in range(0, hg.order, max(1, hg.order // 20)):
                    assert hg.table[a, b] == hg.index_of(
                        mul[hg.elements[a]][hg.elements[b]])
            if is_normal(g, h):
                qm = quotient(g, h)
                low = right_coset_minima(h)  # labels are coset minima
                tg = qm.target
                for a in range(tg.order):
                    for b in range(tg.order):
                        assert tg.table[a, b] == tg.index_of(
                            int(low[mul[tg.elements[a]][tg.elements[b]]]))


# ---------------------------------------------------------------------------
# admission at ORDER_CAP

def test_constructors_refuse_orders_over_the_cap(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(constructions, "build_group", never)
    with pytest.raises(ResourceError):
        cyclic(ORDER_CAP + 1)
    with pytest.raises(ResourceError):
        gn(3, 5)
    with pytest.raises(ResourceError):  # a larger cap does not lift the limit
        cyclic(ORDER_CAP + 1, cap=10 ** 6)


def test_build_group_stops_at_the_order_cap():
    calls = []

    def add(a, b):
        calls.append(1)
        return (a + b) % 30000

    with pytest.raises(ResourceError, match=str(ORDER_CAP)):
        build_group("C30000", [1], add, 0, cap=10 ** 6)
    assert len(calls) == ORDER_CAP


def test_cli_max_order_cannot_pass_the_cap(capsys):
    code = cli.main(["table", "--max-order", "30000",
                     "--group", '{"type":"cyclic","n":25000}'])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert "resource limit" in out.err
