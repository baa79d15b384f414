"""The array operations on the Cayley table against the scalar loops they
replaced, and every constructor's table against its label-level product.

The references below are the element-by-element loops that ``groups`` and
``chartable`` used before every group held one dense table, kept here in
their loop form over Python lists.  The array code must reproduce them
exactly: same members in the same order, same class numbering, same
quotient projection, section and target table, same class matrices.
``_reference_build`` is the queue enumeration over Python labels with one
scalar product per call, which the level-by-level enumeration replaced.
The power map, filled by doubling, is also checked against the sequential
gathers it replaced (``old_routes.power_map``).
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from groupchar import (InputError, ResourceError, Subgroup, build_group,
                       centralizer, commutator_subgroup, cyclic,
                       direct_product, elementary_abelian,
                       enumerate_from_permutations, from_spec, generated_by,
                       gn, induce, is_normal, named, perm_from_cycles,
                       quotient)
from groupchar import chartable, cli, constructions
from groupchar.cyclotomic import Cyclotomic
from groupchar.groups import ORDER_CAP, right_coset_minima

import old_routes

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

def _reference_build(gen_labels, compose, identity, gen_names=None,
                     word_fn=None):
    """Elements, words, generators and table by a queue over Python labels,
    one scalar ``compose`` per product."""
    gens = list(dict.fromkeys(gen_labels))
    if gen_names is None:
        gen_names = [chr(ord("a") + i) if i < 26 else f"g{i}"
                     for i in range(len(gens))]
    elements, index, parents = [identity], {identity: 0}, [(-1, -1)]
    i = 0
    while i < len(elements):
        for gpos, glab in enumerate(gens):
            y = compose(elements[i], glab)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                parents.append((i, gpos))
        i += 1
    n = len(elements)
    if word_fn is not None:
        words = [word_fn(lab) for lab in elements]
    else:
        words = ["1"] * n
        for j in range(1, n):
            par, gpos = parents[j]
            words[j] = (gen_names[gpos] if par == 0
                        else words[par] + "*" + gen_names[gpos])
    # row j is x -> w_j x; with w_j = w_par g it is row par read at g x
    left = [np.array([index[compose(glab, el)] for el in elements])
            for glab in gens]
    table = np.empty((n, n), dtype=np.int64)
    table[0] = np.arange(n)
    for j in range(1, n):
        par, gpos = parents[j]
        table[j] = table[par, left[gpos]]
    return (tuple(elements), tuple(words), tuple(index[g] for g in gens),
            table.tolist())


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
    elements, words, _, table = _reference_build(
        list(gens), comp, coset_members[0], list(gens.values()))
    index = {lab: i for i, lab in enumerate(elements)}
    projection = tuple(index[coset_members[cid_of[x]]] for x in range(g.order))
    section = tuple(lab[0] for lab in elements)
    return projection, section, words, table


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


def _reference_induction_counts(g, h):
    """Entry [c, j]: the t of the transversal with t x t^-1 in class j of H,
    for x the representative of class c of G."""
    mul, inv = _ops(g)
    h_class_of = h.as_group().conjugacy_classes().class_of
    sub_index = {m: i for i, m in enumerate(h.members)}
    counts = np.zeros((len(g.conjugacy_classes()), len(h.as_group().conjugacy_classes())),
                      dtype=np.int64)
    trans = _reference_transversal(g, h)
    for c, rep in enumerate(g.conjugacy_classes().reps):
        for t in trans:
            y = mul[mul[t][rep]][inv[t]]
            if y in sub_index:
                counts[c, h_class_of[sub_index[y]]] += 1
    return counts


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
    # in the last subgroup, of gn(3,2), the members at positions 1, 2, 4, 8
    # and 16 generate less than it, so the propagation must add a member
    gn32 = gn(3, 2)
    short = generated_by(gn32, [9, 48])
    assert generated_by(gn32, [short.members[i] for i in (1, 2, 4, 8, 16)]
                        ).order < short.order
    cases = [(g, h) for g in groups.values() for h in _subgroups(g, count=2)]
    for g, h in cases + [(gn32, short)]:
        mul, _ = _ops(g)
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


def test_power_map_by_doubling_matches_the_sequential_gathers(groups):
    # e - 1 gathers against ceil(log2 e), on small e, on about half of each
    # group's exponent and on all of it, so partial last blocks run too
    cases = list(groups.values()) + [cyclic(n) for n in (1, 2, 3, 4, 5, 7, 8, 9, 60)]
    for g in cases:
        classes = g.conjugacy_classes()
        for e in sorted({1, 2, 3, g.exponent // 2 + 1, g.exponent}):
            assert chartable._power_map(g, classes, e) == \
                old_routes.power_map(g, classes, e), (g.name, e)


def test_transversal_and_induction_match_scalar_loops(groups):
    # the counts come from the fusion map and class sizes alone; the
    # subgroups include non-normal ones, where H's classes split G's unevenly
    non_normal = 0
    for g in groups.values():
        for h in _subgroups(g, count=3):
            assert np.array_equal(chartable._induction_counts(h, g),
                                  _reference_induction_counts(g, h)), (g.name, h.order)
            non_normal += not is_normal(g, h)
        for h in _subgroups(g, count=2)[4:]:
            ht = chartable.character_table(h.as_group())
            for lam in ht.irreducibles[:3]:
                assert [v.coeffs for v in induce(lam, h, g).values] == \
                    _reference_induce_values(lam, h, g)
    assert non_normal > 0


# ---------------------------------------------------------------------------
# every constructor against the queue enumeration and its label-level product
#
# Each reference is (generator labels, scalar product, identity, generator
# names, word function): the inputs the constructor enumerated from before
# its product was batched.

def _perm_product(p, r):
    return tuple(p[r[i]] for i in range(len(p)))


def _gn_product(p, n):
    def comp(u, v):
        t = u[n]
        return tuple((u[i] + v[i]) % p if i <= n
                     else (u[i] + v[i] - t * v[i - n - 1]) % p
                     for i in range(2 * n + 1))
    return comp


def _power_word(name, c):
    return name + (f"^{c}" if c > 1 else "")


def _cyclic_ref(m):
    return ([1] if m > 1 else [], lambda u, v: (u + v) % m, 0, ["g"],
            lambda x: "1" if x == 0 else ("g" if x == 1 else f"g^{x}"))


def _elementary_abelian_ref(p, k):
    gens = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    return (gens, lambda u, v: tuple((x + y) % p for x, y in zip(u, v)),
            (0,) * k, None,
            lambda v: "*".join(_power_word(f"g{i + 1}", c)
                               for i, c in enumerate(v) if c) or "1")


def _gn_ref(p, n):
    units = [tuple(int(i == pos) for i in range(2 * n + 1))
             for pos in range(2 * n + 1)]
    names = [f"a{i + 1}" for i in range(n)] + ["a"] + \
        [f"b{i + 1}" for i in range(n)]
    order = [n] + list(range(n)) + list(range(n + 1, 2 * n + 1))

    def word(u):
        return "*".join(_power_word(names[i], u[i])
                        for i in range(2 * n + 1) if u[i]) or "1"

    return ([units[i] for i in order], _gn_product(p, n), (0,) * (2 * n + 1),
            [names[i] for i in order], word)


def _perm_ref(perms, gen_names=None):
    return (list(perms), _perm_product, tuple(range(len(perms[0]))),
            gen_names, None)


def _spec_perm_ref(spec):
    gens = spec["generators"]
    support = sorted({p for gen in gens for cyc in gen for p in cyc}) or [1]
    return _perm_ref([perm_from_cycles(spec["points"], cycles, support)
                      for cycles in gens])


def _catalog_ref(name):
    points, cycle_gens, gen_names = constructions._PERM_CATALOG[name]
    return _perm_ref([perm_from_cycles(points, c) for c in cycle_gens],
                     gen_names)


Q8_REF = _perm_ref([(1, 4, 3, 6, 5, 0, 7, 2), (2, 7, 4, 1, 6, 3, 0, 5)],
                   ["i", "j"])


def _product_ref(a, b):
    gens = [(g, 0) for g in a.generators] + [(0, g) for g in b.generators]
    return (gens, lambda u, v: (a.mul(u[0], v[0]), b.mul(u[1], v[1])), (0, 0),
            None, lambda u: ("1" if u == (0, 0)
                             else f"({a.words[u[0]]},{b.words[u[1]]})"))


ZOO_REFS = {
    "trivial": lambda: _cyclic_ref(1),
    "c2": lambda: _cyclic_ref(2),
    "c3": lambda: _cyclic_ref(3),
    "c4": lambda: _cyclic_ref(4),
    "c5": lambda: _cyclic_ref(5),
    "c6": lambda: _cyclic_ref(6),
    "ea9": lambda: _elementary_abelian_ref(3, 2),
    "s3": lambda: _catalog_ref("s3"),
    "d4": lambda: _catalog_ref("d4"),
    "q8": lambda: Q8_REF,
    "d5": lambda: _catalog_ref("d5"),
    "heis3": lambda: _gn_ref(3, 1),
    "heis5": lambda: _gn_ref(5, 1),
    "gn32": lambda: _gn_ref(3, 2),
    "heis3xc3": lambda: _product_ref(gn(3, 1), cyclic(3)),
    "c3wrc3": lambda: _catalog_ref("c3wrc3"),
}

PERM20 = {"type": "perm", "points": 30,  # two 10-cycles and a swap of them
          "generators": [[list(range(1, 11)), list(range(11, 21))],
                         [[i, i + 10] for i in range(1, 11)]]}
S3_X_C60 = {"type": "product", "factors": [{"type": "named", "name": "s3"},
                                           {"type": "cyclic", "n": 60}]}


def _constructed():
    """(group, reference inputs) for a sample of every constructor."""
    a, b = named("d5"), cyclic(12)
    return [
        (cyclic(12), _cyclic_ref(12)),
        (elementary_abelian(3, 3), _elementary_abelian_ref(3, 3)),
        (direct_product(a, b), _product_ref(a, b)),
        (gn(3, 2), _gn_ref(3, 2)),
        (gn(5, 1), _gn_ref(5, 1)),
        (named("q8"), Q8_REF),
        (named("c3wrc3"), _catalog_ref("c3wrc3")),
        (from_spec(EXTRA_SPECS["S6"]), _spec_perm_ref(EXTRA_SPECS["S6"])),
        (enumerate_from_permutations(4, [(1, 0, 2, 3), (0, 2, 3, 1)]),
         _perm_ref([(1, 0, 2, 3), (0, 2, 3, 1)])),
    ]


def _assert_matches_reference(g, ref):
    elements, words, generators, table = _reference_build(*ref)
    assert g.elements == elements
    assert g.words == words
    assert g.generators == generators
    assert g.table.tolist() == table


def test_enumeration_matches_queue_reference(zoo):
    for g, ref in _constructed():
        _assert_matches_reference(g, ref)
    for name, g in zoo.items():
        _assert_matches_reference(g, ZOO_REFS[name]())
    s3, c60 = named("s3"), cyclic(60)
    for g, ref in [(gn(3, 3), _gn_ref(3, 3)),
                   (from_spec(PERM20), _spec_perm_ref(PERM20)),
                   (from_spec(S3_X_C60), _product_ref(s3, c60)),
                   (elementary_abelian(3, 0), _elementary_abelian_ref(3, 0))]:
        _assert_matches_reference(g, ref)


def test_tables_match_label_level_products():
    rng = random.Random(2)
    for g, ref in _constructed():
        compose = ref[1]
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

class _NoArrays:
    def __getattr__(self, attr):
        raise AssertionError(f"numpy.{attr} called before the refusal")


def test_constructors_refuse_orders_over_the_cap(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumeration started")

    # cyclic writes its table without enumerating, so no array may be made
    monkeypatch.setattr(constructions, "build_group", never)
    monkeypatch.setattr(constructions, "np", _NoArrays())
    with pytest.raises(ResourceError):
        cyclic(ORDER_CAP + 1)
    with pytest.raises(ResourceError):
        gn(3, 5)
    with pytest.raises(ResourceError):  # a larger cap does not lift the limit
        cyclic(ORDER_CAP + 1, cap=10 ** 6)


def test_build_group_stops_at_the_order_cap():
    held = set()  # every label the enumeration has multiplied

    def add(a, b):  # Z/150 x Z/200 on pairs, 30,000 elements
        held.update(map(tuple, a.tolist()))
        return (a + b) % [150, 200]

    with pytest.raises(ResourceError, match=str(ORDER_CAP)):
        build_group("C150 x C200", [(1, 0), (0, 1)], add, (0, 0), cap=10 ** 6)
    assert 0.9 * ORDER_CAP < len(held) <= ORDER_CAP


def test_build_group_refuses_left_products_outside_the_closure():
    # x * 1 = x + 1 closes on 0..3, but 1 * 2 and 1 * 3 leave it
    def compose(a, b):
        return (a + b) % 4 + 4 * ((a == 1) & (b >= 2))

    with pytest.raises(InputError, match="left products escape"):
        build_group("bad", [1], compose, 0)


@pytest.mark.slow
def test_enumeration_peaks_near_its_table():
    tracemalloc.start()
    try:
        g = gn(3, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 3 ** 9
    assert peak < 1.1 * g.table.nbytes


def test_cli_max_order_cannot_pass_the_cap(capsys):
    code = cli.main(["table", "--max-order", "30000",
                     "--group", '{"type":"cyclic","n":25000}'])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert "resource limit" in out.err
