"""Group-machinery tests: enumeration, multiplication, classes, subgroups,
quotients.  Oracles are brute-force recomputations on small groups.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from groupchar import (InputError, NotNilpotent, ResourceError, Subgroup,
                       build_group, centralizer, commutator_subgroup, coset,
                       cyclic, enumerate_from_permutations, generated_by,
                       gn, heisenberg, is_normal, named, nilpotency_class,
                       perm_from_cycles, quotient)


def test_identity_is_index_zero(zoo):
    for g in zoo.values():
        assert g.words[0] == "1"
        for x in range(g.order):
            assert g.mul(0, x) == x
            assert g.mul(x, 0) == x


def test_inverses(zoo):
    for g in zoo.values():
        for x in range(g.order):
            assert g.mul(x, g.inv(x)) == 0
            assert g.mul(g.inv(x), x) == 0


def test_associativity_exhaustive_small(zoo):
    for g in zoo.values():
        if g.order > 16:
            continue
        n = g.order
        for a in range(n):
            for b in range(n):
                ab = g.mul(a, b)
                for c in range(n):
                    assert g.mul(ab, c) == g.mul(a, g.mul(b, c))


def test_associativity_sampled_large(zoo):
    rng = random.Random(7)
    for g in zoo.values():
        if g.order <= 16:
            continue
        for _ in range(2000):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_element_orders_via_powers(zoo):
    for g in zoo.values():
        orders = g.element_orders()
        for x in range(g.order):
            assert g.power(x, orders[x]) == 0
            for k in range(1, orders[x]):  # no smaller power reaches 1
                assert g.power(x, k) != 0


def test_exponent_values(zoo):
    assert zoo["s3"].exponent == 6
    assert zoo["q8"].exponent == 4
    assert zoo["heis3"].exponent == 3
    assert zoo["gn32"].exponent == 3
    assert zoo["c6"].exponent == 6


def test_conjugacy_classes_partition_and_sizes(zoo):
    for g in zoo.values():
        cls = g.conjugacy_classes()
        seen = set()
        for ci, members in enumerate(cls.members):
            assert members == tuple(sorted(members))
            for m in members:
                assert cls.class_of[m] == ci
                seen.add(m)
            # |class| * |centralizer| = |G|
            assert len(members) * centralizer(g, members[0]).order == g.order
        assert seen == set(range(g.order))
        assert cls.members[0] == (0,)


def test_conjugacy_against_brute_force():
    g = named("s3")
    cls = g.conjugacy_classes()
    for x in range(g.order):
        orbit = {g.mul(g.mul(g.inv(t), x), t) for t in range(g.order)}
        assert tuple(sorted(orbit)) == cls.members[cls.class_of[x]]


def test_center_is_intersection_of_centralizers(zoo):
    for name in ("s3", "d4", "q8", "heis3"):
        g = zoo[name]
        members = set(range(g.order))
        for x in range(g.order):
            members &= set(centralizer(g, x).members)
        assert set(g.center().members) == members


def test_derived_subgroups():
    assert named("s3").derived_subgroup().order == 3
    assert named("d4").derived_subgroup().order == 2
    assert cyclic(12).derived_subgroup().order == 1
    h = heisenberg(3)
    assert h.derived_subgroup().members == h.center().members


def test_generated_subgroups_satisfy_lagrange(zoo):
    rng = random.Random(3)
    for g in zoo.values():
        for _ in range(8):
            seeds = [rng.randrange(g.order) for _ in range(2)]
            h = generated_by(g, seeds)
            assert g.order % h.order == 0


def test_subgroup_closure_validation():
    g = named("s3")
    a = g.generators[0]  # order 3
    with pytest.raises(InputError):
        Subgroup(g, [0, a]).as_group()
    with pytest.raises(InputError):
        Subgroup(g, [1, 2])  # no identity


def test_subgroup_as_group_roundtrip():
    g = named("d4")
    z = g.center()
    zg = z.as_group()
    assert zg.order == z.order
    for i in range(zg.order):
        for j in range(zg.order):
            assert z.to_parent(zg.mul(i, j)) == g.mul(z.to_parent(i), z.to_parent(j))


def test_whole_subgroup_shares_the_parent_table(zoo):
    for g in zoo.values():
        whole = g.full_subgroup().as_group()
        assert np.shares_memory(whole.table, g.table)
        assert whole.conjugacy_classes() == g.conjugacy_classes()
        assert whole.words == g.words


def test_cosets_partition():
    g = named("s3")
    n = g.derived_subgroup()
    blocks = {coset(x, n) for x in range(g.order)}
    assert len(blocks) == g.order // n.order
    assert sorted(sum((list(b) for b in blocks), [])) == list(range(g.order))


def test_quotient_homomorphism():
    g = heisenberg(3)
    qm = quotient(g, g.derived_subgroup())
    assert qm.target.order == 9
    proj = qm.projection
    for a in range(g.order):
        for b in range(g.order):
            assert proj[g.mul(a, b)] == qm.target.mul(proj[a], proj[b])
    # sections land in the right fibre
    for c in range(qm.target.order):
        assert proj[qm.section[c]] == c


def test_quotient_rejects_non_normal():
    g = named("s3")
    b = next(x for x in range(g.order) if g.element_orders()[x] == 2)
    h = generated_by(g, [b])
    assert not is_normal(g, h)
    with pytest.raises(InputError):
        quotient(g, h)


def test_commutator_subgroup_brute_force():
    g = named("d4")
    whole = g.full_subgroup()
    expected = set()
    for a in range(g.order):
        for b in range(g.order):
            expected.add(g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b)))
    assert set(commutator_subgroup(whole, whole).members) >= expected
    # the brute-force commutator set generates the subgroup
    assert commutator_subgroup(whole, whole).members == generated_by(g, expected).members


def test_commutator_with_the_whole_group_is_a_normal_closure(monkeypatch):
    # [H, G] for a non-normal H of S4 against the blocked route over G's
    # members; the normal closure needs no generators of H.
    g = enumerate_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    h = generated_by(g, [g.generators[1]])  # a transposition
    assert not is_normal(g, h)
    k = Subgroup(g, range(g.order))
    blocked = []
    for a in h.members:
        for b in k.members:
            blocked.append(g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b)))

    def refuse(self):
        raise AssertionError("small_generators on the normal-closure path")

    monkeypatch.setattr(Subgroup, "small_generators", refuse)
    got = commutator_subgroup(h, k)
    assert got.order == 12  # A4
    assert got.members == generated_by(g, blocked).members


def test_nilpotency_classes(zoo):
    assert nilpotency_class(zoo["trivial"]) == 0
    assert nilpotency_class(zoo["c6"]) == 1
    assert nilpotency_class(zoo["d4"]) == 2
    assert nilpotency_class(zoo["q8"]) == 2
    assert nilpotency_class(zoo["heis3"]) == 2
    assert nilpotency_class(zoo["c3wrc3"]) == 3
    with pytest.raises(NotNilpotent):
        nilpotency_class(zoo["s3"])


def test_enumeration_cap():
    with pytest.raises(ResourceError):
        build_group("mod", [1], lambda a, b: (a + b) % 100, 0, cap=10)


def test_bad_permutation_rejected():
    with pytest.raises(InputError):
        enumerate_from_permutations(3, [(0, 0, 1)])


def test_perm_from_cycles():
    assert perm_from_cycles(4, [(1, 2, 3)]) == (1, 2, 0, 3)
    with pytest.raises(InputError):
        perm_from_cycles(3, [(1, 4)])
    # on the support (2, 5, 9) only: 2 -> 5 -> 9 -> 2
    assert perm_from_cycles(10 ** 9, [(2, 5, 9)], (2, 5, 9)) == (1, 2, 0)
    with pytest.raises(InputError):
        perm_from_cycles(4, [(2, 5)], (2, 5))


def test_order_walk_guards_against_non_group():
    bad = build_group("bad", [1], lambda a, b: 1 if (a, b) != (0, 0) else 0, 0)
    with pytest.raises(InputError):
        bad.element_orders()
