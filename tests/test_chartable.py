"""Character table construction and the operations built on top of it.

Expected values come from the textbook tables of small groups (symmetric,
dihedral, quaternion, cyclic, extraspecial of order 27), identified
semantically through class sizes and element orders rather than by class
position.
"""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from groupchar import (
    Character,
    ConsistencyError,
    Cyclotomic,
    InputError,
    char_center,
    character_table,
    decompose,
    deflate,
    dixon_prime,
    from_spec,
    induce,
    inner_product,
    kernel,
    lift,
    quotient,
    restrict,
    root_of_unity,
)
from groupchar import chartable, cli
from groupchar.cyclotomic import euler_phi
from groupchar.groups import Subgroup


def _class_index(table, size, element_order):
    csz = [len(m) for m in table.classes.members]
    orders = table.group.element_orders()
    found = [c for c, rep in enumerate(table.classes.reps)
             if csz[c] == size and orders[rep] == element_order]
    assert len(found) == 1
    return found[0]


def test_s3_table_matches_textbook(tables):
    t = tables["s3"]
    ident = _class_index(t, 1, 1)
    transpositions = _class_index(t, 3, 2)
    threecycles = _class_index(t, 2, 3)
    rows = {ch.degree: [] for ch in t.irreducibles}
    for ch in t.irreducibles:
        rows[ch.degree].append(ch)
    assert sorted(ch.degree for ch in t.irreducibles) == [1, 1, 2]
    two = rows[2][0]
    assert two.values[ident] == 2
    assert two.values[transpositions] == 0
    assert two.values[threecycles] == -1
    linear_vals = {(ch.values[transpositions].as_rational(),
                    ch.values[threecycles].as_rational()) for ch in rows[1]}
    assert linear_vals == {(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))}
    # canonical row order sorts by degree first
    degrees = [ch.degree for ch in t.irreducibles]
    assert degrees == sorted(degrees)


def test_rows_sort_by_degree_then_signed_coefficients(zoo, tables):
    for t in tables.values():
        keys = [(ch.degree, ch.coeffs.ravel().tolist()) for ch in t.irreducibles]
        assert keys == sorted(keys)
    # entries of either sign and several bytes, through the sort tables use
    t = tables["c4"]
    rng = np.random.default_rng(7)
    chars = []
    for _ in range(len(t)):
        coeffs = rng.choice([-2 ** 40, -300, -256, -1, 0, 1, 255, 256, 2 ** 40],
                            size=t.irreducibles[0].coeffs.shape)
        coeffs[0] = [1, 0]
        chars.append(Character(zoo["c4"], 1, t.exponent, coeffs))
    values = np.stack([ch.coeffs for ch in chars], axis=1)
    got = chartable._finish(zoo["c4"], t.classes, values, np.ones(len(t), dtype=np.int64),
                            t.field_prime, t.inverse_class, t.power_map)
    assert ([ch.coeffs.tolist() for ch in got.irreducibles]
            == sorted(ch.coeffs.tolist() for ch in chars))


def test_cyclic_rows_are_powers_of_a_root(tables):
    t = tables["c6"]
    g = t.group
    assert len(t) == 6 and all(ch.degree == 1 for ch in t.irreducibles)
    class_of = t.classes.class_of
    for ch in t.irreducibles:  # each row is multiplicative
        for x in range(6):
            for y in range(6):
                lhs = ch.values[class_of[g.mul(x, y)]]
                assert lhs == ch.values[class_of[x]] * ch.values[class_of[y]]
    seen = set()
    for ch in t.irreducibles:
        for k in range(6):
            if all(ch.value_at(x) == root_of_unity((k * _log(g, x)) % 6, 6).embed(t.exponent)
                   for x in range(6)):
                seen.add(k)
    assert seen == set(range(6))


def _log(g, x):
    """Discrete log of x base the generator of a cyclic group."""
    gen = next(y for y in range(g.order) if g.element_orders()[y] == g.order)
    acc, k = 0, 0
    while acc != x:
        acc = g.mul(acc, gen)
        k += 1
    return k


def test_heis3_nonlinear_rows(tables):
    t = tables["heis3"]
    g = t.group
    z = g.center()
    assert z.order == 3
    nl = t.nonlinear()
    assert [ch.degree for ch in nl] == [3, 3]
    central = {t.classes.class_of[m] for m in z.members}
    for ch in nl:
        for c in range(len(t.classes)):
            v = ch.values[c]
            if c in central:
                assert v.abs_squared() == 9  # 3 times a root of unity
                assert any(v == root_of_unity(k, 3).embed(t.exponent) * 3
                           for k in range(3))
            else:
                assert v.is_zero()


def test_row_orthogonality(tables):
    for name in ("s3", "d4", "q8", "heis3"):
        t = tables[name]
        for i, chi in enumerate(t.irreducibles):
            for j, psi in enumerate(t.irreducibles):
                assert inner_product(chi, psi) == (1 if i == j else 0)


def test_column_orthogonality(tables):
    for name in ("s3", "d5", "heis3"):
        t = tables[name]
        sizes = [len(m) for m in t.classes.members]
        n = t.group.order
        for a in range(len(t.classes)):
            for b in range(len(t.classes)):
                acc = Cyclotomic.zero(t.exponent)
                for ch in t.irreducibles:
                    acc = acc + ch.values[a] * ch.values[b].conj()
                expected = Fraction(n, sizes[a]) if a == b else Fraction(0)
                assert acc.equals_rational(expected)


def test_degree_squares_sum_to_order(tables):
    for name, t in tables.items():
        assert sum(ch.degree ** 2 for ch in t.irreducibles) == t.group.order
        assert len(t.linear()) == t.group.order // t.group.derived_subgroup().order


def test_decompose_recovers_multiplicities(tables):
    t = tables["d4"]
    chi, psi = t.irreducibles[0], t.irreducibles[-1]
    sum_vals = tuple(a.embed(t.exponent) + b.embed(t.exponent) * 2
                     for a, b in zip(chi.values, psi.values))
    virtual = Character(t.group, chi.degree + 2 * psi.degree, t.exponent,
                        [v.coeffs for v in sum_vals], False)
    mults = decompose(virtual, t)
    expected = [0] * len(t)
    expected[0], expected[len(t) - 1] = 1, 2
    assert list(mults) == expected


def test_character_holds_a_private_integer_array(tables):
    t = tables["c3"]
    chi = t.irreducibles[1]
    rows = chi.coeffs.tolist()
    rows[0][0] = Fraction(1)  # integral, so accepted
    copy = Character(t.group, 1, t.exponent, rows, False)
    assert copy.coeffs.dtype == np.int64 and not copy.coeffs.flags.writeable
    assert copy.values == chi.values
    source = np.array(chi.coeffs)
    held = Character(t.group, 1, t.exponent, source, False)
    source[0, 0] = 7
    assert held.coeffs[0, 0] == 1
    rows[1][0] = Fraction(1, 2)
    with pytest.raises(InputError):  # int64 would truncate this to 0
        Character(t.group, 1, t.exponent, rows, False)
    with pytest.raises(InputError):
        Character(t.group, 1, t.exponent, chi.coeffs.astype(float), False)
    with pytest.raises(InputError):  # one class short
        Character(t.group, 1, t.exponent, chi.coeffs[:-1], False)
    with pytest.raises(InputError):  # phi(5) = 4 coefficients per value
        Character(t.group, 1, 5, chi.coeffs, False)


def test_frobenius_reciprocity(tables):
    g = tables["s3"].group
    h = g.derived_subgroup()  # alternating subgroup of order 3
    ht = character_table(h.as_group())
    gt = tables["s3"]
    for lam in ht.irreducibles:
        up = induce(lam, h, g)
        for chi in gt.irreducibles:
            down = restrict(chi, h)
            assert inner_product(up, chi) == inner_product(lam, down)


def test_induction_from_trivial_subgroup_is_regular(tables):
    g = tables["s3"].group
    h = Subgroup(g, [0])
    lam = character_table(h.as_group()).irreducibles[0]
    reg = induce(lam, h, g)
    assert reg.degree == 6
    assert reg.values[0] == 6
    assert all(v.is_zero() for v in reg.values[1:])
    # multiplicity of each irreducible in the regular character is its degree
    assert list(decompose(reg, tables["s3"])) == [ch.degree for ch in tables["s3"].irreducibles]


def test_central_induction_in_heis3(tables):
    t = tables["heis3"]
    g = t.group
    z = g.center()
    zt = character_table(z.as_group())
    nontrivial = [lam for lam in zt.irreducibles
                  if not all(v.equals_rational(1) for v in lam.values)]
    assert len(nontrivial) == 2
    for lam in nontrivial:
        up = induce(lam, z, g)
        assert inner_product(up, up) == 9
        mults = decompose(up, t)
        assert sorted(mults) == [0] * (len(t) - 1) + [3]
        pos = mults.index(3)
        assert t.irreducibles[pos].degree == 3


def test_restriction_of_s3_twodim_to_a3(tables):
    g = tables["s3"].group
    h = g.derived_subgroup()
    two = tables["s3"].nonlinear()[0]
    down = restrict(two, h)
    assert down.degree == 2
    assert inner_product(down, down) == 2
    ht = character_table(h.as_group())
    assert list(decompose(down, ht)).count(1) == 2


def test_restricted_and_induced_irreducibility_is_paired_on_first_read(
        tables, monkeypatch):
    from groupchar import chartable, cli

    pairs = []
    real = chartable.inner_product
    monkeypatch.setattr(chartable, "inner_product",
                        lambda a, b: pairs.append(a) or real(a, b))
    cases = []  # (character, the table of its group)
    s3, heis3 = tables["s3"].group, tables["heis3"].group
    for gt, h in ((tables["s3"], s3.derived_subgroup()),
                  (tables["heis3"], heis3.center())):
        ht = character_table(h.as_group())
        cases += [(restrict(chi, h), ht) for chi in gt.irreducibles]
        cases += [(induce(lam, h, gt.group), gt) for lam in ht.irreducibles]
    assert pairs == []  # nothing is paired while building
    for chi, t in cases:
        want = sum(m * m for m in decompose(chi, t)) == 1
        assert chi.is_irreducible == want
        assert chi.is_irreducible == want  # cached: paired once
    assert pairs == [chi for chi, _ in cases]
    # s3 -> A3: trivial and sign stay irreducible, the degree-2 one splits;
    # the two nontrivial linear characters of A3 induce the degree-2 one
    assert [chi.is_irreducible for chi, _ in cases[:3]] == [True, True, False]
    assert sorted(chi.is_irreducible for chi, _ in cases[3:6]) == [False, True, True]


def test_kernels_and_centers(tables):
    t = tables["q8"]
    two = t.nonlinear()[0]
    assert kernel(two).order == 1  # faithful
    assert char_center(two).members == t.group.center().members
    s3t = tables["s3"]
    sign = next(ch for ch in s3t.linear()
                if not all(v.equals_rational(1) for v in ch.values))
    assert kernel(sign).order == 3
    assert char_center(sign).order == 6
    assert kernel(s3t.irreducibles[1 if s3t.irreducibles[1] is not sign else 0]).order in (3, 6)


def test_lift_and_deflate_through_central_quotient(tables):
    t = tables["heis3"]
    g = t.group
    qm = quotient(g, g.center())
    qt = character_table(qm.target)
    lifted = [lift(ch, qm) for ch in qt.irreducibles]
    assert len(lifted) == 9
    assert None not in {t.row_of(up) for up in lifted}
    for pos, up in enumerate(lifted):
        assert up.is_irreducible
        back = deflate(up, qm)
        assert back is not None and qt.row_of(back) == pos
    # characters whose kernel misses the centre do not deflate
    for ch in t.nonlinear():
        assert deflate(ch, qm) is None
    # deflate also accepts the bare normal subgroup
    assert deflate(t.linear()[0], g.center()) is not None


def test_row_of_finds_lifts_and_deflations(tables):
    for name in ("heis3", "gn32"):
        t = tables[name]
        g = t.group
        qm = quotient(g, g.center())
        qt = character_table(qm.target)
        rows = [t.row_of(lift(ch, qm)) for ch in qt.irreducibles]
        assert None not in rows and len(set(rows)) == len(qt)
        a, b = t.irreducibles[0], t.irreducibles[-1]
        both = Character(g, a.degree + b.degree, t.exponent, a.coeffs + b.coeffs)
        assert t.row_of(both) is None
        # the values of a row under another degree are not that row
        assert t.row_of(Character(g, b.degree + 1, b.conductor, b.coeffs)) is None
        with pytest.raises(InputError):
            t.row_of(tables["s3"].irreducibles[0])
    # a deflation keeps the conductor of G, a multiple of the quotient's exponent
    t = tables["q8"]
    qm = quotient(t.group, t.group.center())
    qt = character_table(qm.target)
    assert qt.exponent < t.exponent
    downs = [deflate(ch, qm) for ch in t.linear()]
    assert all(d.conductor == t.exponent for d in downs)
    assert sorted(qt.row_of(d) for d in downs) == list(range(len(qt)))


def test_table_is_independent_of_splitting_strategy(tables, class_matrix_split):
    # The reversed order sends different starts through multi-row spaces.
    s6 = character_table(from_spec({"type": "perm", "points": 6,
                                    "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]}))
    class_matrix_split(lambda k: range(k - 1, 0, -1))
    for base in (tables["s3"], tables["heis3"], tables["gn32"], s6):
        v = character_table(base.group)
        assert [base.row_of(ch) for ch in v.irreducibles] == list(range(len(base)))


S6 = {"type": "perm", "points": 6, "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]}


def _equal_coefficients(monkeypatch):
    """All-equal coefficients: each combination is the sum of all class sums,
    which acts as |G| on the trivial character and as 0 on the others."""
    monkeypatch.setattr(chartable, "_coefficients", lambda k, q: np.ones(
        (chartable.COMBINATIONS, k), dtype=np.int64))


def _spy_rounds(monkeypatch, events):
    """Record each split matrix as it is built and each round's piece count."""
    for name in ("_combination", "class_matrix"):
        original = getattr(chartable, name)

        def build(g, classes, arg, *rest, _original=original, _name=name):
            events.append((_name, arg if _name == "class_matrix" else None))
            return _original(g, classes, arg, *rest)

        monkeypatch.setattr(chartable, name, build)
    split_round = chartable._split_round

    def round_spy(pieces, owners, cs, q):
        out = split_round(pieces, owners, cs, q)
        events.append(("round", len(out[0])))
        return out

    monkeypatch.setattr(chartable, "_split_round", round_spy)


def test_dixon_table_builds_each_class_matrix_at_most_once(zoo, monkeypatch):
    # Each split matrix is built once, right before its round, and none
    # after the round that reaches k pieces; with equal coefficients the
    # class-matrix tail runs too, each M_i at most once.
    events = []
    _spy_rounds(monkeypatch, events)
    for g, equal in itertools.product((from_spec(S6), zoo["gn32"]), (False, True)):
        events.clear()
        with monkeypatch.context() as patch:
            if equal:
                _equal_coefficients(patch)
            chartable._dixon_tables([g])
        k = len(g.conjugacy_classes())
        builds, rounds = events[0::2], events[1::2]
        assert len(builds) == len(rounds) and all(kind != "round" for kind, _ in builds)
        assert all(kind == "round" for kind, _ in rounds)
        assert [n for _, n in rounds].index(k) == len(rounds) - 1, g.name
        tail = [i for kind, i in builds if kind == "class_matrix"]
        assert len(tail) == len(set(tail)) and bool(tail) == equal, g.name


def test_forced_collision_runs_the_later_rounds(zoo, monkeypatch):
    # Equal coefficients split off the trivial character alone in every
    # combination round; the class matrices then finish the same table.
    groups = [from_spec(S6), zoo["gn32"], zoo["heis3xc3"]]
    want = [character_table(g) for g in groups]
    _equal_coefficients(monkeypatch)
    events = []
    _spy_rounds(monkeypatch, events)
    for g, base in zip(groups, want):
        events.clear()
        got = character_table(g)
        counts = [n for kind, n in events if kind == "round"]
        assert counts[:chartable.COMBINATIONS] == [2] * chartable.COMBINATIONS
        assert counts[-1] == len(base) and len(counts) > chartable.COMBINATIONS
        assert ([(c.degree, c.coeffs.tolist()) for c in got.irreducibles]
                == [(c.degree, c.coeffs.tolist()) for c in base.irreducibles])


def test_combination_is_the_weighted_sum_of_class_matrices(zoo):
    rng = np.random.default_rng(3)
    for name in ("s3", "q8", "heis3", "gn32", "c3wrc3"):
        g = zoo[name]
        classes = g.conjugacy_classes()
        k = len(classes)
        q = dixon_prime(g.order, g.exponent)
        for coeffs in [*np.eye(k, dtype=np.int64), rng.integers(0, q, k)]:
            want = sum(int(c) * chartable.class_matrix(g, classes, i)
                       for i, c in enumerate(coeffs)) % q
            inverse = chartable._inverse_class(g, classes)
            assert (chartable._combination(g, classes, inverse, coeffs, q) == want).all(), name


def test_split_that_runs_out_is_an_internal_error(zoo, monkeypatch, capsys,
                                                  class_matrix_split):
    g = zoo["gn32"]
    k = len(g.conjugacy_classes())
    class_matrix_split(lambda k: [])
    with pytest.raises(ConsistencyError, match="failed to separate"):
        character_table(g)
    spec = '{"type": "gn", "p": 3, "n": 2}'
    # no matrices at all; then a matrix with e_0 cyclic and minimal
    # polynomial (t - 2)^k, whose root search finds one root of k
    jordan = 2 * np.eye(k, dtype=np.int64) + np.eye(k, k=-1, dtype=np.int64)
    for matrices in ([], [jordan]):
        monkeypatch.setattr(chartable, "_split_matrices",
                            lambda *args, _m=matrices: iter(_m))
        assert cli.main(["table", "--group", spec, "--format", "json"]) == 5
        assert capsys.readouterr().out == ""


def _same_table(a, b) -> bool:
    """Row for row the same degrees and coefficients, the same classes and
    the same prime."""
    return ([(ch.degree, ch.coeffs.tolist()) for ch in a.irreducibles]
            == [(ch.degree, ch.coeffs.tolist()) for ch in b.irreducibles]
            and a.classes == b.classes and a.field_prime == b.field_prime)


def test_batched_tables_equal_the_tables_one_by_one(zoo, tables):
    # D4 and Q8 share k = 5 and q = 5, so they split in one batch.
    names = list(zoo)
    keys = [(len(g.conjugacy_classes()), dixon_prime(g.order, g.exponent))
            for g in zoo.values() if not g.is_abelian()]
    assert len(set(keys)) < len(keys)
    for name, t in zip(names, chartable.character_tables([zoo[n] for n in names])):
        assert t.group is zoo[name] and _same_table(t, tables[name]), name


def test_groups_of_a_batch_may_finish_in_different_rounds(zoo, tables, monkeypatch):
    # A scalar first matrix holds Q8 back a round, so D4 leaves the batch
    # while Q8 still splits; both tables come out as they do alone.
    d4, q8 = zoo["d4"], zoo["q8"]
    split_matrices, split_round = chartable._split_matrices, chartable._split_round

    def held_back(g, classes, *rest):
        if g is q8:
            yield np.eye(len(classes), dtype=np.int64)
        yield from split_matrices(g, classes, *rest)

    owners = []

    def round_spy(pieces, whose, cs, q):
        owners.append(len(cs))
        return split_round(pieces, whose, cs, q)

    monkeypatch.setattr(chartable, "_split_matrices", held_back)
    monkeypatch.setattr(chartable, "_split_round", round_spy)
    got = chartable.character_tables([d4, q8])
    assert owners[0] == 2 and owners[-1] == 1
    assert _same_table(got[0], tables["d4"]) and _same_table(got[1], tables["q8"])


@pytest.mark.slow
def test_split_memory_stays_bounded():
    # The whole of character_table(gn(7,2)), after its group and classes,
    # held to the 60 MiB its restricted-space split peaked at.
    g = from_spec({"type": "gn", "p": 7, "n": 2})
    g.conjugacy_classes()
    tracemalloc.start()
    try:
        character_table(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2 ** 20, peak


def test_dixon_prime_choice():
    assert dixon_prime(6, 6) == 7
    assert dixon_prime(243, 3) == 37
    for order, e in ((6, 6), (243, 3), (8, 4), (10000, 12)):
        q = dixon_prime(order, e)
        assert q % e == 1
        assert q * q > 4 * order
        assert all(q % d for d in range(2, int(q ** 0.5) + 1))


def test_inverse_class_and_power_map(tables):
    t = tables["s3"]
    assert list(t.inverse_class) == [0, 1, 2]  # all classes are real
    c3 = tables["c3"]
    assert c3.inverse_class[1] == 2 and c3.inverse_class[2] == 1
    g = t.group
    class_of = g.conjugacy_classes().class_of
    for c, rep in enumerate(t.classes.reps):
        assert t.power_map[c][0] == 0
        for k in range(1, t.exponent):
            assert t.power_map[c][k] == class_of[g.power(rep, k)]


def test_induce_rejects_foreign_characters(tables):
    g = tables["s3"].group
    h = g.derived_subgroup()
    lam = tables["c3"].irreducibles[0]
    with pytest.raises(InputError):
        induce(lam, h, g)


# ---------------------------------------------------------------------------
# one coefficient array per table

def _spy_characters(monkeypatch) -> list:
    """The group of every ``Character`` built from now on, in order."""
    built = []
    post_init = Character.__post_init__

    def spy(self):
        built.append(self.group)
        post_init(self)

    monkeypatch.setattr(Character, "__post_init__", spy)
    return built


def test_tables_build_no_character_until_irreducibles_are_read(zoo, monkeypatch):
    built = _spy_characters(monkeypatch)
    got = chartable.character_tables(list(zoo.values()))
    assert built == []
    for t in got:
        assert len(t.irreducibles) == len(t) and t.irreducibles is t.irreducibles
    assert len(built) == sum(len(t) for t in got)


def test_rows_and_operand_are_views_of_the_values(tables):
    for name, t in tables.items():
        b = t.values
        assert b.shape == (len(t.classes), len(t), euler_phi(t.exponent)), name
        assert b.dtype == np.int64 and b.flags.c_contiguous and not b.flags.writeable
        assert t.degrees.tolist() == [ch.degree for ch in t.irreducibles], name
        assert t.operand(t.exponent)[0] is b, name
        for i, ch in enumerate(t.irreducibles):
            assert np.shares_memory(ch.coeffs, b) and np.array_equal(ch.coeffs, b[:, i]), name


def test_character_copies_an_array_its_caller_can_write(zoo):
    g = zoo["c3"]
    coeffs = np.ones((3, 2), dtype=np.int64)
    chi = Character(g, 1, 3, coeffs)
    coeffs[0, 0] = 5
    assert chi.coeffs[0, 0] == 1 and not chi.coeffs.flags.writeable
    view = coeffs[:]  # read-only itself, but its base can still be written
    view.flags.writeable = False
    assert not np.shares_memory(Character(g, 1, 3, view).coeffs, coeffs)
    frozen = coeffs.copy()  # nothing can write it any more: kept as it is
    frozen.flags.writeable = False
    assert Character(g, 1, 3, frozen).coeffs is frozen
    assert Character(g, 1, 3, frozen[:]).coeffs.base is frozen
