"""The whole-table passes of the claim verifiers against the per-item routes.

``thm1.1`` reads Irr*(Z) off the image pi(Z) of Z in G/[Z,G], writes each
lambda^G as [G:Z] lambda on Z and 0 off Z, and decomposes all of them in
one product per centre, ``lemmas`` takes every norm from one weighted Gram
pass and every lift of a quotient table from one class-index gather, and
the eigenspace split runs the Krylov sequences of all its pieces in
lockstep.  Each quotient takes its classes as the images of G's classes.
Each must give exactly what the route it replaced gives, on every centre,
quotient or table of the zoo, gn(3,2), gn(7,1) and gn(3,3).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from groupchar import (Cyclotomic, Group, character_table, char_center,
                       decompose, from_spec, gn, induce, inner_product, lift,
                       quotient, restrict, verify_all, verify_identity_suite)
from groupchar import chartable, gvz, modular
from groupchar import groups as groups_module
from groupchar.groups import Subgroup, commutator_subgroup

import old_routes
import old_split


@pytest.fixture(scope="module")
def wide(tables):
    """The zoo's tables (gn(3,2) among them) plus gn(7,1) and gn(3,3)."""
    out = dict(tables)
    for name, (p, n) in {"gn(7,1)": (7, 1), "gn(3,3)": (3, 3)}.items():
        out[name] = character_table(gn(p, n))
    return out


def _centres(t):
    """The distinct centres Z(chi) of the irreducibles of ``t``."""
    return list({char_center(chi): None for chi in t.irreducibles})


# ---------------------------------------------------------------------------
# thm1.1: [G:Z] lambda from pi(Z) and one Gram product per centre

def test_batched_multiplicities_match_per_lambda_and_frobenius(wide):
    count = 0
    for name, t in wide.items():
        g = t.group
        for z in _centres(t):
            ztable = character_table(z.as_group())
            lams = ztable.irreducibles
            mults = chartable.decompose_batch(chartable.induce_batch(lams, z, g),
                                              g.exponent, t)
            assert mults.shape == (len(lams), len(t)), name
            # per lambda: induce, then decompose against the table, on a
            # sample of each centre's characters for the larger groups
            step = max(1, len(lams) // 12)
            for li in range(0, len(lams), step):
                assert mults[li].tolist() == list(decompose(induce(lams[li], z, g), t)), name
            # Frobenius reciprocity: <lam^G, chi> = <lam, chi_Z>, paired on Z
            frob = np.array([decompose(restrict(chi, z), ztable) for chi in t.irreducibles])
            assert np.array_equal(mults, frob.T), name
            count += len(lams)
    assert count > 2000


def test_induction_from_a_centre_is_the_index_times_lambda(wide):
    # Every lambda of Z/[Z,G] kills [Z,G], so it is constant on the classes
    # of G, and lambda^G is [G:Z] lambda on Z and 0 off Z, as ``verify``
    # writes it; ``induce_batch`` sums over Z's classes along the fusion map.
    count = 0
    for name, t in wide.items():
        g = t.group
        ctx = gvz._Ctx(t)
        if not ctx.two_degree_gvz[0]:
            continue
        nl = ctx.nonlinear
        for z, pos in zip(*np.unique(ctx.centre_ids[nl], return_index=True)):
            star = gvz.irr_star(t, t.irreducibles[nl[pos]], _ctx=ctx)
            inside, values, e, _ = ctx.star(int(z))
            lams = chartable._embed(values, e, g.exponent)
            want = np.zeros((len(inside), *lams.shape[1:]), dtype=np.int64)
            want[inside] = g.order // star.centre.order * lams
            assert np.array_equal(chartable.induce_batch(star.lifts, star.centre, g), want), name
            count += len(star.lifts)
    assert count > 100


def test_fibre_theorem_builds_no_group_for_a_centre(wide, monkeypatch):
    # A centre Z with [Z,G] != 1 is never built as a group; a central Z,
    # with [Z,G] = 1, is its own image pi(Z) and may be.
    built = []
    original = Subgroup.as_group

    def spy(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(Subgroup, "as_group", spy)
    count = 0
    for name in ("gn32", "gn(7,1)", "gn(3,3)", "heis5", "heis3xc3"):
        t = wide[name]
        built.clear()
        assert gvz.verify_fiber_theorem(t).passed, name
        whole = t.group.full_subgroup()
        centres = {char_center(ch) for ch in t.nonlinear()}
        off = {z for z in centres if commutator_subgroup(z, whole).order > 1}
        assert not off & set(built), name
        count += len(off)
    assert count > 10


def test_public_constituent_matches_the_verifier(wide):
    t = wide["gn(7,1)"]
    ctx = gvz._Ctx(t)
    chi = t.nonlinear()[0]
    star = gvz.irr_star(t, chi, _ctx=ctx)
    mults = chartable.decompose_batch(
        chartable.induce_batch(star.lambdas, star.centre, t.group), t.group.exponent, t)
    z = ctx.ids_of([star.centre])[0]
    at = star.centre.as_group().conjugacy_classes().class_array[
        np.searchsorted(star.centre.members, ctx.reps[ctx.masks[z]])]
    for li, lam in enumerate(star.lambdas):
        con = gvz.unique_nonlinear_constituent(t, lam, star.centre, _ctx=ctx)
        assert con == gvz._constituent(ctx, lam.at(t.group.exponent)[at], lam.degree, z,
                                       mults[li])
        assert type(con.multiplicity) is int and con.formula_holds


# ---------------------------------------------------------------------------
# lemmas: one weighted Gram pass for the norms, one gather per lifted table

def test_batched_norms_match_restrict_and_inner_product(wide):
    for name, t in wide.items():
        g = t.group
        restricted, full = gvz._Ctx(t).norms()
        for pos, chi in enumerate(t.irreducibles):
            z = char_center(chi)
            down = restrict(chi, z)
            assert Fraction(int(restricted[pos]), z.order) == inner_product(down, down), name
            assert Fraction(int(full[pos]), g.order) == inner_product(chi, chi), name


def test_weighted_norms_match_cyclotomic_sums(tables):
    # Random weights on the irreducibles and on their sums with a rational
    # class function: each weighted sum is compared with the one computed
    # value by value in Q(zeta_e), or refused when that one is irrational.
    rng = np.random.default_rng(3)
    checked = refused = 0
    for name in ("s3", "heis3", "c3wrc3", "c5", "q8"):
        t = tables[name]
        k, e = len(t.classes), t.exponent
        irr = t.operand(e)[0].reshape(k, len(t), -1)
        coeffs = irr.copy()
        coeffs[:, :, 0] += rng.integers(-3, 4, (k, 1))
        weights = rng.integers(0, 4, (len(t), 2, k))
        sums = []
        for x in range(len(t)):
            values = [Cyclotomic(e, coeffs[c, x].tolist()) for c in range(k)]
            for s in range(2):
                total = Cyclotomic.zero(e)
                for c in range(k):
                    total = total + int(weights[x, s, c]) * values[c].abs_squared()
                sums.append(total.as_rational())
        if any(v is None for v in sums):
            with pytest.raises(chartable.ConsistencyError):
                chartable.weighted_norms(coeffs, weights, e)
            refused += 1
        else:
            got = chartable.weighted_norms(coeffs, weights, e)
            assert got.ravel().tolist() == sums, name
            checked += 1
        # class sizes as the weights give |G| <chi, chi> = |G|
        sizes = np.array(t.classes.sizes)[None, None].repeat(len(t), axis=0)
        assert chartable.weighted_norms(irr, sizes, e).ravel().tolist() == [t.group.order] * len(t)
    assert checked and refused


def test_batched_lifts_match_row_of_lift(wide):
    count = 0
    for name, t in wide.items():
        g = t.group
        ctx = gvz._Ctx(t)
        for n in gvz._curated_normals(ctx):
            qm = quotient(g, ctx.subgroup(n))  # G/1 is a relabelled copy of G here
            qtable = ctx.nested_table(qm.target)
            want = {t.row_of(lift(ch, qm)) for ch in qtable.irreducibles}
            lifted = ctx.lifted(n)
            assert set(np.flatnonzero(lifted[:-1]).tolist()) == want - {None}, name
            assert lifted[-1] == (None in want), name
            lifted = chartable.lift_batch(qtable.irreducibles, qm)
            for ch, coeffs in zip(qtable.irreducibles, lifted):
                assert np.array_equal(coeffs, lift(ch, qm).coeffs), name
            count += 1
    assert count > 100


def test_lemmas_pair_and_lift_nothing_one_at_a_time(wide, monkeypatch):
    def refuse(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return wrapper

    for fn in ("inner_product", "lift", "restrict"):
        monkeypatch.setattr(chartable, fn, refuse(fn))
        if hasattr(gvz, fn):
            monkeypatch.setattr(gvz, fn, refuse(fn))
    for name in ("gn32", "gn(7,1)", "c3wrc3", "d4", "s3"):
        assert verify_identity_suite(wide[name]).passed, name


def test_memoised_flags_are_computed_once(wide, monkeypatch):
    t = wide["gn32"]
    ctx = gvz._Ctx(t)
    calls = []
    original = gvz._cosets
    monkeypatch.setattr(gvz, "_cosets", lambda *args: calls.append(1) or original(*args))

    def onto():
        return sum(key[0] == "maps_onto_centre" for key in ctx._memo)

    verify_identity_suite(t, _ctx=ctx)
    first, flags = len(calls), onto()
    assert first and flags < 2 * len(t)  # two tests per character, far fewer distinct
    verify_identity_suite(t, _ctx=ctx)
    assert len(calls) == first and onto() == flags  # nothing is built again
    assert ("vanishing",) in ctx._memo  # one pass for every character


def test_quotient_classes_are_the_images_of_the_classes_of_g(wide, monkeypatch):
    # Every quotient the verifier builds takes its classes from G's, and its
    # element orders from their representatives; a copy of the target that
    # knows neither must find the same by propagation and by powering.
    built = []
    original = gvz._cosets

    def spy(g, n):
        target, projection, section = original(g, n)
        built.append((target, target._classes))
        return target, projection, section

    monkeypatch.setattr(gvz, "_cosets", spy)
    for t in wide.values():
        verify_all(t)
    assert len(built) > 250
    for target, classes in built:
        fresh = Group(target.name, target.elements, target.words,
                      target.generators, target.table)
        assert classes == fresh.conjugacy_classes()
        assert target.element_orders() == fresh.element_orders()


def test_verify_builds_quotients_without_a_second_search(wide, monkeypatch):
    # G's elements are already in breadth-first order, so no quotient
    # searches its cosets again
    for fn in ("_bfs", "enumerate_gathered"):
        monkeypatch.setattr(groups_module, fn, lambda *args, fn=fn: pytest.fail(f"{fn} called"))
    for name in ("gn32", "gn(7,1)"):
        assert all(report.passed for report in verify_all(wide[name])), name


def test_small_generators_match_the_closure_after_each_pick(tables, monkeypatch):
    # The greedy picks grow one mask, each closure starting from the last;
    # the old route closes the subgroup again from the identity after each
    # pick.  Same picks, so the same describe(), on every subgroup that a
    # _Ctx interns while verify_all runs on the zoo, gn(3,2) and gn(7,1).
    made = []

    class Recorded(gvz._Ctx):
        def __init__(self, table):
            super().__init__(table)
            made.append(self)

    monkeypatch.setattr(gvz, "_Ctx", Recorded)
    for t in [*tables.values(), character_table(gn(7, 1))]:
        verify_all(t)
    checked = 0
    for ctx in made:
        for i in range(len(ctx.masks)):
            h = ctx.subgroup(i)
            fresh = Subgroup(h.parent, h.members)
            assert fresh.small_generators() == old_routes.small_generators(h), ctx.g.name
            checked += 1
    assert len(made) == len(tables) + 1 and checked > 100


def test_maps_onto_centre_matches_the_set_image(wide):
    for name in ("gn32", "gn(7,1)", "c3wrc3", "heis3xc3"):
        t = wide[name]
        g = t.group
        ctx = gvz._Ctx(t)
        for pos in range(len(t)):
            z = int(ctx.centre_ids[pos])
            sub = ctx.subgroup(z)
            for n in (int(ctx.kernel_ids[pos]), int(ctx.commutators()[pos])):
                qm = quotient(g, ctx.subgroup(n))
                image = Subgroup(qm.target, {qm.projection[x] for x in sub.members})
                assert ctx.maps_onto_centre(z, n) == (image == qm.target.center())


# ---------------------------------------------------------------------------
# eigenspace split: the lockstep split against the old restricted-space route

OLD_ROUTE_SPECS = {
    "PSL(2,7)": {"type": "perm", "points": 7,
                 "generators": [[[1, 2, 3, 4, 5, 6, 7]], [[2, 3], [4, 7]]]},
    "S5": {"type": "perm", "points": 5, "generators": [[[1, 2, 3, 4, 5]], [[1, 2]]]},
    "s3 x s3 x q8": {"type": "product",
                     "factors": [{"type": "named", "name": "s3"},
                                 {"type": "named", "name": "s3"},
                                 {"type": "named", "name": "q8"}]},
    # C10 wr C2: a 10-cycle and the swap of two blocks of ten points
    "perm20": {"type": "perm", "points": 20,
               "generators": [[list(range(1, 11))], [[i, i + 10] for i in range(1, 11)]]},
}


def _lockstep(g, order):
    classes = g.conjugacy_classes()
    q = chartable.dixon_prime(g.order, g.exponent)
    matrices = (chartable._split_matrices(g, classes, chartable._inverse_class(g, classes), q)
                if order is None else old_split.class_matrices(g, classes, q, order))
    return sorted(chartable._split([matrices], len(classes), q)[0].tolist())


def test_split_matches_the_rref_route_through_every_table(wide):
    # Same central characters, scaled to 1 on the identity class, from the
    # default sequence and from the class matrices in either order.
    groups = {name: t.group for name, t in wide.items()}
    groups.update((name, from_spec(spec)) for name, spec in OLD_ROUTE_SPECS.items())
    for name, g in groups.items():
        k = len(g.conjugacy_classes())
        want = old_split.central_characters(g)
        assert len(want) == k, name
        for order in (None, range(1, k), range(k - 1, 0, -1)):
            assert _lockstep(g, order) == want, (name, order)


def test_scalar_restriction_keeps_the_space_without_a_polynomial(monkeypatch):
    # Pieces on which the matrix acts as a scalar (eigenvectors of a diagonal
    # matrix; any vector under a multiple of the identity) come back
    # unchanged, with no root search.
    q = 7
    pieces = np.array([[1, 0, 3], [0, 2, 0], [0, 0, 5]], dtype=np.int64)
    monkeypatch.setattr(chartable, "_roots", lambda *args: pytest.fail("root search"))
    for matrix in (np.diag([4, 2, 4]), 3 * np.eye(3, dtype=np.int64)):
        owners = np.zeros(len(pieces), dtype=np.intp)
        got, _ = chartable._split_round(pieces, owners, [matrix], q)
        assert got.tolist() == pieces.tolist()


def test_one_row_pieces_are_normalised_without_rref(wide, monkeypatch):
    # The split forms no row echelon form at all: every table builds with
    # rref refused, and the rows come out scaled to 1 on the identity class.
    monkeypatch.setattr(modular, "rref", lambda *args: pytest.fail("rref called"))
    for name in ("gn32", "gn(7,1)", "c3wrc3", "heis3xc3"):
        g = wide[name].group
        got = character_table(g)
        assert [(ch.degree, ch.coeffs.tolist()) for ch in got.irreducibles] == [
            (ch.degree, ch.coeffs.tolist()) for ch in wide[name].irreducibles]
        assert all(row[0] == 1 for row in _lockstep(g, None))
