"""The whole-table passes of the claim verifiers against the per-item routes.

``thm1.1`` induces and decomposes all of Irr*(Z) in one product per centre,
``lemmas`` takes every norm from one weighted Gram pass and every lift of a
quotient table from one class-index gather, and the eigenspace split keeps
a space on which the class matrix is scalar and normalises one-row pieces
all at once.  Each must give exactly what the route it replaced gives, on
every centre or table of the zoo, gn(3,2), gn(7,1) and gn(3,3).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from groupchar import (Cyclotomic, character_table, char_center, decompose,
                       gn, induce, inner_product, lift, quotient, restrict,
                       verify_identity_suite)
from groupchar import chartable, gvz, modular
from groupchar.groups import Subgroup


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
# thm1.1: one induction matrix and one Gram product per centre

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


def test_each_centre_builds_one_induction_matrix(wide, monkeypatch):
    built = []
    original = chartable._induction_counts

    def spy(h, g):
        built.append(h)
        return original(h, g)

    monkeypatch.setattr(chartable, "_induction_counts", spy)
    for name in ("gn32", "gn(7,1)", "gn(3,3)", "heis5", "heis3xc3"):
        t = wide[name]
        built.clear()
        report = gvz.verify_fiber_theorem(t)
        assert report.passed, name
        centres = {char_center(ch) for ch in t.nonlinear()}
        assert len(built) == len(centres) and set(built) == centres, name


def test_public_constituent_matches_the_verifier(wide):
    t = wide["gn(7,1)"]
    ctx = gvz._Ctx(t)
    chi = t.nonlinear()[0]
    star = gvz.irr_star(t, chi, _ctx=ctx)
    mults = chartable.decompose_batch(
        chartable.induce_batch(star.lambdas, star.centre, t.group), t.group.exponent, t)
    for li, lam in enumerate(star.lambdas):
        con = gvz.unique_nonlinear_constituent(t, lam, star.centre, _ctx=ctx)
        assert con == gvz._constituent(ctx, lam, star.centre, mults[li])
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
            qm = ctx.quotient_by(n)
            qtable = ctx.quotient_table(qm)
            want = frozenset(t.row_of(lift(ch, qm)) for ch in qtable.irreducibles)
            assert ctx.lifted_rows(qm) == want, name
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
    original = gvz._maps_onto_centre
    monkeypatch.setattr(gvz, "_maps_onto_centre",
                        lambda sub, qm: calls.append(1) or original(sub, qm))
    verify_identity_suite(t, _ctx=ctx)
    first = len(calls)
    assert first < 2 * len(t)  # two tests per character, far fewer distinct
    verify_identity_suite(t, _ctx=ctx)
    assert len(calls) == first
    assert all(("vanishes", pos) in ctx._memo for pos in range(len(t)))


def test_maps_onto_centre_matches_the_set_image(wide):
    for name in ("gn32", "gn(7,1)", "c3wrc3", "heis3xc3"):
        t = wide[name]
        g = t.group
        ctx = gvz._Ctx(t)
        for pos in range(len(t)):
            sub = ctx.centre(pos)
            for n in (ctx.kernel_of(pos), ctx.commutator_with_group(sub)):
                qm = quotient(g, n) if n.order > 1 else ctx.quotient_by(n)
                image = Subgroup(qm.target, {qm.projection[x] for x in sub.members})
                assert gvz._maps_onto_centre(sub, qm) == (image == qm.target.center())


# ---------------------------------------------------------------------------
# eigenspace split: no minimal polynomial on a scalar restriction, one step
# for all one-row pieces

def _times_cofactor(a, mu, lam, x, q):
    """p(a) x for p = mu / (t - lam), by synthetic division and Horner's
    rule, one product with ``a`` per coefficient."""
    coef = [1]
    for c in reversed(mu[1:-1]):
        coef.append((c + lam * coef[-1]) % q)
    v = np.zeros_like(x)
    for c in coef:
        v = (a @ v + c * x) % q
    return v


def _rref_route_split(spaces, matrix, q):
    """The split as it was before the two shortcuts: a minimal polynomial on
    every space and one ``rref`` per piece.  Each piece starts at
    p_j(A) start, taken by ``_times_cofactor``."""
    out = []
    for rows, pivots, start in spaces:
        d = rows.shape[0]
        if d == 1:
            out.append((rows, pivots, start))
            continue
        restricted = modular.matmul(matrix[list(pivots)] % q, rows.T, q)
        mu = chartable._minimal_polynomial(restricted, start, q)
        roots = chartable._roots_mod(mu, q)
        pieces = chartable._spectral_images(restricted, mu, roots, start, q)
        if len(pieces) == 1:
            out.append((rows, pivots, start))
            continue
        reds = [modular.rref(piece, q) for piece in pieces]
        full = modular.matmul(np.vstack([red for red, _ in reds]), rows, q)
        lo = 0
        for lam, (red, cols) in zip(roots, reds):
            piece_start = _times_cofactor(restricted, mu, lam, start, q)
            out.append((full[lo:lo + len(red)], tuple(pivots[c] for c in cols),
                        piece_start[list(cols)]))
            lo += len(red)
    return out


def _as_lists(spaces):
    return [(rows.tolist(), tuple(pivots), start.tolist())
            for rows, pivots, start in spaces]


def test_split_matches_the_rref_route_through_every_table(wide, monkeypatch):
    taken = {"scalar": 0, "one-row": 0}
    is_scalar, leading_ones = chartable._is_scalar, chartable._leading_ones

    def scalar_spy(a):
        hit = is_scalar(a)
        taken["scalar"] += hit
        return hit

    def rows_spy(rows, q):
        taken["one-row"] += 1
        return leading_ones(rows, q)

    monkeypatch.setattr(chartable, "_is_scalar", scalar_spy)
    monkeypatch.setattr(chartable, "_leading_ones", rows_spy)
    for name, t in wide.items():
        g = t.group
        if g.is_abelian():
            continue
        classes = g.conjugacy_classes()
        k = len(classes)
        q = chartable.dixon_prime(g.order, g.exponent)
        eye = np.eye(k, dtype=np.int64)
        spaces = [(eye, tuple(range(k)), eye[0])]
        for i in range(1, k):
            if all(rows.shape[0] == 1 for rows, *_ in spaces):
                break
            m = chartable.class_matrix(g, classes, i)
            got = chartable._split_spaces(spaces, m, q)
            assert _as_lists(got) == _as_lists(_rref_route_split(spaces, m, q)), (name, i)
            spaces = got
        assert len(spaces) == k, name
    assert taken["scalar"] > 20 and taken["one-row"] > 20


def test_scalar_restriction_keeps_the_space_without_a_polynomial(monkeypatch):
    q = 7
    rows = np.array([[1, 0, 3], [0, 1, 5]], dtype=np.int64)
    space = [(rows, (0, 1), np.array([1, 0], dtype=np.int64))]
    for c in (0, 4):
        matrix = c * np.eye(3, dtype=np.int64)
        want = _as_lists(_rref_route_split(space, matrix, q))
        calls = []
        monkeypatch.setattr(chartable, "_minimal_polynomial",
                            lambda *args: calls.append(args))
        assert _as_lists(chartable._split_spaces(space, matrix, q)) == want
        assert calls == [] and want == _as_lists(space)
        monkeypatch.undo()
    assert not chartable._is_scalar(np.array([[4, 1], [0, 4]]))
    assert not chartable._is_scalar(np.array([[4, 0], [0, 3]]))
    assert chartable._is_scalar(np.zeros((2, 2), dtype=np.int64))


def test_one_row_pieces_are_normalised_without_rref(monkeypatch):
    # distinct eigenvalues 1, 2, 3, 4 and e_0 cyclic, so the spectral images
    # give four one-row pieces
    q = 11
    a = np.array([[1, 0, 0, 0], [1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4]], dtype=np.int64)
    eye = np.eye(4, dtype=np.int64)
    mu = chartable._minimal_polynomial(a, eye[0], q)
    images = chartable._spectral_images(a, mu, chartable._roots_mod(mu, q), eye[0], q)
    assert len(images) == 4
    assert any(u[0][u[0] != 0][0] != 1 for u in images)  # some need scaling
    space = [(eye, (0, 1, 2, 3), eye[0])]
    want = _as_lists(_rref_route_split(space, a, q))
    monkeypatch.setattr(modular, "rref", lambda *args: pytest.fail("rref called"))
    got = chartable._split_spaces(space, a, q)
    assert _as_lists(got) == want and len(got) == 4
    assert all(rows[0, pivots[0]] == 1 for rows, pivots, _ in got)
