"""The fast paths of ``chartable`` against the scalar routes they replaced.

The references below are the per-class root-of-unity multiplicity loop of
the value lift over all e powers (and, in ``old_routes``, its e-point
matrix form), the ``Cyclotomic`` inner product, the eigenspace split that
scans every value of F_q, and the centre test through ``abs_squared``, kept
here verbatim in their loop form.  The fast paths must reproduce them
exactly: same rows, same rationals, same pieces, same members, same refusal
of an irrational pairing or of a matrix that is not diagonalisable.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from groupchar import (Character, ConsistencyError, Cyclotomic, InputError,
                       Subgroup, char_center, character_table, cyclic,
                       decompose, from_spec, induce, inner_product, restrict,
                       root_of_unity, verify_all)
from groupchar import chartable, modular
from groupchar.cyclotomic import _zeta_powers, embedding, euler_phi
from groupchar.modular import is_prime

import old_routes
import old_split

LIFT_SPECS = {
    "s3": {"type": "named", "name": "s3"},
    "heis3": {"type": "named", "name": "heis3"},
    "c3wrc3": {"type": "named", "name": "c3wrc3"},
    "cyclic(60)": {"type": "cyclic", "n": 60},
    "d5 x C12": {"type": "product",
                 "factors": [{"type": "named", "name": "d5"},
                             {"type": "cyclic", "n": 12}]},
    "S6": {"type": "perm", "points": 6,
           "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]},
}


# ---------------------------------------------------------------------------
# scalar references

def _reference_lift(theta_pm, e, q, degree):
    """Values of one character by the per-class multiplicity loop;
    ``theta_pm[j][s]`` is theta on the class of g_j^s."""
    z = chartable._element_of_order(e, q)
    zpow = [1] * e
    for j in range(1, e):
        zpow[j] = zpow[j - 1] * z % q
    inv_e = pow(e, -1, q)
    zeta_rows = _zeta_powers(e)
    phi = euler_phi(e)
    values = []
    for j in range(len(theta_pm)):
        coeffs = [Fraction(0)] * phi
        total = 0
        for kk in range(e):
            m_kk = inv_e * sum(
                theta_pm[j][s] * zpow[(-s * kk) % e] for s in range(e)) % q
            if m_kk:
                total += m_kk
                row = zeta_rows[kk]
                for t in range(phi):
                    if row[t]:
                        coeffs[t] += m_kk * row[t]
        assert total == degree
        values.append(Cyclotomic(e, coeffs))
    return values


def _reference_split(spaces, matrix, q):
    """The eigenspaces by a full scan of lambda over F_q, as (rows, pivots)
    pairs; the start of each space is not used."""
    out = []
    for rows, pivots, *_ in spaces:
        d = rows.shape[0]
        if d == 1:
            out.append((rows, pivots))
            continue
        b = rows.T
        restricted = (matrix @ b % q)[list(pivots), :] % q
        eye = np.eye(d, dtype=np.int64)
        pieces = []
        found = 0
        for lam in range(q):
            ns = modular.nullspace((restricted - lam * eye) % q, q)
            if ns.shape[0]:
                pieces.append(ns)
                found += ns.shape[0]
                if found == d:
                    break
        if found != d:
            raise ConsistencyError("class matrix not diagonalisable over F_q")
        if len(pieces) == 1:
            out.append((rows, pivots))
            continue
        for ns in pieces:
            out.append(modular.rref(ns @ rows % q, q))
    return out


def _reference_char_center(chi):
    classes = chi.group.conjugacy_classes()
    target = Fraction(chi.degree) ** 2
    members = []
    for mem, v in zip(classes.members, chi.values):
        if v.abs_squared().equals_rational(target):
            members.extend(mem)
    return Subgroup(chi.group, members)


def _reference_inner_product(chi, psi):
    e = math.lcm(chi.conductor, psi.conductor)
    classes = chi.group.conjugacy_classes()
    total = Cyclotomic.zero(e)
    for size, a, b in zip(classes.sizes, chi.values, psi.values):
        total = total + size * (a.embed(e) * b.embed(e).conj())
    r = total.as_rational()
    if r is None:
        raise ConsistencyError("inner product of characters must be rational")
    return r / chi.group.order


# ---------------------------------------------------------------------------
# value lift

def _spy_lift(monkeypatch):
    """Record the arguments and the result of every ``_lift_values`` call."""
    seen = []
    lift = chartable._lift_values

    def spy(thetas, degrees, pm, e, q):
        values = lift(thetas, degrees, pm, e, q)
        seen.append(((thetas.copy(), degrees.copy(), pm.copy(), e, q), values.copy()))
        return values

    monkeypatch.setattr(chartable, "_lift_values", spy)
    return seen


@pytest.mark.parametrize("name", list(LIFT_SPECS))
def test_lift_kernel_matches_scalar_loop(name, monkeypatch):
    # The reference reads theta along all e powers g_j^s, s < e; the lift
    # reads it along the first o(g_j) only.
    seen = _spy_lift(monkeypatch)
    g = from_spec(LIFT_SPECS[name])
    t = chartable._dixon_tables([g])[0]  # abelian groups bypass it otherwise
    [((thetas, degrees, pm, e, q), _)] = seen
    assert len(thetas) == len(t) and q == t.field_prime and e == t.exponent
    reference = []
    for theta, degree in zip(thetas, degrees.tolist()):
        assert theta[0] == degree  # theta(1) is the degree
        values = _reference_lift(theta[pm].tolist(), e, q, degree)
        reference.append((degree, tuple(v.coeffs for v in values)))
    assert sorted(reference) == [(ch.degree, tuple(v.coeffs for v in ch.values))
                                 for ch in t.irreducibles]


def _assert_lift_matches_the_e_point_lift(groups, monkeypatch, per_character=False):
    """Each group's lift, forced through ``_dixon_tables``, gives the very
    array the e-point lift gives from the same residues, in its blocks or
    one character at a time; returns the calls of ``_root_multiplicities``
    per group."""
    seen = _spy_lift(monkeypatch)
    kernel = chartable._root_multiplicities
    rows = []

    def count(theta_pm, dft, q):
        rows[-1].append(len(theta_pm))
        return kernel(theta_pm, dft, q)

    monkeypatch.setattr(chartable, "_root_multiplicities", count)
    for g in groups:
        seen.clear()
        rows.append([])
        chartable._dixon_tables([g])
        [((thetas, degrees, pm, e, q), values)] = seen
        if per_character:
            want = np.stack([old_routes.e_point_values(thetas[i:i + 1], degrees[i:i + 1],
                                                       pm, e, q)[:, 0]
                             for i in range(len(thetas))], axis=1)
        else:
            want = old_routes.e_point_values(thetas, degrees, pm, e, q)
        assert np.array_equal(values, want)
    return rows


def test_batched_lift_matches_the_per_character_loop(zoo, monkeypatch):
    # Every class of every character is lifted once, and some blocks hold
    # several characters.
    groups = list(zoo.values()) + [from_spec(spec) for spec in SPLIT_SPECS.values()]
    calls = _assert_lift_matches_the_e_point_lift(groups, monkeypatch, per_character=True)
    for g, rows in zip(groups, calls):
        k = len(g.conjugacy_classes())
        assert sum(rows) == k * k
    orders = [len(set(g.element_orders())) for g in groups]
    assert any(len(rows) < len(g.conjugacy_classes()) * n
               for g, rows, n in zip(groups, calls, orders))


ORDER_SPECS = {
    "d5 x C30": {"type": "product",
                 "factors": [{"type": "named", "name": "d5"},
                             {"type": "cyclic", "n": 30}]},
    "S6": LIFT_SPECS["S6"],
    "cyclic(60)": LIFT_SPECS["cyclic(60)"],
}


@pytest.mark.parametrize("name", list(ORDER_SPECS))
def test_per_order_lift_matches_the_e_point_lift(name, monkeypatch):
    g = from_spec(ORDER_SPECS[name])
    orders = len(set(g.element_orders()))
    assert orders == {"d5 x C30": 8, "S6": 6, "cyclic(60)": 12}[name]
    [calls] = _assert_lift_matches_the_e_point_lift([g], monkeypatch)
    assert len(calls) >= orders  # one product per order at least


@pytest.mark.slow
def test_per_order_lift_matches_the_e_point_lift_on_d5_x_c200(monkeypatch):
    g = from_spec({"type": "product", "factors": [{"type": "named", "name": "d5"},
                                                  {"type": "cyclic", "n": 200}]})
    assert (len(g.conjugacy_classes()), g.exponent) == (800, 200)
    _assert_lift_matches_the_e_point_lift([g], monkeypatch)


def _largest_prime_below(bound, e):
    q = bound - 1 - (bound - 2) % e  # largest q < bound with q = 1 (mod e)
    while not is_prime(q):
        q -= e
    return q


@pytest.mark.parametrize("bound", [chartable.PRIME_BOUND, 2 ** 31])
def test_root_multiplicities_do_not_overflow(bound):
    # Near PRIME_BOUND an order of 60 takes the float64 carrier near its
    # edge and one of 120 takes int64; at 2**31 the int64 blocks shrink to
    # one term, so every block boundary runs.
    q = _largest_prime_below(bound, 120)
    assert q % 120 == 1 and q < bound
    rng = random.Random(7)
    for o in (60, 120):
        floats = modular.carrier(o * (q - 1) ** 2) is np.float64
        assert floats == ((bound, o) == (chartable.PRIME_BOUND, 60))
        theta_pm = [[q - 1] * o, [q - 1 - s for s in range(o)],
                    [rng.randrange(q) for _ in range(o)], [0] * o]
        w = chartable._element_of_order(o, q)
        inv_o = pow(o, -1, q)
        got = chartable._root_multiplicities(
            np.array(theta_pm, dtype=np.int64), chartable._dft_matrix(o, w, q), q)
        want = [[inv_o * sum(row[s] * pow(w, (-s * j) % o, q) for s in range(o)) % q
                 for j in range(o)] for row in theta_pm]
        assert got.tolist() == want


# ---------------------------------------------------------------------------
# inner products

def _combination(table, coeffs, conductor=None):
    """The class function sum a_i chi_i (integer a_i), re-embedded at
    ``conductor``."""
    e = table.exponent
    values = []
    for c in range(len(table.classes)):
        acc = Cyclotomic.zero(e)
        for a, ch in zip(coeffs, table.irreducibles):
            acc = acc + ch.values[c].embed(e) * a
        values.append(acc.embed(conductor or e))
    return Character(table.group, int(values[0].as_rational()),
                     conductor or e, [v.coeffs for v in values], False)


def _random_coeffs(rng, table):
    return [rng.randint(-4, 4) for _ in table.irreducibles]


@pytest.mark.parametrize("name", ["s3", "d4", "heis3", "c3wrc3", "c5"])
def test_inner_product_matches_cyclotomic_loop(name, tables):
    t = tables[name]
    rng = random.Random(name)
    for _ in range(4):
        a, b = _random_coeffs(rng, t), _random_coeffs(rng, t)
        chi = _combination(t, a)
        psi = _combination(t, b, conductor=2 * t.exponent)
        got = inner_product(chi, psi)
        assert got == _reference_inner_product(chi, psi)
        assert got == sum(x * y for x, y in zip(a, b))
    for chi in t.irreducibles:
        for psi in t.irreducibles:
            assert inner_product(chi, psi) == _reference_inner_product(chi, psi)


def test_embedding_matches_cyclotomic_embed():
    rng = random.Random(3)
    for e, e2 in [(1, 4), (2, 6), (3, 6), (4, 12), (5, 15), (6, 60), (12, 60)]:
        for _ in range(5):
            coeffs = [rng.randint(-5, 5) for _ in range(euler_phi(e))]
            got = np.array(coeffs) @ embedding(e, e2)
            assert tuple(got.tolist()) == Cyclotomic(e, coeffs).embed(e2).coeffs
    with pytest.raises(InputError):
        embedding(4, 6)


def test_inner_product_of_restrictions_across_conductors(tables):
    for name in ("s3", "d4", "c3wrc3", "heis3xc3"):
        g = tables[name].group
        for h in (g.center(), g.derived_subgroup()):
            ht = character_table(h.as_group())
            for chi in tables[name].irreducibles:
                down = restrict(chi, h)
                for lam in ht.irreducibles:
                    assert (inner_product(down, lam)
                            == _reference_inner_product(down, lam))


def test_decompose_matches_cyclotomic_loop(tables):
    rng = random.Random(11)
    for name in ("s3", "heis3", "c3wrc3"):
        t = tables[name]
        a = [rng.randrange(3) for _ in t.irreducibles]
        chi = _combination(t, a, conductor=3 * t.exponent)
        assert list(decompose(chi, t)) == a == [
            _reference_inner_product(chi, irr) for irr in t.irreducibles]
        with pytest.raises(InputError):  # not a genuine character
            decompose(_combination(t, [-1] + a[1:]), t)
        k, phi = len(t.classes), euler_phi(t.exponent)
        delta = np.zeros((k, phi), dtype=np.int64)
        delta[0, 0] = 1  # integral values, but <delta, 1> = 1/|G|
        with pytest.raises(InputError):
            decompose(Character(t.group, 1, t.exponent, delta, False), t)


def test_irrational_pairing_is_refused(tables):
    t = tables["c3"]
    g = t.group
    trivial = next(ch for ch in t.irreducibles
                   if all(v.equals_rational(1) for v in ch.values))
    z = root_of_unity(1, 3)
    odd = Character(g, 1, 3, [z.coeffs] + [Cyclotomic.one(3).coeffs]
                    * (len(t.classes) - 1), False)
    with pytest.raises(ConsistencyError):
        _reference_inner_product(odd, trivial)
    with pytest.raises(ConsistencyError):
        inner_product(odd, trivial)
    with pytest.raises(ConsistencyError):
        decompose(odd, t)


# ---------------------------------------------------------------------------
# eigenspace split

def _whole(k):
    """The whole space of a k-class table, starting at the identity class."""
    eye = np.eye(k, dtype=np.int64)
    return [(eye, tuple(range(k)), eye[0])]


def _scaled(rows, q):
    """Each row scaled to 1 at its first nonzero entry, sorted, as lists."""
    rows = np.asarray(rows, dtype=np.int64) % q
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    inv = np.array([pow(int(c), -1, q) for c in lead], dtype=np.int64)
    return sorted((rows * inv[:, None] % q).tolist())


def _round(pieces, c, q):
    """One ``_split_round`` of pieces that all belong to one group."""
    return chartable._split_round(pieces, np.zeros(len(pieces), dtype=np.intp), [c], q)[0]


def _split_rows(g, order=None):
    """The central characters of ``g`` from the lockstep split, sorted."""
    classes = g.conjugacy_classes()
    q = chartable.dixon_prime(g.order, g.exponent)
    matrices = (chartable._split_matrices(g, classes, chartable._inverse_class(g, classes), q)
                if order is None else old_split.class_matrices(g, classes, q, order))
    return sorted(chartable._split([matrices], len(classes), q)[0].tolist())


SPLIT_SPECS = {**LIFT_SPECS,
               "gn(3,2)": {"type": "gn", "p": 3, "n": 2},
               "gn(7,1)": {"type": "gn", "p": 7, "n": 1}}


@pytest.mark.parametrize("name", list(SPLIT_SPECS))
def test_split_matches_full_scan(name):
    # The full scan refines the whole space by M_1, M_2, ... until every
    # space is one row.  Those rows, scaled to 1 on the identity class, are
    # what the lockstep split gives from its combinations and from the
    # class matrices in either order, and what the old route gives.
    g = from_spec(SPLIT_SPECS[name])
    classes = g.conjugacy_classes()
    k = len(classes)
    q = chartable.dixon_prime(g.order, g.exponent)
    spaces = _whole(k)
    for i in range(1, k):
        if all(len(rows) == 1 for rows, *_ in spaces):
            break
        spaces = _reference_split(spaces, chartable.class_matrix(g, classes, i), q)
    want = _scaled([rows[0] for rows, _ in spaces], q)
    assert len(want) == k and want == old_split.central_characters(g)
    for order in (None, range(1, k), range(k - 1, 0, -1)):
        assert _split_rows(g, order) == want, order


def _count_nullspaces(monkeypatch):
    """Patch ``modular.nullspace`` to count its calls."""
    calls = []
    original = modular.nullspace

    def spy(a, q):
        calls.append(a.shape)
        return original(a, q)

    monkeypatch.setattr(modular, "nullspace", spy)
    return calls


# Two diagonalisable matrices over F_7.  In the first, e_0 is an eigenvector
# (eigenvalue 2) and misses the eigenvalue 3 of (1, 1); in the second, e_0
# and e_1 span an invariant plane (eigenvalues 1 and 6 = -1) and miss the
# eigenvalue 3 of e_2.  The second start of each has a nonzero component
# along every eigenvector: (0, 1) = (1, 1) - (1, 0), and
# (1, 0, 1) = ((1, 1, 0) + (1, -1, 0)) / 2 + (0, 0, 1).
MISSED = [([[2, 1], [0, 3]], [1, 0], [0, 1]),
          ([[0, 1, 0], [1, 0, 0], [0, 0, 3]], [1, 0, 0], [1, 0, 1])]


@pytest.mark.parametrize("a, missing, _", MISSED, ids=["eigenvector", "plane"])
def test_split_refuses_a_start_that_misses_an_eigenvalue(a, missing, _,
                                                         monkeypatch):
    # The missing starts are e_0, where the split starts: a round gives one
    # piece per eigenvalue met, fewer than d, and the matrices run out.
    q = 7
    a = np.array(a, dtype=np.int64)
    d = len(a)
    assert missing == np.eye(1, d, dtype=int)[0].tolist()
    assert len(_round(np.array([missing]), a, q)) < d
    calls = _count_nullspaces(monkeypatch)
    with pytest.raises(ConsistencyError):
        chartable._split([iter([a])], d, q)
    assert calls == []


@pytest.mark.parametrize("a, _, covering", MISSED, ids=["eigenvector", "plane"])
def test_split_from_a_start_on_every_eigenvector_is_the_full_scan(a, _, covering):
    q = 7
    a = np.array(a, dtype=np.int64)
    d = len(a)
    space = [(np.eye(d, dtype=np.int64), tuple(range(d)),
              np.array(covering, dtype=np.int64))]
    got = _round(np.array([covering]), a, q)
    assert len(got) == d
    assert _scaled(got, q) == _scaled([rows[0] for rows, _ in _reference_split(space, a, q)], q)


def test_spectral_images_are_the_eigenspaces():
    # A round gives one piece per eigenvalue that the start meets, each an
    # eigenvector: three where e_0 is cyclic, two where e_0 lies in the plane
    # of the eigenvalue 2 plus the line of 3.
    q = 7
    start = np.array([[1, 0, 0]])
    for a, lams in ((np.array([[1, 0, 0], [1, 2, 0], [0, 1, 4]]), {1, 2, 4}),
                    (np.array([[2, 0, 0], [1, 3, 0], [0, 0, 2]]), {2, 3})):
        pieces = _round(start, a, q)
        seen = set()
        for u in pieces:
            lead = int(np.flatnonzero(u)[0])
            lam = int(a[lead] @ u) * pow(int(u[lead]), -1, q) % q
            assert not ((a @ u - lam * u) % q).any()
            seen.add(lam)
        assert seen == lams and len(pieces) == len(lams)


@pytest.mark.parametrize("spec", [{"type": "gn", "p": 3, "n": 2},
                                  {"type": "gn", "p": 7, "n": 1}])
def test_tables_of_the_benchmark_groups_need_no_nullspace(spec, monkeypatch):
    def refuse(*args):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(modular, "nullspace", refuse)
    t = character_table(from_spec(spec))
    assert len(t) == len(t.classes)


def test_split_refuses_a_matrix_that_is_not_diagonalisable():
    # The first Jordan block has e_0 as an eigenvector, so the split keeps
    # one piece and runs out; in its transpose e_0 is cyclic with minimal
    # polynomial (x - 2)^2, a repeated root, which the root search refuses.
    q = 7
    for a in ([[2, 1], [0, 2]], [[2, 0], [1, 2]]):
        a = np.array(a, dtype=np.int64)
        space = _whole(2)
        with pytest.raises(ConsistencyError):
            _reference_split(space, a, q)
        with pytest.raises(ConsistencyError):
            chartable._split([iter([a])], 2, q)
    with pytest.raises(ConsistencyError, match="diagonalisable"):
        _round(np.array([[1, 0]]), a, q)


def _central_characters(t, q):
    """omega_chi(C_t) = |C_t| chi(g_t) / chi(1) mod q, one row per row of the
    finished table, with zeta_e read as the z of ``_element_of_order``."""
    e = t.exponent
    z = chartable._element_of_order(e, q)
    zeta = np.array([pow(z, i, q) for i in range(euler_phi(e))], dtype=np.int64)
    sizes = np.array(t.classes.sizes, dtype=np.int64)
    return np.array([(chi.coeffs % q) @ zeta % q * sizes % q * pow(chi.degree, -1, q) % q
                     for chi in t.irreducibles])


def test_every_start_is_a_multiple_of_the_identity_projection(tables):
    # Replays the split by its default sequence and by the class matrices in
    # both orders.  Written in the basis of the omega_chi, every piece must
    # be a nonzero multiple of sum over chi in S of chi(1)^2 omega_chi, |G|
    # times the projection of the identity class onto its set S, and the
    # sets S of the pieces must partition Irr(G).
    inputs = dict(tables)
    inputs.update((name, character_table(from_spec(spec)))
                  for name, spec in SPLIT_SPECS.items())
    checked = 0
    for name, t in inputs.items():
        g = t.group
        if g.is_abelian():
            continue
        classes = g.conjugacy_classes()
        k = len(classes)
        q = t.field_prime
        omega = _central_characters(t, q)
        red, _ = modular.rref(np.hstack([omega, np.eye(k, dtype=np.int64)]), q)
        assert (red[:, :k] == np.eye(k)).all()
        weights = np.array([chi.degree ** 2 % q for chi in t.irreducibles])
        for order in (None, range(1, k), range(k - 1, 0, -1)):
            matrices = (chartable._split_matrices(
                g, classes, chartable._inverse_class(g, classes), q)
                if order is None else old_split.class_matrices(g, classes, q, order))
            pieces = np.eye(1, k, dtype=np.int64)
            while True:
                coords = pieces @ red[:, k:] % q  # along the omega_chi
                support = coords != 0
                assert (support.sum(axis=0) == 1).all(), (name, order)
                for c, s in zip(coords, support):
                    scale = int(c[s][0]) * pow(int(weights[s][0]), -1, q) % q
                    assert not ((c[s] - scale * weights[s]) % q).any(), (name, order)
                checked += int((support.sum(axis=1) > 1).sum())
                if len(pieces) == k:
                    break
                pieces = _round(pieces, next(matrices), q)
    assert checked > 100


def _minimal_polynomials(a, xs, q):
    """The minimal polynomial of each row of ``xs`` under ``a``, from one
    lockstep Krylov pass over all of them, as lists in row order."""
    ct = (a.T % q).astype(modular.carrier(len(a) * (q - 1) ** 2))
    out = [None] * len(xs)
    owners = np.zeros(len(xs), dtype=np.intp)
    for rows, mu, _ in chartable._krylov(np.asarray(xs) % q, owners, [ct], q):
        for i, poly in zip(rows, mu.astype(np.int64).tolist()):
            out[i] = poly
    return out


def test_minimal_polynomial_annihilates_its_vector():
    rng = np.random.default_rng(5)
    q = 61
    for d in (1, 2, 5, 9):
        for rank in range(d + 1):
            # a d x d matrix of the given rank, and vectors in its image
            a = rng.integers(0, q, (d, rank)) @ rng.integers(0, q, (rank, d)) % q
            xs = rng.integers(0, q, (4, d))
            for x, poly in zip(xs, _minimal_polynomials(a, xs, q)):
                assert poly[-1] == 1
                krylov = [x % q]
                for _ in range(len(poly) - 1):
                    krylov.append(a @ krylov[-1] % q)
                acc = sum(c * v for c, v in zip(poly, krylov)) % q
                assert not acc.any()
                # the lower powers are independent, so no smaller degree works
                assert modular.rank(np.array(krylov[:-1]).reshape(-1, d), q) == len(poly) - 1


def _poly_from_roots(roots, q):
    poly = [1]
    for r in roots:  # multiply by (x - r), ascending coefficients
        poly = [(shifted - r * c) % q for shifted, c in zip([0] + poly, poly + [0])]
    return poly


def test_roots_mod_finds_every_root():
    q = 10007
    for roots in ([0, 3, 4095, 4096, 9000, q - 1], [1, 5000], [q - 1]):
        assert chartable._roots(np.array([_poly_from_roots(roots, q)]), q).tolist() == [roots]
    # several polynomials of one degree in one pass, in either carrier
    batch = [[1, 2, 3], [5, 9000, q - 1], [0, 4096, 8000]]
    polys = np.array([_poly_from_roots(roots, q) for roots in batch])
    for dtype in (np.int64, np.float64):
        assert chartable._roots(polys.astype(dtype), q).tolist() == batch
    for poly in ([1, 0, 1], _poly_from_roots([2, 2], 7)):  # no root; a double root
        with pytest.raises(ConsistencyError):
            chartable._roots(np.array([poly]), 7)


# ---------------------------------------------------------------------------
# the first round by one transform over F_q^*

S3_C97 = {"type": "product",
          "factors": [{"type": "named", "name": "s3"}, {"type": "cyclic", "n": 97}]}
S3_C200 = {"type": "product",
           "factors": [{"type": "named", "name": "s3"}, {"type": "cyclic", "n": 200}]}


def _spy_routes(monkeypatch):
    """Record the name of each ``_transform``, ``_krylov`` and ``_roots``
    call, and whether its round's pieces were all start vectors."""
    calls, start = [], [False]
    split_round = chartable._split_round

    def round_spy(pieces, owners, cs, q):
        start[0] = bool((pieces == np.eye(1, pieces.shape[1], dtype=np.int64)).all())
        return split_round(pieces, owners, cs, q)

    monkeypatch.setattr(chartable, "_split_round", round_spy)
    for name in ("_transform", "_krylov", "_roots"):
        def spy(*args, _original=getattr(chartable, name), _name=name):
            calls.append((_name, start[0]))
            return _original(*args)

        monkeypatch.setattr(chartable, name, spy)
    return calls


def _dixon_batches(monkeypatch, specs):
    """The batches of groups that ``_dixon_tables`` splits while the tables
    of ``specs`` are built and ``verify_all`` runs on each."""
    batches = []
    dixon_tables = chartable._dixon_tables

    def spy(groups):
        batches.append(list(groups))
        return dixon_tables(groups)

    with monkeypatch.context() as patch:
        patch.setattr(chartable, "_dixon_tables", spy)
        for spec in specs:
            verify_all(character_table(from_spec(spec)))
    return batches


def test_transform_gives_the_pieces_of_the_first_krylov_round(zoo, monkeypatch):
    # The transform's parts of e_0 are the Krylov pieces up to nonzero
    # scalars, owner by owner, on every non-abelian group of the zoo, every
    # SPLIT_SPECS group, S3 x C200 (k = q - 1 = 600, the largest q the
    # selection admits there) and every batch of nested tables of verify_all
    # on gn(3,2) and gn(7,1).  The reference is the Krylov route of the same
    # round, reached by refusing the selection.
    batches = [[g] for g in zoo.values() if not g.is_abelian()]
    batches += [[from_spec(spec)] for spec in [*SPLIT_SPECS.values(), S3_C200]]
    nested = _dixon_batches(monkeypatch, [SPLIT_SPECS["gn(3,2)"], SPLIT_SPECS["gn(7,1)"]])
    assert sum(map(len, nested)) > 10 and max(map(len, nested)) > 1
    calls = _spy_routes(monkeypatch)
    for batch in batches + nested:
        classes = [g.conjugacy_classes() for g in batch]
        k, q = len(classes[0]), chartable.dixon_prime(batch[0].order, batch[0].exponent)
        cs = [next(chartable._split_matrices(g, c, chartable._inverse_class(g, c), q))
              for g, c in zip(batch, classes)]
        start = np.repeat(np.eye(1, k, dtype=np.int64), len(batch), axis=0)
        owners = np.arange(len(batch))
        calls.clear()
        got, got_owners = chartable._split_round(start, owners, cs, q)
        assert calls == [("_transform", True)], batch[0].name
        with monkeypatch.context() as patch:
            patch.setattr(chartable, "_by_transform", lambda *args: False)
            want, want_owners = chartable._split_round(start, owners, cs, q)
        assert ("_krylov", True) in calls
        assert got.dtype == np.int64 and (np.diff(got_owners) >= 0).all()
        for o in owners:
            assert (_scaled(got[got_owners == o], q)
                    == _scaled(want[want_owners == o], q)), batch[o].name


def test_start_vectors_take_no_krylov_step(monkeypatch):
    # On these groups the split's first round is the transform alone, while
    # S3 x C97 (k = 291, q - 1 = 1,746 > 291) splits e_0 by Krylov.
    calls = _spy_routes(monkeypatch)
    for name in ("gn(3,2)", "gn(7,1)", "d5 x C12", "S6"):
        calls.clear()
        character_table(from_spec(SPLIT_SPECS[name]))
        assert calls[0] == ("_transform", True), name
        assert [name for name, start in calls].count("_transform") == 1, name
        assert not any(start for name, start in calls[1:]), name
    calls.clear()
    character_table(from_spec(S3_C97))
    assert calls[0] == ("_krylov", True) and "_transform" not in dict(calls)


def test_transform_and_krylov_meet_at_the_edge_of_the_selection(monkeypatch):
    # q - 1 <= max(k, 256) with k = 3 admits q = 257 and not q = 263.  A
    # = P D P^-1 has the columns of P as eigenvectors, one of them in the
    # kernel, and e_0 is their sum, so both routes give those columns up to
    # scale.
    p = np.array([[1, 0, 0], [-1, 1, 0], [0, -1, 1]], dtype=np.int64)
    p_inv = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=np.int64)
    assert (p @ p_inv == np.eye(3)).all() and (p.sum(axis=1) == [1, 0, 0]).all()
    a = p @ np.diag([0, 3, 5]) @ p_inv
    calls = _spy_routes(monkeypatch)
    for q, route in ((257, "_transform"), (263, "_krylov")):
        calls.clear()
        got = _round(np.array([[1, 0, 0]]), a % q, q)
        assert calls[0] == (route, True)
        assert _scaled(got, q) == _scaled(p.T, q), q


def test_a_rotation_is_refused_by_either_route(monkeypatch):
    # e_0's minimal polynomial under the rotation is t^2 + 1, irreducible
    # mod 7 and mod 263 (both 3 mod 4): the transform's certificate refuses
    # it at q = 7, the root search at q = 263.
    rotation = np.array([[0, -1], [1, 0]], dtype=np.int64)
    calls = _spy_routes(monkeypatch)
    for q, route in ((7, "_transform"), (263, "_roots")):
        calls.clear()
        with pytest.raises(ConsistencyError, match="diagonalisable"):
            _round(np.array([[1, 0]]), rotation % q, q)
        assert calls[-1][0] == route, q


# ---------------------------------------------------------------------------
# centre of a character

def _centre_cases(tables):
    groups = [t.group for t in tables.values()]
    groups += [from_spec(LIFT_SPECS["d5 x C12"]), from_spec(LIFT_SPECS["S6"])]
    for g in groups:
        t = character_table(g)
        yield from t.irreducibles
        for h in (g.center(), g.derived_subgroup()):
            if h.order in (1, g.order):
                continue
            ht = character_table(h.as_group())
            for chi in t.irreducibles:
                yield restrict(chi, h)
            for lam in ht.irreducibles:
                yield induce(lam, h, g)


def test_char_center_lookup_matches_abs_squared(tables):
    count = 0
    for chi in _centre_cases(tables):
        assert char_center(chi).members == _reference_char_center(chi).members
        count += 1
    assert count > 300
    # -1 is a root of unity even at an odd conductor such as 1
    t = tables["s3"]
    sign = next(ch for ch in t.linear() if not ch.values[1].equals_rational(1)
                or not ch.values[2].equals_rational(1))
    rational = Character(t.group, 1, 1, [Cyclotomic.from_rational(v.as_rational(), 1).coeffs
                                         for v in sign.values], False)
    assert char_center(rational).order == 6
    assert _reference_char_center(rational).order == 6


# ---------------------------------------------------------------------------
# pairing carrier: float64 below 2**53, int64 below 2**62, Python ints above

def _spy_carrier(monkeypatch):
    """Record, for every call of ``modular.carrier``, the function that asked
    and the carrier it got; setting ``force["dtype"]`` overrides the bound's
    choice for pairings and norms, not for products mod q."""
    seen, force = [], {"dtype": None}
    choose = modular.carrier

    def spy(bound):
        caller = sys._getframe(1).f_code.co_name
        dtype = choose(bound)
        if caller in ("_pairings", "weighted_norms"):
            dtype = force["dtype"] or dtype
        seen.append((caller, dtype))
        return dtype

    monkeypatch.setattr(modular, "carrier", spy)
    return seen, force


def _pairings_with(t, chi):
    """|G| <chi, psi> for every irreducible psi of ``t``, through the
    table's cached operand."""
    e = math.lcm(chi.conductor, t.exponent)
    b, extremes = t.operand(e)
    sizes = np.array(t.classes.sizes, dtype=np.int64)
    return chartable._pairings(chi.at(e), b.reshape(len(b), -1), int(np.abs(extremes).max()),
                               sizes, e)


def test_int64_pairings_match_object_carrier(tables, monkeypatch):
    seen, force = _spy_carrier(monkeypatch)
    rng = random.Random(5)
    for name, t in tables.items():
        mixed = _combination(t, _random_coeffs(rng, t), conductor=2 * t.exponent)
        for chi in (*t.irreducibles, mixed):
            force["dtype"] = None
            fast = _pairings_with(t, chi)
            assert seen[-1] == ("_pairings", np.float64), name
            for dtype in (np.int64, object):
                force["dtype"] = dtype
                assert _pairings_with(t, chi).tolist() == fast.tolist(), name
                assert seen[-1] == ("_pairings", dtype), name
            assert fast.dtype == np.int64


def test_pairing_carrier_bound_edges(monkeypatch):
    assert modular.carrier(2 ** 53 - 1) is np.float64
    assert modular.carrier(2 ** 53) is np.int64
    assert modular.carrier(2 ** 62 - 1) is np.int64
    assert modular.carrier(2 ** 62) is object
    assert modular.carrier(-(2 ** 62)) is np.float64  # bounds are absolute values
    # One class, rational values x and y, so the pairing is |C| x y.  The
    # bound B = max|a| * max|b| * |G| * phi * e * max|W| with, at conductor
    # 1, 2, 3 and 105, phi = 1, 1, 2, 48 and max|W| = 1, 1, 1, 2; each case
    # sits on the far side of an edge only through the factor it names.
    seen, _ = _spy_carrier(monkeypatch)
    x53 = 2 ** 53 // (48 * 105 * 2) + 1
    cases = [(2 ** 26, 2 ** 27 - 1, 1, 1, np.float64),  # just below 2**53
             (2 ** 26, 2 ** 27, 1, 1, np.int64),  # at 2**53
             (-(2 ** 31), 2 ** 31 - 1, 1, 1, np.int64),  # just below 2**62
             (-(2 ** 31), 2 ** 31, 1, 1, object),  # at 2**62
             (2 ** 26, 2 ** 26, 2, 1, np.int64),  # |G| = 2
             (2 ** 26, 2 ** 26, 1, 2, np.int64),  # e = 2
             (2 ** 25, 2 ** 26, 1, 3, np.int64),  # phi * e = 6
             (x53, 1, 1, 105, np.int64)]  # max|W| = 2
    for x, y, size, e, dtype in cases:
        a = np.zeros((1, euler_phi(e)), dtype=np.int64)
        b = a.copy()
        a[0, 0], b[0, 0] = x, y
        total = chartable._pairings(a, b, abs(y), np.array([size]), e)
        assert total.tolist() == [[size * x * y]]
        assert seen[-1] == ("_pairings", dtype), (x, y, size, e)


def test_norm_and_induction_carriers_at_their_edges(tables, monkeypatch):
    seen, _ = _spy_carrier(monkeypatch)
    # weighted norms: B = max|a|**2 * (largest weight sum) * phi * e * max|W|
    for x, w, dtype in ((2 ** 26, [1], np.float64), (2 ** 26, [2], np.int64),
                        (2 ** 26, [1, 1], np.int64), (2 ** 31 - 1, [1], np.int64),
                        (2 ** 31, [1], object)):
        got = chartable.weighted_norms(np.full((len(w), 1, 1), x), np.array([[w]]), 1)
        assert got.tolist() == [[sum(w) * x * x]]
        assert seen[-1] == ("weighted_norms", dtype)
    # induction from A3 to S3: B = [G:H] * max|values| = 2 * 2**scale
    g = tables["s3"].group
    h = g.derived_subgroup()
    hg = h.as_group()
    k_h = len(hg.conjugacy_classes())
    trivial = induce(Character(hg, 1, 1, np.ones((k_h, 1), dtype=np.int64)), h, g)
    for scale, dtype in ((51, np.float64), (52, np.int64), (61, object)):
        lam = Character(hg, 2 ** scale, 1, np.full((k_h, 1), 2 ** scale), False)
        coeffs = chartable.induce_batch([lam], h, g)
        assert seen[-1] == ("induce_batch", dtype)
        assert coeffs[:, 0].tolist() == (trivial.at(g.exponent) * 2 ** scale).tolist()


def test_large_class_function_takes_object_carrier(tables, monkeypatch):
    seen, _ = _spy_carrier(monkeypatch)
    t = tables["s3"]
    g, sizes = t.group, t.classes.sizes
    for scale, dtype in ((40, np.float64), (50, np.int64)):
        seen.clear()
        rational = [2 ** scale + 3, -(2 ** scale), 2 ** scale - 7]
        coeffs = np.zeros((len(t.classes), euler_phi(t.exponent)), dtype=np.int64)
        coeffs[:, 0] = rational
        big = Character(g, rational[0], t.exponent, coeffs, False)
        want = Fraction(sum(s * v * v for s, v in zip(sizes, rational)), g.order)
        assert inner_product(big, big) == want == _reference_inner_product(big, big)
        assert want.numerator > 2 ** 63
        assert seen == [("_pairings", object)]
        # with an irreducible: B = 2**scale * 2 * 6 * 2 * 6 * 1
        for chi in t.irreducibles:
            assert inner_product(big, chi) == _reference_inner_product(big, chi)
        assert seen == [("_pairings", object)] + [("_pairings", dtype)] * len(t)


def test_irrational_pairing_raises_in_both_carriers(tables, monkeypatch):
    # both the machine-word carriers (float64, int64) and Python ints refuse
    seen, force = _spy_carrier(monkeypatch)
    t = tables["c3"]
    z, one = root_of_unity(1, 3).coeffs, Cyclotomic.one(3).coeffs
    k = len(t.classes)
    for scale, forced in ((1, (None, np.int64, object)), (2 ** 40, (None, object))):
        odd = Character(t.group, 1, 3, np.array(
            [z] + [one] * (k - 1), dtype=np.int64) * scale, False)
        flat = Character(t.group, scale, 3,
                         np.array([one] * k, dtype=np.int64) * scale, False)
        for dtype in forced:
            force["dtype"] = dtype
            with pytest.raises(ConsistencyError):
                inner_product(odd, flat)
    assert [d for _, d in seen] == [np.float64, np.int64, object, object, object]


@pytest.mark.parametrize("spec", [{"type": "gn", "p": 3, "n": 2},
                                  {"type": "gn", "p": 7, "n": 1}])
def test_verify_all_pairs_in_float64_on_the_benchmark_groups(spec, monkeypatch):
    table = character_table(from_spec(spec))
    seen, _ = _spy_carrier(monkeypatch)
    assert all(r.passed for r in verify_all(table))
    # the pairings, the norms and any products mod q of the nested tables
    # all run in float64 (``verify`` induces from centres without
    # ``induce_batch``, whose carriers are tested at their edges)
    assert {c for c, _ in seen} >= {"_pairings", "weighted_norms"}
    assert {d for _, d in seen} == {np.float64}


def test_pairing_memory_is_quadratic_in_phi():
    # cyclic(257): phi = 256, so a cube of phi int64 entries would take
    # 134 MB; the Gram matrix and the fold onto e exponents take under 1 MB.
    g = cyclic(257)
    f = chartable._abelian_exponents(g)
    zeta_rows = np.array(_zeta_powers(257), dtype=np.int64)
    reps = list(g.conjugacy_classes().reps)
    faithful, trivial = (Character(g, 1, 257, zeta_rows[f[i][reps]], True)
                         for i in (1, 0))
    tracemalloc.start()
    try:
        assert inner_product(faithful, faithful) == 1
        assert inner_product(faithful, trivial) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# cached operands and row digests

def test_cached_operand_equals_the_stack(tables):
    for name, t in tables.items():
        for e in (t.exponent, 2 * t.exponent):
            b, extremes = t.operand(e)
            want = np.stack([ch.at(e) for ch in t.irreducibles], axis=1)
            assert np.array_equal(b, want), name
            assert extremes.tolist() == [want.max(), want.min()], name
            assert t.operand(e)[0] is b  # computed once per conductor
            assert not b.flags.writeable


def test_decompose_stacks_nothing_after_the_first_call(tables, monkeypatch):
    t = tables["c3wrc3"]
    mults = [i % 3 for i in range(len(t))]
    chi = _combination(t, mults)
    first = decompose(chi, t)
    assert list(first) == mults
    calls = []
    stack = np.stack
    monkeypatch.setattr(np, "stack", lambda *a, **k: calls.append(1) or stack(*a, **k))
    assert decompose(chi, t) == first
    assert calls == []
    # the cached operand still refuses an irrational pairing
    c3 = tables["c3"]
    z = root_of_unity(1, 3)
    odd = Character(c3.group, 1, 3, [z.coeffs] + [Cyclotomic.one(3).coeffs]
                    * (len(c3.classes) - 1), False)
    decompose(c3.irreducibles[0], c3)
    with pytest.raises(ConsistencyError):
        decompose(odd, c3)


def test_rows_of_confirms_a_block_like_row_of(tables, monkeypatch):
    # All rows of a table at once, with two class functions that are no row,
    # under the real digest and under one that makes every key collide.
    t = tables["gn32"]
    a, b = t.irreducibles[-2], t.irreducibles[-1]
    chars = [*t.irreducibles, Character(t.group, a.degree, t.exponent, a.coeffs + b.coeffs),
             Character(t.group, a.degree + 1, t.exponent, a.coeffs)]
    degrees = [ch.degree for ch in chars]
    coeffs = np.stack([ch.coeffs for ch in chars])
    want = list(range(len(t))) + [None, None]
    for digest in (chartable._digest, lambda values: 0):
        monkeypatch.setattr(chartable, "_digest", digest)
        fresh = dataclasses.replace(t)  # no keys cached under another digest
        assert fresh.rows_of(degrees, coeffs, t.exponent) == want
        assert [fresh.row_of(ch) for ch in chars] == want
        assert fresh.rows_of(degrees[::-1], coeffs[::-1], t.exponent) == want[::-1]


def test_row_of_survives_colliding_digests(tables, monkeypatch):
    t = tables["gn32"]
    monkeypatch.setattr(chartable, "_digest", lambda values: 0)
    fresh = dataclasses.replace(t)  # no keys cached under the real digest
    for i, ch in enumerate(t.irreducibles):
        assert fresh.row_of(ch) == i
        # the same values at a larger conductor find the same row
        wide = Character(t.group, ch.degree, 2 * t.exponent, ch.at(2 * t.exponent))
        assert fresh.row_of(wide) == i
    a, b = t.irreducibles[-2], t.irreducibles[-1]
    assert a.degree == b.degree
    # same degree, so the same key as a and b under the constant digest
    assert fresh.row_of(Character(t.group, a.degree, t.exponent, a.coeffs + b.coeffs)) is None
    assert fresh.row_of(Character(t.group, a.degree + 1, t.exponent, a.coeffs)) is None


# ---------------------------------------------------------------------------
# Krylov basis

def _reference_minimal_polynomial(a, x, q):
    """The Krylov loop that rebuilt its basis with ``np.vstack`` and a full
    reduction at every step."""
    d = a.shape[0]
    basis = np.zeros((0, 2 * d + 1), dtype=np.int64)
    pivots = []
    v = x % q
    for m in range(d + 1):
        row = np.zeros(2 * d + 1, dtype=np.int64)
        row[:d] = v
        row[d + m] = 1
        row = (row - row[pivots] @ basis) % q
        nz = np.flatnonzero(row[:d])
        if nz.size == 0:
            return row[d:d + m + 1].tolist()
        p = int(nz[0])
        row = row * pow(int(row[p]), -1, q) % q
        basis = np.vstack([(basis - np.outer(basis[:, p], row)) % q, row])
        pivots.append(p)
        v = a @ v % q
    raise ConsistencyError("Krylov sequence failed to become dependent")


def test_minimal_polynomial_matches_the_vstack_loop_on_random_matrices():
    # d = 100 at q near 1e7 passes 2**53 and runs in int64
    rng = np.random.default_rng(11)
    for q in (7, 61, 10007, 9_999_991):
        assert is_prime(q)
        for d in (1, 2, 3, 6, 13, 24) + ((100,) if q > 10 ** 6 else ()):
            for rank in {0, 1, d // 2, d}:
                a = rng.integers(0, q, (d, rank)) @ rng.integers(0, q, (rank, d)) % q
                xs = np.vstack([np.eye(1, d, dtype=np.int64), rng.integers(0, q, (3, d))])
                assert (_minimal_polynomials(a, xs, q)
                        == [_reference_minimal_polynomial(a, x, q) for x in xs]), (q, d, rank)


def test_minimal_polynomial_matches_the_vstack_loop_on_class_matrices(zoo):
    rng = np.random.default_rng(12)
    count = 0
    for name, g in zoo.items():
        classes = g.conjugacy_classes()
        k = len(classes)
        q = chartable.dixon_prime(g.order, g.exponent)
        xs = np.vstack([np.eye(1, k, dtype=np.int64), rng.integers(0, q, (2, k))])
        for i in range(k):
            a = chartable.class_matrix(g, classes, i) % q
            assert (_minimal_polynomials(a, xs, q)
                    == [_reference_minimal_polynomial(a, x, q) for x in xs]), (name, i)
            count += len(xs)
    assert count > 300
