"""The fast paths of ``chartable`` against the scalar routes they replaced.

The references below are the per-class root-of-unity multiplicity loop of
the value lift, the ``Cyclotomic`` inner product, the eigenspace split that
scans every value of F_q, and the centre test through ``abs_squared``, kept
here verbatim in their loop form.  The fast paths must reproduce them
exactly: same rows, same rationals, same pieces, same members, same refusal
of an irrational pairing or of a matrix that is not diagonalisable.
"""

from __future__ import annotations

import math
import random
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
    """The eigenspace split by a full scan of lambda over F_q."""
    out = []
    for rows, pivots in spaces:
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

@pytest.mark.parametrize("name", list(LIFT_SPECS))
def test_lift_kernel_matches_scalar_loop(name, monkeypatch):
    seen = []
    kernel = chartable._root_multiplicities

    def spy(theta_pm, zmat, inv_e, q):
        seen.append((theta_pm.tolist(), q))
        return kernel(theta_pm, zmat, inv_e, q)

    monkeypatch.setattr(chartable, "_root_multiplicities", spy)
    g = from_spec(LIFT_SPECS[name])
    t = chartable._dixon_table(g, None)  # abelian groups bypass it otherwise
    assert len(seen) == len(t)
    e = t.exponent
    reference = []
    for theta_pm, q in seen:
        assert q == t.field_prime
        degree = theta_pm[0][0]  # theta(1) is the degree
        values = _reference_lift(theta_pm, e, q, degree)
        reference.append((degree, tuple(v.coeffs for v in values)))
    assert sorted(reference) == [(ch.degree, tuple(v.coeffs for v in ch.values))
                                 for ch in t.irreducibles]


def _largest_prime_below(bound, e):
    q = bound - 1 - (bound - 2) % e  # largest q < bound with q = 1 (mod e)
    while not is_prime(q):
        q -= e
    return q


@pytest.mark.parametrize("bound", [chartable.PRIME_BOUND, 2 ** 31])
def test_root_multiplicities_do_not_overflow(bound):
    # At 2**31 the blocks shrink to one term, so every block boundary runs.
    e = 60
    q = _largest_prime_below(bound, e)
    assert q % e == 1 and q < bound
    rng = random.Random(7)
    theta_pm = [[q - 1] * e, [q - 1 - s for s in range(e)],
                [rng.randrange(q) for _ in range(e)], [0] * e]
    z = chartable._element_of_order(e, q)
    zmat = [[pow(z, (-s * kk) % e, q) for kk in range(e)] for s in range(e)]
    inv_e = pow(e, -1, q)
    got = chartable._root_multiplicities(
        np.array(theta_pm, dtype=np.int64), np.array(zmat, dtype=np.int64),
        inv_e, q)
    want = [[inv_e * sum(row[s] * zmat[s][kk] for s in range(e)) % q
             for kk in range(e)] for row in theta_pm]
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

def _as_lists(spaces):
    return [(rows.tolist(), tuple(pivots)) for rows, pivots in spaces]


SPLIT_SPECS = {**LIFT_SPECS,
               "gn(3,2)": {"type": "gn", "p": 3, "n": 2},
               "gn(7,1)": {"type": "gn", "p": 7, "n": 1}}


@pytest.mark.parametrize("name", list(SPLIT_SPECS))
def test_split_matches_full_scan(name):
    # Every class matrix refines the spaces in the order character_table
    # uses them.  Each also splits the whole space, except that past 24
    # classes only one class per element order does, to bound the scan.
    g = from_spec(SPLIT_SPECS[name])
    classes = g.conjugacy_classes()
    k = len(classes)
    q = chartable.dixon_prime(g.order, g.exponent)
    orders = g.element_orders()
    per_order = {orders[r]: i for i, r in enumerate(classes.reps)}
    whole = [(np.eye(k, dtype=np.int64), tuple(range(k)))]
    refined = whole
    for i in range(1, k):
        m = chartable.class_matrix(g, classes, i)
        if k <= 24 or per_order[orders[classes.reps[i]]] == i:
            assert (_as_lists(chartable._split_spaces(whole, m, q))
                    == _as_lists(_reference_split(whole, m, q)))
        got = chartable._split_spaces(refined, m, q)
        assert _as_lists(got) == _as_lists(_reference_split(refined, m, q))
        refined = got
    assert len(refined) == k


def _record_eigenvalues(monkeypatch, a):
    """Patch ``modular.nullspace`` to record the lambda of each a - lambda*I."""
    lams = []
    original = modular.nullspace

    def spy(shifted, q):
        lams.append(int((a[0, 0] - shifted[0, 0]) % q))
        return original(shifted, q)

    monkeypatch.setattr(modular, "nullspace", spy)
    return lams


def test_split_falls_back_when_the_start_vector_misses(monkeypatch):
    # e_0 is an eigenvector (eigenvalue 2) of this diagonalisable matrix,
    # so its minimal polynomial is x - 2 and misses the eigenvalue 3.
    q = 7
    a = np.array([[2, 1], [0, 3]], dtype=np.int64)
    assert chartable._minimal_polynomial(a, np.array([1, 0]), q) == [q - 2, 1]
    space = [(np.eye(2, dtype=np.int64), (0, 1))]
    seen = _record_eigenvalues(monkeypatch, a)
    got = chartable._split_spaces(space, a, q)
    assert seen == [2, 0, 1, 3]  # the candidate, then the scan without it
    monkeypatch.undo()
    assert _as_lists(got) == _as_lists(_reference_split(space, a, q))
    assert len(got) == 2


def test_split_falls_back_when_the_start_vector_spans_a_plane(monkeypatch):
    # e_0 and e_1 span an invariant plane (eigenvalues 1 and 6 = -1), so the
    # minimal polynomial of e_0 is x^2 - 1: 1 < r < d.  mu(a) is not zero
    # on e_2 (eigenvalue 3), so the images fail the check and the nullspace
    # route takes over: the two roots, then the scan up to 3.
    q = 7
    a = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 3]], dtype=np.int64)
    mu = chartable._minimal_polynomial(a, np.array([1, 0, 0]), q)
    assert mu == [q - 1, 0, 1]
    assert chartable._spectral_images(a, mu, [1, 6], q) is None
    space = [(np.eye(3, dtype=np.int64), (0, 1, 2))]
    seen = _record_eigenvalues(monkeypatch, a)
    got = chartable._split_spaces(space, a, q)
    assert seen == [1, 6, 0, 2, 3]
    monkeypatch.undo()
    assert _as_lists(got) == _as_lists(_reference_split(space, a, q))
    assert len(got) == 3


def test_spectral_images_are_the_eigenspaces():
    # Both choices of X: r = d with e_0 cyclic, and r < d with X = I, where
    # each image has the dimension of its eigenspace.
    q = 7
    for a, dims in ((np.array([[1, 0, 0], [1, 2, 0], [0, 1, 4]]), [1, 1, 1]),
                    (np.array([[2, 0, 0], [1, 3, 0], [0, 0, 2]]), [2, 1])):
        mu = chartable._minimal_polynomial(a, np.array([1, 0, 0]), q)
        roots = chartable._roots_mod(mu, q)
        images = chartable._spectral_images(a, mu, roots, q)
        assert [modular.rank(u, q) for u in images] == dims
        for lam, u in zip(roots, images):
            assert not ((a @ u.T - lam * u.T) % q).any()


@pytest.mark.parametrize("spec", [{"type": "gn", "p": 3, "n": 2},
                                  {"type": "gn", "p": 7, "n": 1}])
def test_tables_of_the_benchmark_groups_need_no_nullspace(spec, monkeypatch):
    def refuse(*args):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(modular, "nullspace", refuse)
    t = character_table(from_spec(spec))
    assert len(t) == len(t.classes)


def test_split_refuses_a_matrix_that_is_not_diagonalisable():
    # The first Jordan block has e_0 as an eigenvector; in its transpose
    # e_0 is cyclic with minimal polynomial (x - 2)^2, a repeated root.
    q = 7
    for a in ([[2, 1], [0, 2]], [[2, 0], [1, 2]]):
        a = np.array(a, dtype=np.int64)
        space = [(np.eye(2, dtype=np.int64), (0, 1))]
        with pytest.raises(ConsistencyError):
            _reference_split(space, a, q)
        with pytest.raises(ConsistencyError):
            chartable._split_spaces(space, a, q)


def test_minimal_polynomial_annihilates_its_vector():
    rng = np.random.default_rng(5)
    q = 61
    for d in (1, 2, 5, 9):
        for rank in range(d + 1):
            # a d x d matrix of the given rank, and a vector in its image
            a = rng.integers(0, q, (d, rank)) @ rng.integers(0, q, (rank, d)) % q
            x = rng.integers(0, q, d)
            poly = chartable._minimal_polynomial(a, x, q)
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
        assert chartable._roots_mod(_poly_from_roots(roots, q), q) == roots
    assert chartable._roots_mod([1, 0, 1], 7) == []  # x^2 + 1 has no root mod 7


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
# pairing carrier: int64 under the a-priori bound, Python ints above it

def _spy_carrier(monkeypatch):
    """Record the carrier of every ``_pairings`` call; setting
    ``force["dtype"]`` overrides the bound's choice."""
    seen, force = [], {"dtype": None}
    choose = chartable._pairing_dtype

    def spy(*args):
        seen.append(force["dtype"] or choose(*args))
        return seen[-1]

    monkeypatch.setattr(chartable, "_pairing_dtype", spy)
    return seen, force


def test_int64_pairings_match_object_carrier(tables, monkeypatch):
    seen, force = _spy_carrier(monkeypatch)
    rng = random.Random(5)
    for name, t in tables.items():
        mixed = _combination(t, _random_coeffs(rng, t), conductor=2 * t.exponent)
        for chi in (*t.irreducibles, mixed):
            force["dtype"] = None
            fast = chartable._pairings(chi, t.irreducibles)
            assert seen[-1] is np.int64, name
            force["dtype"] = object
            assert fast == chartable._pairings(chi, t.irreducibles), name
            assert all(type(m) is Fraction and type(m.numerator) is int
                       for m in fast)


def test_pairing_dtype_bound_edge():
    # B = max|a| * max|b| * |G| * phi * e * max|W| with phi = 2, e = 2
    a = np.array([[2 ** 30, -5]], dtype=np.int64)
    at_edge = np.array([[1, -(2 ** 30)]], dtype=np.int64)
    below = np.array([[1, 2 ** 30 - 1]], dtype=np.int64)
    assert chartable._pairing_dtype(a, at_edge, 1, 2, 1) is object  # B = 2**62
    assert chartable._pairing_dtype(a, below, 1, 2, 1) is np.int64
    assert chartable._pairing_dtype(a, below, 2, 2, 1) is object
    assert chartable._pairing_dtype(a, below, 1, 2, 2) is object


def test_large_class_function_takes_object_carrier(tables, monkeypatch):
    seen, _ = _spy_carrier(monkeypatch)
    t = tables["s3"]
    g, sizes = t.group, t.classes.sizes
    rational = [2 ** 40 + 3, -(2 ** 40), 2 ** 40 - 7]
    coeffs = np.zeros((len(t.classes), euler_phi(t.exponent)), dtype=np.int64)
    coeffs[:, 0] = rational
    big = Character(g, rational[0], t.exponent, coeffs, False)
    want = Fraction(sum(s * v * v for s, v in zip(sizes, rational)), g.order)
    assert inner_product(big, big) == want == _reference_inner_product(big, big)
    assert want.numerator > 2 ** 63
    assert seen == [object]
    for chi in t.irreducibles:  # 2**40 * 2 * 6 * 2 * 6 * 1 < 2**62
        assert inner_product(big, chi) == _reference_inner_product(big, chi)
    assert seen == [object] + [np.int64] * len(t)


def test_irrational_pairing_raises_in_both_carriers(tables, monkeypatch):
    seen, force = _spy_carrier(monkeypatch)
    t = tables["c3"]
    z, one = root_of_unity(1, 3).coeffs, Cyclotomic.one(3).coeffs
    k = len(t.classes)
    for scale in (1, 2 ** 40):
        odd = Character(t.group, 1, 3, np.array(
            [z] + [one] * (k - 1), dtype=np.int64) * scale, False)
        flat = Character(t.group, scale, 3,
                         np.array([one] * k, dtype=np.int64) * scale, False)
        for dtype in (None, object):
            force["dtype"] = dtype
            with pytest.raises(ConsistencyError):
                inner_product(odd, flat)
    assert seen == [np.int64, object, object, object]


@pytest.mark.parametrize("spec", [{"type": "gn", "p": 3, "n": 2},
                                  {"type": "gn", "p": 7, "n": 1}])
def test_verify_all_pairs_in_int64_on_the_benchmark_groups(spec, monkeypatch):
    seen, _ = _spy_carrier(monkeypatch)
    assert all(r.passed for r in verify_all(character_table(from_spec(spec))))
    assert seen and set(seen) == {np.int64}


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
