"""Prime-field linear algebra checks on seeded random matrices."""

import numpy as np
import pytest
import sympy

from groupchar import modular
from groupchar.modular import is_prime, matmul, nullspace, rank, rref


def _random_matrices(q, seed):
    rng = np.random.default_rng(seed)
    for rows, cols in [(1, 1), (3, 3), (4, 6), (6, 4), (5, 5), (8, 8), (2, 9)]:
        yield rng.integers(0, q, size=(rows, cols))


def test_is_prime_matches_sympy():
    assert [n for n in range(-5, 20_001) if is_prime(n)] == \
        [n for n in range(-5, 20_001) if sympy.isprime(n)]


def test_rref_properties():
    for q in (7, 37):
        for a in _random_matrices(q, q):
            red, pivots = rref(a, q)
            assert red.shape[0] == len(pivots)
            assert list(pivots) == sorted(pivots)
            for r, c in enumerate(pivots):
                assert red[r, c] == 1
                col = red[:, c].copy()
                col[r] = 0
                assert not col.any()  # pivot column is a unit vector


def test_rref_preserves_row_space():
    # every original row must reduce to zero against the rref rows
    for q in (7, 37):
        for a in _random_matrices(q, q + 1):
            red, pivots = rref(a, q)
            for row in np.array(a) % q:
                v = row.copy()
                for r, c in enumerate(pivots):
                    v = (v - v[c] * red[r]) % q
                assert not v.any()


def test_nullspace_is_annihilated():
    for q in (7, 37):
        for a in _random_matrices(q, 2 * q):
            ns = nullspace(a, q)
            assert rank(a, q) + ns.shape[0] == a.shape[1]
            if ns.shape[0]:
                assert not ((np.array(a) @ ns.T) % q).any()
                assert rank(ns, q) == ns.shape[0]  # basis is independent


def test_identity_and_zero():
    eye = np.eye(4, dtype=np.int64)
    assert rank(eye, 7) == 4
    assert nullspace(eye, 7).shape == (0, 4)
    zero = np.zeros((3, 5), dtype=np.int64)
    assert rank(zero, 7) == 0
    assert nullspace(zero, 7).shape == (5, 5)


def _column_loop_rref(a, q):
    """The reduced row echelon form by one loop step per column."""
    m = np.array(a, dtype=np.int64) % q
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, q)) % q
        col = m[:, c].copy()
        col[r] = 0
        m -= np.outer(col, m[r])
        m %= q
        pivots.append(c)
        r += 1
    return m[:r], tuple(pivots)


def _prime_at_least(n):
    while not is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("q", [7, 101, _prime_at_least(9_000_000)])
def test_rref_matches_the_column_loop_on_rank_deficient_matrices(q):
    # Tall ones run several row blocks; at q near 9e6 the block products
    # with 91 or more pivot rows take the int64 carrier.
    rng = np.random.default_rng(q)
    shapes = [(1, 5, 1), (5, 1, 1), (6, 9, 4), (40, 40, 39), (9, 150, 7),
              (200, 70, 30), (150, 150, 120), (130, 300, 100), (70, 20, 0)]
    for rows, cols, rk in shapes:
        a = (rng.integers(0, q, (rows, rk)) @ rng.integers(0, q, (rk, cols))) % q
        a[:, rng.integers(0, cols, cols // 3)] = 0  # columns without pivots
        red, pivots = rref(a, q)
        want, want_pivots = _column_loop_rref(a, q)
        assert pivots == want_pivots
        assert red.tolist() == want.tolist()
    assert modular.ROW_BLOCK < 200


def test_matmul_is_exact_at_the_float64_edge(monkeypatch):
    # The largest n with n (q-1)^2 < 2^53, for a q where n q^2 >= 2^53 too,
    # so the edge pins (q-1)^2 and not q^2.
    q = 1_000_289
    edge = (2 ** 53 - 1) // (q - 1) ** 2
    assert is_prime(q) and edge * q * q >= 2 ** 53
    assert edge * (q - 1) ** 2 < 2 ** 53 <= (edge + 1) * (q - 1) ** 2
    seen = []
    carrier = modular.carrier

    def spy(bound):
        seen.append(carrier(bound))
        return seen[-1]

    monkeypatch.setattr(modular, "carrier", spy)
    rng = np.random.default_rng(11)
    for n in (edge, edge + 1):
        a = rng.integers(0, q, (3, n))
        b = rng.integers(0, q, (n, 2))
        a[0] = b[:, 0] = q - 1  # one entry at the bound itself
        want = (a.astype(object) @ b.astype(object)) % q
        assert matmul(a, b, q).tolist() == want.tolist()
        assert matmul(a, b, q).tolist() == (a @ b % q).tolist()
    assert seen == [np.float64, np.float64, np.int64, np.int64]
