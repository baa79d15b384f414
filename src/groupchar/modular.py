"""Dense linear algebra over a prime field F_q on numpy int64 matrices, and
the primality test and factorisation that pick such fields.

Everything here is deterministic: pivots are chosen as the first nonzero
entry scanning down, and nullspace bases come out in the standard reduced
form (one vector per free column, ascending).
"""

from __future__ import annotations

import numpy as np


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def is_prime(n: int) -> bool:
    """Trial division: fast enough for field primes below ``PRIME_BOUND``."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def rref(a: np.ndarray, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of ``a`` mod q and its pivot columns."""
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


def nullspace(a: np.ndarray, q: int) -> np.ndarray:
    """Rows form a basis of {x : a @ x = 0 mod q} (possibly empty)."""
    red, pivots = rref(a, q)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-red[r, fc]) % q
    return basis


def rank(a: np.ndarray, q: int) -> int:
    return rref(a, q)[0].shape[0]
