"""Dense linear algebra over a prime field F_q, and the primality test and
factorisation that pick such fields.

Matrices hold residues in [0, q) as numpy int64.  ``matmul`` multiplies them
in float64 (BLAS) whenever every partial sum is an integer below 2**53, so
the float product is exact; nothing else here touches a float, and every
result is an int64 residue again.  ``carrier`` states that rule once for
every exact integer product of the package, here and in ``chartable``.

Everything here is deterministic: pivots are chosen as the first nonzero
entry scanning down, and nullspace bases come out in the standard reduced
form (one vector per free column, ascending).  The split of ``chartable``
uses none of ``rref``, ``nullspace`` and ``rank``: they stay as the plain
routes the tests check it against.
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


def carrier(bound: int):
    """The dtype in which an integer product is exact when no partial sum
    exceeds ``bound`` in absolute value: ``np.float64`` below 2**53, where
    every such integer is a float, so BLAS gives the exact result in any
    summation order (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008);
    ``np.int64`` below 2**62; ``object`` (Python ints) above."""
    if bound < 2 ** 53:
        return np.float64
    return np.int64 if bound < 2 ** 62 else object


def matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``a @ b mod q`` for 2-D int64 residues in [0, q), as int64 residues.

    With n the inner dimension, every partial sum of the product is an
    integer at most n * (q-1)**2.  When that bound is below 2**53 the
    product runs in float64 (BLAS), where every such integer is exact, so
    the result is exact in any summation order.  Otherwise it runs in int64,
    in blocks of at most 2**62 // (q-1)**2 terms reduced mod q after each
    block, which is exact while a block sum plus a residue stays below 2**63
    (every q < 2**31).
    """
    n = a.shape[1]
    if carrier(n * (q - 1) ** 2) is np.float64:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % q
    step = max(1, 2 ** 62 // (q - 1) ** 2)
    assert step * (q - 1) ** 2 + q < 2 ** 63, "int64 block sums would overflow"
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, n, step):
        out = (out + a[:, lo:lo + step] @ b[lo:lo + step]) % q
    return out


ROW_BLOCK = 64


def _rref_rows(m: np.ndarray, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of the residues ``m`` (changed in place) by
    the column loop.  Each step jumps to the first column with a nonzero
    entry at or below the current row, so the loop runs once per pivot, not
    once per column; the pivot row is zero before that column, so only the
    columns from it on change."""
    rows, cols = m.shape
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        live = m[r:, c:].any(axis=0)
        step = int(live.argmax())
        if not live[step]:
            break
        c += step
        p = r + int(m[r:, c].astype(bool).argmax())
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, q) % q
        col = m[:, c].copy()
        col[r] = 0
        m[:, c:] = (m[:, c:] - col[:, None] * m[r, c:]) % q
        pivots.append(c)
        r += 1
        c += 1
    return m[:r], tuple(pivots)


def rref(a: np.ndarray, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of ``a`` mod q and its pivot columns.

    Rows are taken ``ROW_BLOCK`` at a time.  Each block is reduced against
    the pivot rows found so far by one ``matmul``, the rest of it by the
    column loop, and its new pivot rows then clear their columns in the
    earlier pivot rows by one more ``matmul``.  So a tall matrix of low rank
    costs products, not a loop step per pivot over all of its rows.  The
    reduced row echelon form of a row space is unique, so the order in which
    rows are taken does not change the result.
    """
    m = np.array(a, dtype=np.int64) % q
    red, pivots = _rref_rows(m[:ROW_BLOCK], q)
    for lo in range(ROW_BLOCK, m.shape[0], ROW_BLOCK):
        if len(pivots) == m.shape[1]:
            break
        blk = m[lo:lo + ROW_BLOCK]
        blk = (blk - matmul(blk[:, list(pivots)], red, q)) % q
        new, new_pivots = _rref_rows(blk, q)
        if not new_pivots:
            continue
        red = (red - matmul(red[:, list(new_pivots)], new, q)) % q
        merged = pivots + new_pivots
        red = np.vstack([red, new])[np.argsort(merged)]
        pivots = tuple(sorted(merged))
    return red, pivots


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
