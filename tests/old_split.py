"""The eigenspace split as ``chartable`` ran it before the lockstep split:
the reference the tests check the new split against.

Each piece was a subspace (rows, pivots, start) in reduced row echelon form.
A class matrix refined it through its restriction to the space, built from
the pivot rows only: the minimal polynomial of the start under it, the roots
of that polynomial by a Horner scan, the spectral images p_j(A) X of the
start (X = start when it is cyclic, the identity otherwise), checked to be
eigenspaces, and one ``rref`` per image.  The functions below are that code,
kept verbatim apart from their names, plus ``central_characters``, the
driver that ``_dixon_table`` was, and ``class_matrices``, the class matrices
in a chosen order for the lockstep split to run on in place of its default
sequence.
"""

from __future__ import annotations

import numpy as np

from groupchar import chartable, modular
from groupchar.errors import ConsistencyError


def central_characters(g, order=None) -> list[list[int]]:
    """The central characters of ``g`` mod the Dixon prime, scaled to 1 on
    the identity class and sorted: the whole space, starting at the
    identity class, refined by the class matrices in ``order`` (1 .. k-1 by
    default) until every space is one row."""
    classes = g.conjugacy_classes()
    k = len(classes)
    q = chartable.dixon_prime(g.order, g.exponent)
    eye = np.eye(k, dtype=np.int64)
    spaces = [(eye.copy(), tuple(range(k)), eye[0])]
    for i in order if order is not None else range(1, k):
        if all(rows.shape[0] == 1 for rows, *_ in spaces):
            break
        spaces = split_spaces(spaces, chartable.class_matrix(g, classes, i), q)
    if any(rows.shape[0] != 1 for rows, *_ in spaces):
        raise ConsistencyError("class matrices failed to separate all characters")
    omega = np.array([rows[0] for rows, *_ in spaces], dtype=np.int64)
    inv = np.array([pow(int(c), -1, q) for c in omega[:, 0]], dtype=np.int64)
    return sorted((omega * inv[:, None] % q).tolist())


def class_matrices(g, classes, q, order):
    """The class matrices M_i mod q for i in ``order``, built one at a time,
    a sequence of split matrices like ``chartable._split_matrices``."""
    return (chartable.class_matrix(g, classes, i) % q for i in order)


def minimal_polynomial(a: np.ndarray, x: np.ndarray, q: int) -> list[int]:
    """Monic minimal polynomial of ``x`` under ``a`` mod q, coefficients
    in ascending order.

    The Krylov vectors x, a x, a^2 x, ... are reduced one at a time against
    the earlier ones, each row carrying its combination of powers of ``a``;
    the first power that reduces to zero gives the polynomial.  The rows live
    in one preallocated (d, 2d+1) array and are reduced in place; at step m
    only the first d + m + 1 columns can be nonzero.  Entries stay in
    [0, q), so each int64 sum of d products is exact for d < 2**63 / q**2.
    """
    d = a.shape[0]
    basis = np.zeros((d, 2 * d + 1), dtype=np.int64)  # [vector | polynomial]
    pivots: list[int] = []
    v = x % q
    for m in range(d + 1):
        n, w = len(pivots), d + m + 1
        row = np.zeros(w, dtype=np.int64)
        row[:d] = v
        row[d + m] = 1  # this row is a^m x
        row = (row - row[pivots] @ basis[:n, :w]) % q
        nz = np.flatnonzero(row[:d])
        if nz.size == 0:
            return row[d:].tolist()
        p = int(nz[0])
        row = row * pow(int(row[p]), -1, q) % q
        done = basis[:n, :w]
        done -= np.outer(done[:, p], row)
        done %= q
        basis[n, :w] = row
        pivots.append(p)
        v = a @ v % q
    raise ConsistencyError("Krylov sequence failed to become dependent")


def roots_mod(poly: list[int], q: int) -> list[int]:
    """Roots in F_q of ``poly`` (ascending coefficients), by a vectorised
    Horner pass over chunks of 4096 values that stops once deg(poly) roots
    are found."""
    degree = len(poly) - 1
    roots: list[int] = []
    for lo in range(0, q, 4096):
        lams = np.arange(lo, min(lo + 4096, q), dtype=np.int64)
        acc = np.zeros_like(lams)
        for c in reversed(poly):
            acc = (acc * lams + c) % q
        roots.extend(int(r) for r in lams[acc == 0])
        if len(roots) >= degree:
            break
    return roots


def spectral_images(a: np.ndarray, mu: list[int], roots: list[int],
                     start: np.ndarray, q: int) -> np.ndarray:
    """The eigenspaces of ``a`` from the minimal polynomial ``mu`` of
    ``start``, as an (r, |X|, d) array: image j holds the rows U_j^T, in
    ascending order of lambda_j.

    With r = deg mu distinct roots lambda_j and p_j = mu / (t - lambda_j),
    the images U_j = p_j(a) X are built from the powers a^m X, m < r, one
    product per power, where X is ``start`` alone when r = d (it is cyclic)
    and the identity otherwise.  They are accepted only if a U_j = lambda_j
    U_j for every j.  For X = I that says mu(a) = 0, so a is diagonalisable
    with exactly the eigenvalues lambda_j and U_j spans the lambda_j
    eigenspace; for X = ``start`` each U_j is the one nonzero eigenvector of
    lambda_j.  A repeated root, a root outside F_q or a failed check raises
    ``ConsistencyError``.  Apart from the r * d * |X| entries of the images,
    every temporary holds at most d * d entries.
    """
    d, r = a.shape[0], len(mu) - 1
    if len(roots) != r:
        raise ConsistencyError("class matrix not diagonalisable over F_q")
    lams = np.array(roots, dtype=np.int64)
    # coef[j, m]: the t^m coefficient of p_j, by synthetic division
    coef = np.zeros((r, r), dtype=np.int64)
    coef[:, r - 1] = 1
    for m in range(r - 1, 0, -1):
        coef[:, m - 1] = (mu[m] + lams * coef[:, m]) % q
    y = start[None] % q if r == d else np.eye(d, dtype=np.int64)  # rows: (a^m X)^T
    width, at = len(y), a.T
    # Images are handled d // width at a time, so each temporary holds at
    # most d * d entries: all r of them for X = start, one for X = I.
    chunks = [slice(lo, lo + d // width) for lo in range(0, r, d // width)]
    # Unreduced sums of r products of residues: below r * q**2 < 2**63,
    # since r <= ORDER_CAP and q < PRIME_BOUND.
    images = np.zeros((r, width, d), dtype=np.int64)
    for m in range(r):
        if m:
            y = modular.matmul(y, at, q)
        for js in chunks:
            images[js] += coef[js, m, None, None] * y
    images %= q
    for js in chunks:
        u = images[js].reshape(-1, d)
        lam = np.repeat(lams[js], width)[:, None]
        if (modular.matmul(u, at, q) != lam * u % q).any():
            raise ConsistencyError("class matrix not diagonalisable over F_q")
    return images


def split_spaces(spaces, matrix, q):
    """Refine a list of (rows, pivots, start) common eigenspaces under one
    matrix.

    ``start`` holds the coordinates of a nonzero multiple of the identity
    class's projection onto the space, so the spectral images of its
    minimal polynomial are every eigenspace (see the module docstring);
    piece j starts at p_j(A) start.  A space on which the matrix restricted
    to it, built from its pivot rows only, is scalar is kept as it is.
    Pieces come out in ascending order of their eigenvalue, each in reduced
    row echelon form; when every piece is one row, that form is the row
    scaled to a leading 1, done for all of them in one step.
    """
    out = []
    for rows, pivots, start in spaces:
        d = rows.shape[0]
        if d == 1:
            out.append((rows, pivots, start))
            continue
        restricted = modular.matmul(matrix[list(pivots)] % q, rows.T, q)
        if is_scalar(restricted):
            out.append((rows, pivots, start))
            continue
        mu = minimal_polynomial(restricted, start, q)
        images = spectral_images(restricted, mu, roots_mod(mu, q), start, q)
        if len(images) == d:
            starts = images[:, 0]
            reds = leading_ones(starts, q)
        else:
            starts = start @ images % q  # p_j(A) start, sums below d * q**2
            reds = [modular.rref(u, q) for u in images]
        # rref(P) @ rows is already the reduced row echelon form of
        # P @ rows, with pivot columns pivots[c] for the pivots c of rref(P),
        # since rows is reduced with the identity at its pivot columns.  For
        # the same reason a vector's coordinates in a piece are its parent
        # coordinates at the piece's pivots c.
        full = modular.matmul(np.vstack([red for red, _ in reds]), rows, q)
        lo = 0
        for (red, cols), piece_start in zip(reds, starts):
            out.append((full[lo:lo + len(red)], tuple(pivots[c] for c in cols),
                        piece_start[list(cols)]))
            lo += len(red)
    return out


def is_scalar(a: np.ndarray) -> bool:
    """Whether the square matrix ``a`` is a multiple of the identity."""
    diag = np.diagonal(a)
    return bool((diag == diag[0]).all()
                and np.count_nonzero(a) == np.count_nonzero(diag))


def leading_ones(rows: np.ndarray, q: int) -> list[tuple[np.ndarray, tuple[int]]]:
    """``modular.rref`` of each nonzero row on its own: the row times the
    inverse of its first nonzero entry, with that column as its pivot."""
    lead = (rows != 0).argmax(axis=1)
    inv = np.array([pow(int(c), -1, q) for c in rows[np.arange(len(rows)), lead]],
                   dtype=np.int64)
    scaled = rows * inv[:, None] % q
    return [(scaled[i:i + 1], (int(c),)) for i, c in enumerate(lead)]
