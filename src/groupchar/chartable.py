"""Exact irreducible character tables of finite groups.

The table is computed by the classical class-matrix method: the structure
constants a_ijk of the class sums give commuting integer matrices whose
simultaneous eigenvectors over a suitable prime field F_q are the central
characters.  Each class matrix refines the current common eigenspaces
(Schneider 1990): on a space of dimension d the restricted matrix A, built
from the pivot rows of the class matrix only, gives the minimal polynomial
mu of a fixed start vector x from its Krylov sequence x, A x, A^2 x, ...
reduced mod q, and one vectorised Horner pass over F_q finds its roots.
When mu has r = deg mu distinct roots lambda_j, the eigenspaces are the
images p_j(A) X with p_j = mu / (t - lambda_j), where X is x alone if
r = d and the identity otherwise; they are built from the powers A^m X by
exact products mod q (``modular.matmul``, float64 below 2**53) and accepted
once A p_j(A) X = lambda_j p_j(A) X for every j.  Otherwise (a repeated
root, a root outside F_q, or a start vector inside a proper invariant
subspace, which misses eigenvalues) each candidate root, and then each
remaining value of F_q, pays for a nullspace.

Degrees are recovered from the second orthogonality relation inside F_q,
and values are lifted exactly into Q(zeta_e) (e = exponent of the group)
by extracting, for each class, the multiplicity of each e-th root of unity
among the eigenvalues of a representing matrix:

    m_k = e^-1 * sum_s theta(g^s) z^(-s k)   in F_q,

with z a fixed element of multiplicative order e in F_q.  Since q exceeds
twice the square root of |G|, the m_k are determined by their residues and
the recovered values are exact.  For one character this is a single
integer matrix product over all classes at once,

    M = theta[P] @ Z * e^-1  (mod q),   values = M @ W,

where P[j, s] is the class of g_j^s (the k x e power map),
Z[s, k] = z^(-s k) mod q, and row k of W holds the power-basis coefficients
of zeta^k.

A ``Character`` holds exactly these coefficients, one read-only int64 array
of shape (classes, phi(e)); the operations below are row gathers on it and
products with ``embedding(e, e2)``.  No code path of the package makes a
``Cyclotomic`` per table entry: the CLI renders each distinct row of a
table once, a reported witness converts its one value (``Character.value``),
and ``Character.values`` (one scalar per class) is a view for library
callers and tests.  An irreducible is identified by its row:
``CharacterTable.row_of`` looks a character up by its degree and the bytes
of its coefficients, so claims about sets of irreducibles compare sets of
row indices.

Abelian groups skip the split and the lift.  Their irreducibles are the
homomorphisms to the e-th roots of unity, built by cyclic extension along
the generators as exponents of zeta_e in exact integer arithmetic mod e
(``_abelian_exponents``) and checked to be |G| distinct multiplicative
rows.  ``field_prime`` is still reported for them, for a stable schema, but
no arithmetic mod q runs.

Inner products use the same integer coefficients.  With A[c, i] and
B[c, j] the power-basis coefficients of chi and psi on class c,

    sum_c |C_c| chi(c) conj(psi(c)) = sum_{i,j} G[i, j] zeta^(i - j),
    G = A^T diag(|C|) B,

so G is folded onto the exponents (i - j) mod e and reduced through W; the
result must be rational.  These sums run in int64 when an a-priori bound
on every partial sum is below 2**62 (``_pairing_dtype``), else in Python
integers.  The only floats are inside ``modular.matmul``, for the products
mod q of the split and the lift, and only where every partial sum is an
integer below 2**53, so they are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import modular
from .cyclotomic import Cyclotomic, _zeta_powers, embedding, euler_phi
from .errors import ConsistencyError, InputError, ResourceError
from .groups import (ConjugacyClasses, Group, QuotientMap, Subgroup, quotient,
                     right_coset_minima)
from .modular import is_prime, prime_factors

PRIME_BOUND = 10_000_000


@dataclass(frozen=True, eq=False)
class Character:
    """A class function on a group with values in Q(zeta_conductor).

    ``coeffs[c]`` holds the power-basis coefficients of the value on class
    ``c`` of ``group``, in a private read-only int64 array of shape
    (classes, phi(conductor)); character values are algebraic integers.  For
    genuine characters the value on class 0 equals ``degree``.
    ``irreducible`` says whether the character is irreducible; ``None``
    leaves it to ``is_irreducible``, which then pairs the character with
    itself on first read.
    """

    group: Group
    degree: int
    conductor: int
    coeffs: np.ndarray
    irreducible: bool | None = None

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        shape = (len(self.group.conjugacy_classes()), euler_phi(self.conductor))
        # objects are checked one by one: the int64 cast truncates a Fraction
        integral = arr.dtype.kind in "iu" or (
            arr.dtype == object and all(c == int(c) for c in arr.flat))
        if arr.shape != shape or not integral:
            raise InputError(f"character values need an integer array of shape {shape}")
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @cached_property
    def is_irreducible(self) -> bool:
        if self.irreducible is not None:
            return self.irreducible
        return inner_product(self, self) == 1

    @cached_property
    def values(self) -> tuple[Cyclotomic, ...]:
        """The value on each class as a ``Cyclotomic`` scalar."""
        return tuple(self.value(c) for c in range(len(self.coeffs)))

    def value(self, c: int) -> Cyclotomic:
        """The value on class ``c`` as a ``Cyclotomic`` scalar."""
        return Cyclotomic(self.conductor, self.coeffs[c].tolist())

    def value_at(self, element: int) -> Cyclotomic:
        return self.values[self.group.conjugacy_classes().class_of[element]]

    def at(self, e: int) -> np.ndarray:
        """The coefficient array at conductor ``e``, a multiple of ours."""
        if e == self.conductor:
            return self.coeffs
        return self.coeffs @ embedding(self.conductor, e)

    def __repr__(self) -> str:
        return f"Character(degree={self.degree} on {self.group.name})"


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """All irreducible characters of a group, rows in a canonical order.

    Rows are sorted by degree, then lexicographically by the concatenated
    coefficient vectors of their values, so the table is independent of the
    eigenspace splitting order.
    """

    group: Group
    classes: ConjugacyClasses
    irreducibles: tuple[Character, ...]
    exponent: int
    field_prime: int
    inverse_class: tuple[int, ...]
    power_map: tuple[tuple[int, ...], ...]
    _rows: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.irreducibles)

    def row_of(self, chi: Character) -> int | None:
        """Index of the irreducible with the degree and values of ``chi``, or
        None.  Values meet at lcm(exponent, chi.conductor), since a deflated
        character keeps the conductor of the larger group."""
        if chi.group is not self.group:
            raise InputError("character does not live on the table's group")
        e = math.lcm(self.exponent, chi.conductor)
        if e not in self._rows:
            self._rows[e] = {(ch.degree, ch.at(e).tobytes()): i
                             for i, ch in enumerate(self.irreducibles)}
        return self._rows[e].get((chi.degree, chi.at(e).tobytes()))

    def linear(self) -> tuple[Character, ...]:
        return tuple(ch for ch in self.irreducibles if ch.degree == 1)

    def nonlinear(self) -> tuple[Character, ...]:
        return tuple(ch for ch in self.irreducibles if ch.degree > 1)


# ---------------------------------------------------------------------------
# primes and roots of unity in F_q

def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime q = 1 (mod exponent) with q > 2*sqrt(order)."""
    floor_limit = math.isqrt(4 * order)  # q must exceed 2*sqrt(order)
    q = exponent + 1
    while q <= floor_limit or not is_prime(q):
        q += exponent
        if q > PRIME_BOUND:
            raise ResourceError(f"no usable prime below {PRIME_BOUND}")
    return q


def _element_of_order(e: int, q: int) -> int:
    """Smallest-seeded element of multiplicative order exactly e in F_q."""
    if e == 1:
        return 1
    prime_parts = prime_factors(e)
    for c in range(2, q):
        z = pow(c, (q - 1) // e, q)
        if z != 1 and all(pow(z, e // pp, q) != 1 for pp in prime_parts):
            return z
    raise ConsistencyError("no element of the required order in F_q")


# ---------------------------------------------------------------------------
# class matrices and eigenspace splitting

def class_matrix(g: Group, classes: ConjugacyClasses, i: int) -> np.ndarray:
    """Matrix M_i with M_i[j, t] = a_ijt, the number of ways z_t = x*y with
    x in class i and y in class j."""
    k = len(classes)
    class_of = np.array(classes.class_of)
    x_inv = g.inverse[list(classes.members[i])]
    cells = class_of[g.table[np.ix_(x_inv, classes.reps)]] * k + np.arange(k)
    return np.bincount(cells.ravel(), minlength=k * k).reshape(k, k)


def _minimal_polynomial(a: np.ndarray, x: np.ndarray, q: int) -> list[int]:
    """Monic minimal polynomial of ``x`` under ``a`` mod q, coefficients
    in ascending order.

    The Krylov vectors x, a x, a^2 x, ... are reduced one at a time against
    the earlier ones, each row carrying its combination of powers of ``a``;
    the first power that reduces to zero gives the polynomial.  Entries stay
    in [0, q), so each int64 sum of d products is exact for d < 2**63 / q**2.
    """
    d = a.shape[0]
    basis = np.zeros((0, 2 * d + 1), dtype=np.int64)  # [vector | polynomial]
    pivots: list[int] = []
    v = x % q
    for m in range(d + 1):
        row = np.zeros(2 * d + 1, dtype=np.int64)
        row[:d] = v
        row[d + m] = 1  # this row is a^m x
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


def _roots_mod(poly: list[int], q: int) -> list[int]:
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


def _spectral_images(a: np.ndarray, mu: list[int], roots: list[int],
                     q: int) -> list[np.ndarray] | None:
    """The eigenspaces of ``a`` from the minimal polynomial ``mu`` of the
    start vector e_0, or None when this route does not apply.

    With r = deg mu distinct roots lambda_j and p_j = mu / (t - lambda_j),
    the images U_j = p_j(a) X are built from the powers a^m X, m < r, one
    product per power, where X is e_0 alone when r = d (e_0 is cyclic) and
    the identity otherwise.  They are accepted only if a U_j = lambda_j U_j
    for every j.  For X = I that says mu(a) = 0, so a is diagonalisable with
    exactly the eigenvalues lambda_j and U_j spans the lambda_j-eigenspace;
    for X = e_0 each U_j is the one nonzero eigenvector of lambda_j.  Each
    image is returned as the rows U_j^T, in ascending order of lambda_j.
    Apart from the r * d * |X| entries of the images, every temporary holds
    at most d * d entries.
    """
    d, r = a.shape[0], len(mu) - 1
    if len(roots) != r:
        return None  # a repeated root, or one outside F_q
    lams = np.array(roots, dtype=np.int64)
    # coef[j, m]: the t^m coefficient of p_j, by synthetic division
    coef = np.zeros((r, r), dtype=np.int64)
    coef[:, r - 1] = 1
    for m in range(r - 1, 0, -1):
        coef[:, m - 1] = (mu[m] + lams * coef[:, m]) % q
    y = np.eye(d, dtype=np.int64)[:1 if r == d else d]  # rows: (a^m X)^T
    width, at = len(y), a.T
    # Images are handled d // width at a time, so each temporary holds at
    # most d * d entries: all r of them for X = e_0, one for X = I.
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
            return None
    return list(images)


def _nullspace_pieces(a: np.ndarray, candidates: list[int],
                      q: int) -> list[np.ndarray]:
    """The eigenspaces of ``a`` by one ``nullspace`` per eigenvalue, in
    ascending order of the eigenvalue.

    ``candidates`` are tried first; if their eigenspaces do not fill the
    space, the remaining values of F_q are scanned in ascending order.
    """
    d = a.shape[0]
    eye = np.eye(d, dtype=np.int64)
    pieces = {}
    found = 0
    for lam in candidates:
        ns = modular.nullspace((a - lam * eye) % q, q)
        if ns.shape[0]:
            pieces[lam] = ns
            found += ns.shape[0]
    if found < d:
        tried = set(candidates)
        for lam in range(q):
            if lam in tried:
                continue
            ns = modular.nullspace((a - lam * eye) % q, q)
            if ns.shape[0]:
                pieces[lam] = ns
                found += ns.shape[0]
                if found == d:
                    break
    if found != d:
        raise ConsistencyError("class matrix not diagonalisable over F_q")
    return [pieces[lam] for lam in sorted(pieces)]


def _split_spaces(spaces, matrix, q):
    """Refine a list of (rows, pivots) common eigenspaces under one matrix.

    On each space the matrix restricted to it, built from its pivot rows
    only, gives the minimal polynomial of a fixed start vector.  The
    eigenspaces come from ``_spectral_images`` when it applies, else from
    ``_nullspace_pieces``.  Pieces come out in ascending order of their
    eigenvalue, each in reduced row echelon form.
    """
    out = []
    for rows, pivots in spaces:
        d = rows.shape[0]
        if d == 1:
            out.append((rows, pivots))
            continue
        restricted = modular.matmul(matrix[list(pivots)] % q, rows.T, q)
        # The first basis vector: on the whole space it is the identity
        # class, whose component along every eigenvector is chi(1)^2/|G|.
        start = np.zeros(d, dtype=np.int64)
        start[0] = 1
        mu = _minimal_polynomial(restricted, start, q)
        roots = _roots_mod(mu, q)
        pieces = _spectral_images(restricted, mu, roots, q)
        if pieces is None:
            pieces = _nullspace_pieces(restricted, roots, q)
        if len(pieces) == 1:
            out.append((rows, pivots))
            continue
        reds = [modular.rref(piece, q) for piece in pieces]
        # rref(P) @ rows is already the reduced row echelon form of
        # P @ rows, with pivot columns pivots[c] for the pivots c of rref(P),
        # since rows is reduced with the identity at its pivot columns.
        full = modular.matmul(np.vstack([red for red, _ in reds]), rows, q)
        lo = 0
        for red, cols in reds:
            out.append((full[lo:lo + len(red)], tuple(pivots[c] for c in cols)))
            lo += len(red)
    return out


def _root_multiplicities(theta_pm: np.ndarray, zmat: np.ndarray, inv_e: int,
                         q: int) -> np.ndarray:
    """Residues ``e^-1 * theta_pm @ zmat mod q`` of shape (classes, e).

    Row j of ``theta_pm`` is theta along the powers g_j^s and ``zmat[s, kk]``
    is z^(-s kk); entries of both lie in [0, q), so ``modular.matmul`` gives
    the exact product.
    """
    return modular.matmul(theta_pm, zmat, q) * inv_e % q


def _power_map(g: Group, classes: ConjugacyClasses, e: int) -> tuple[tuple[int, ...], ...]:
    """``pm[c][s]`` is the class of rep_c^s, for s = 0..e-1."""
    reps = np.array(classes.reps, dtype=np.intp)
    powers = np.zeros((e, reps.size), dtype=np.intp)
    for s in range(1, e):
        powers[s] = g.table[powers[s - 1], reps]
    return tuple(map(tuple, np.array(classes.class_of)[powers.T].tolist()))


# ---------------------------------------------------------------------------
# the table itself

def character_table(g: Group, *,
                    split_order: Sequence[int] | None = None) -> CharacterTable:
    """Exact character table of ``g``.

    Abelian groups are built directly by cyclic extension
    (``_abelian_table``); every other group goes through the Dixon split.
    ``split_order`` overrides the order in which class matrices are used to
    refine the common eigenspaces (the resulting table is identical, as rows
    are sorted canonically); an abelian table splits nothing and ignores it.
    """
    if g.is_abelian():
        return _abelian_table(g)
    return _dixon_table(g, split_order)


def _inverse_class(g: Group, classes: ConjugacyClasses) -> tuple[int, ...]:
    return tuple(classes.class_of[g.inv(r)] for r in classes.reps)


def _finish(g: Group, classes: ConjugacyClasses, chars: list, q: int,
            inverse_class, pm) -> CharacterTable:
    """Sort the rows canonically and check the sum of squared degrees."""
    # Big-endian with the sign bit flipped, the bytes of a row compare as one
    # void in the order of its integers, of which the first is the degree
    # (the value on the identity class).
    raw = np.array([ch.coeffs.ravel() for ch in chars], dtype=">i8").view(">u8")
    raw ^= np.uint64(1 << 63)
    order = np.argsort(raw.view(f"V{raw.shape[1] * 8}").ravel(), kind="stable")
    chars = [chars[i] for i in order]
    if sum(ch.degree ** 2 for ch in chars) != g.order:
        raise ConsistencyError("degrees fail the sum-of-squares identity")
    return CharacterTable(g, classes, tuple(chars), g.exponent, q, inverse_class, pm)


def _dixon_table(g: Group, split_order: Sequence[int] | None) -> CharacterTable:
    """The table by the class-matrix split over F_q and the value lift."""
    classes = g.conjugacy_classes()
    k = len(classes)
    e = g.exponent
    q = dixon_prime(g.order, e)
    eye = np.eye(k, dtype=np.int64)
    spaces = [(eye.copy(), tuple(range(k)))]

    order_list = list(split_order) if split_order is not None else list(range(1, k))
    for i in order_list:
        if not 0 <= i < k:
            raise InputError(f"split order entry {i} is not a class index")
        if all(rows.shape[0] == 1 for rows, _ in spaces):
            break
        spaces = _split_spaces(spaces, class_matrix(g, classes, i), q)
    if any(rows.shape[0] != 1 for rows, _ in spaces):
        raise ConsistencyError("class matrices failed to separate all characters")
    if len(spaces) != k:
        raise ConsistencyError("wrong number of one-dimensional eigenspaces")

    inverse_class = _inverse_class(g, classes)
    inv_sizes = [pow(len(m), -1, q) for m in classes.members]
    pm = _power_map(g, classes, e)
    pm_arr = np.array(pm, dtype=np.int64)
    z = _element_of_order(e, q)
    zpow = np.array([pow(z, j, q) for j in range(e)], dtype=np.int64)
    exps = np.arange(e)
    zmat = zpow[np.outer(exps, -exps) % e]
    inv_e = pow(e, -1, q)
    zeta_rows = np.array(_zeta_powers(e), dtype=np.int64)
    max_degree = math.isqrt(g.order)

    chars = []
    for rows, _ in spaces:
        v = [int(c) for c in rows[0]]
        if v[0] == 0:
            raise ConsistencyError("eigenvector vanishes on the identity class")
        scale = pow(v[0], -1, q)
        omega = [c * scale % q for c in v]
        dot = sum(omega[t] * omega[inverse_class[t]] * inv_sizes[t] for t in range(k)) % q
        dsq = g.order * pow(dot, -1, q) % q
        degree = next((d for d in range(1, max_degree + 1) if d * d % q == dsq), None)
        if degree is None:
            raise ConsistencyError("no integer degree matches the squared residue")
        theta = np.array([degree * omega[t] * inv_sizes[t] % q for t in range(k)],
                         dtype=np.int64)
        mults = _root_multiplicities(theta[pm_arr], zmat, inv_e, q)
        if np.any(mults.sum(axis=1) != degree):
            raise ConsistencyError("root-of-unity multiplicities do not sum "
                                   "to the degree")
        coeffs = mults @ zeta_rows
        if not _rational_rows(coeffs[:1], degree)[0]:
            raise ConsistencyError("identity value differs from the degree")
        chars.append(Character(g, degree, e, coeffs, True))
    return _finish(g, classes, chars, q, inverse_class, pm)


def _abelian_exponents(g: Group) -> np.ndarray:
    """Irr(g) of an abelian group as exponents mod e: ``f[c, x]`` with
    lambda_c(x) = zeta_e^f[c, x], one row per character, one column per
    element.

    Cyclic extension (Isaacs, Ch. 2): along A_{i+1} = A_i <x>, with m the
    order of x modulo A_i, each lambda of A_i extends in exactly m ways,
    lambda(a x^j) = lambda(a) + j b where m b = lambda(x^m) (mod e).  Since
    m divides the order of x, which divides e, the solutions are
    b = lambda(x^m)/m + s e/m for s = 0..m-1.  Exponents stay below
    e <= ORDER_CAP, so sums of two fit ``uint16``.
    """
    n, e, t = g.order, g.exponent, g.table
    f = np.zeros((n, n), dtype=np.uint16)  # rows [0, r) are Irr(A_i)
    cols = np.zeros(1, dtype=np.intp)  # the members of A_i
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    r = 1
    for x in g._distinct_generators():
        powers = [0]  # x^j for j < m
        p = int(x)
        while not inside[p]:
            powers.append(p)
            p = int(t[p, x])
        m = len(powers)
        if m == 1:
            continue
        old = f[:r][:, cols]
        at_xm = f[:r, p].astype(np.int64)  # lambda(x^m)
        if np.any(at_xm % m):
            raise ConsistencyError("lambda(x^m) has no m-th root mod e")
        # b[s, c]: the s-th solution for character c; new row s*r + c
        b = (at_xm // m + (e // m) * np.arange(m)[:, None]) % e
        for j, xj in enumerate(powers):
            step = (j * b % e).astype(np.uint16)[:, :, None]
            f[:m * r, t[xj, cols]] = ((old + step) % e).reshape(m * r, -1)
        cols = t[np.ix_(powers, cols)].ravel().astype(np.intp)
        inside[cols] = True
        r *= m
    if r != n or not inside.all():
        raise ConsistencyError("the generators do not reach the whole group")
    return f


def _check_abelian(g: Group, f: np.ndarray) -> None:
    """Each row of ``f`` must be a homomorphism g -> Z/e, and the rows must
    be |g| distinct ones.

    Multiplicativity is checked on each generator against the whole Cayley
    table, in blocks of rows.  A homomorphism is fixed by its values on the
    generators, so distinct rows are rows distinct there.
    """
    n, e, t = g.order, g.exponent, g.table
    gens = g._distinct_generators()
    if f.shape != (n, n):
        raise ConsistencyError("wrong number of linear characters")
    step = max(1, 2 ** 22 // n)
    for lo in range(0, n, step):
        blk = f[lo:lo + step]
        for x in gens:
            if not np.array_equal(blk[:, t[x]], (blk[:, [x]] + blk) % e):
                raise ConsistencyError("a linear character is not multiplicative")
    keys = f[:, gens]
    if gens.size:
        keys = keys[np.lexsort(keys.T)]  # equal rows become neighbours
    if (keys[1:] == keys[:-1]).all(axis=1).any():
        raise ConsistencyError("linear characters are not pairwise distinct")


def _abelian_table(g: Group) -> CharacterTable:
    """The table of an abelian group by cyclic extension; no prime field,
    class matrix or nullspace is used.  ``field_prime`` is still the Dixon
    prime, so the report is the same and an order with no usable prime
    still exits 3."""
    classes = g.conjugacy_classes()
    e = g.exponent
    q = dixon_prime(g.order, e)
    f = _abelian_exponents(g)
    _check_abelian(g, f)
    zeta_rows = np.array(_zeta_powers(e), dtype=np.int64)
    reps = list(classes.reps)
    chars = [Character(g, 1, e, zeta_rows[row[reps]], True) for row in f]
    return _finish(g, classes, chars, q, _inverse_class(g, classes),
                   _power_map(g, classes, e))


# ---------------------------------------------------------------------------
# operations on characters

def _rational_rows(coeffs: np.ndarray, r: int) -> np.ndarray:
    """Mask of the rows of a coefficient array whose value is the rational r."""
    return (coeffs[:, 0] == r) & ~coeffs[:, 1:].any(axis=1)


def _pairing_dtype(a: np.ndarray, b: np.ndarray, order: int, e: int,
                   w_max: int):
    """The carrier of a pairing of coefficient arrays ``a`` and ``b``:
    ``np.int64`` when the a-priori bound

        B = max|a| * max|b| * |G| * phi * e * max|W|

    on every partial sum is below 2**62, else ``object`` (Python ints).
    A Gram entry is at most max|a| * max|b| * |G|, since the class sizes
    sum to |G|, and each total adds phi**2 <= phi * e Gram entries, each
    times a coefficient of a power of zeta, at most max|W|."""
    a_max = max(int(a.max()), -int(a.min()))
    b_max = max(int(b.max()), -int(b.min()))
    bound = a_max * b_max * order * a.shape[1] * e * w_max
    return np.int64 if bound < 2 ** 62 else object


def _pairings(chi: Character, others: Sequence[Character]) -> list[Fraction]:
    """<chi, psi> for every psi in ``others``, in one integer matrix product
    over int64 when ``_pairing_dtype`` allows it, else over Python ints."""
    g = chi.group
    e = math.lcm(chi.conductor, *(psi.conductor for psi in others))
    a = chi.at(e)
    k, phi = a.shape
    b = np.stack([psi.at(e) for psi in others], axis=1).reshape(k, -1)
    w = np.array(_zeta_powers(e), dtype=np.int64)
    dtype = _pairing_dtype(a, b, g.order, e, int(np.abs(w).max()))
    sizes = np.array(g.conjugacy_classes().sizes, dtype=dtype)
    gram = (a.T.astype(dtype, copy=False) * sizes) @ b.astype(dtype, copy=False)
    gram = gram.reshape(phi, len(others), phi).transpose(1, 0, 2)
    folded = np.zeros((len(others), e), dtype=dtype)
    idx = (np.arange(phi)[:, None] - np.arange(phi)) % e
    np.add.at(folded, (slice(None), idx), gram)
    totals = folded @ w.astype(dtype, copy=False)
    if np.any(totals[:, 1:] != 0):
        raise ConsistencyError("inner product of characters must be rational")
    return [Fraction(t, g.order) for t in totals[:, 0].tolist()]


def inner_product(chi: Character, psi: Character) -> Fraction:
    """Standard inner product <chi, psi>; always rational for characters."""
    if chi.group is not psi.group:
        raise InputError("characters live on different groups")
    return _pairings(chi, [psi])[0]


def decompose(chi: Character, table: CharacterTable) -> tuple[int, ...]:
    """Multiplicities of ``chi`` against the irreducibles of ``table``."""
    if chi.group is not table.group:
        raise InputError("character does not live on the table's group")
    mults = _pairings(chi, table.irreducibles)
    if any(m.denominator != 1 or m < 0 for m in mults):
        raise InputError("class function is not a genuine character")
    return tuple(int(m) for m in mults)


def _transversal(g: Group, h: Subgroup) -> list[int]:
    """Representatives t of the right cosets H t, ascending in first element."""
    return np.flatnonzero(right_coset_minima(h) == np.arange(g.order)).tolist()


def induce(lam: Character, h: Subgroup, g: Group) -> Character:
    """Induced class function lam^G(x) = sum over the transversal of lam(t x t^-1)."""
    if h.parent is not g:
        raise InputError("subgroup does not live in the target group")
    hg = h.as_group()
    if lam.group is not hg:
        raise InputError("character is not on the given subgroup")
    e = g.exponent
    reps = g.conjugacy_classes().reps
    k, kh = len(reps), lam.coeffs.shape[0]
    trans = np.array(_transversal(g, h), dtype=np.intp)
    # t x t^-1 for every t in the transversal (rows) and class rep x (columns)
    conj = g.table[g.table[np.ix_(trans, reps)], g.inverse[trans][:, None]]
    h_class = np.full(g.order, -1)  # class in H of each member, -1 outside
    h_class[list(h.members)] = hg.conjugacy_classes().class_of
    hc = h_class[conj]
    cells = (hc + kh * np.arange(k))[hc >= 0]
    counts = np.bincount(cells, minlength=k * kh).reshape(k, kh)
    coeffs = counts @ lam.at(e)
    degree = (g.order // h.order) * lam.degree
    if not _rational_rows(coeffs[:1], degree)[0]:
        raise ConsistencyError("induced degree mismatch")
    return Character(g, degree, e, coeffs)


def restrict(chi: Character, h: Subgroup) -> Character:
    """Restriction of ``chi`` to a subgroup, as a character of h.as_group()."""
    g = chi.group
    if h.parent is not g:
        raise InputError("subgroup does not live in the character's group")
    hg = h.as_group()
    g_class_of = g.conjugacy_classes().class_of
    coeffs = chi.coeffs[[g_class_of[h.to_parent(r)]
                         for r in hg.conjugacy_classes().reps]]
    return Character(hg, chi.degree, chi.conductor, coeffs)


def _classes_where(chi: Character, hit) -> Subgroup:
    """The union of the classes of ``chi.group`` whose entry of ``hit`` is true."""
    class_of = np.asarray(chi.group.conjugacy_classes().class_of)
    return Subgroup(chi.group, np.flatnonzero(np.asarray(hit)[class_of]))


def kernel(chi: Character) -> Subgroup:
    """Elements where the character value equals its degree."""
    return _classes_where(chi, _rational_rows(chi.coeffs, chi.degree))


@lru_cache(maxsize=None)
def _root_multiples(d: int, e: int) -> frozenset:
    """Coefficient vectors of d*eps for each root of unity eps in Q(zeta_e)."""
    return frozenset(tuple(s * d * c for c in row)
                     for row in _zeta_powers(e) for s in (1, -1))


def char_center(chi: Character) -> Subgroup:
    """Elements where the value has absolute value equal to the degree.

    For a character this means chi(g) = chi(1) * eps for a root of unity eps
    (Isaacs, Lemma 2.27), and eps = chi(g)/chi(1) lies in Q(zeta_e), whose
    roots of unity are the +-zeta^j.  So the test is a lookup.
    """
    roots = _root_multiples(chi.degree, chi.conductor)
    return _classes_where(chi, [tuple(row) in roots for row in chi.coeffs.tolist()])


def degree_set(table: CharacterTable) -> tuple[int, ...]:
    return tuple(sorted({ch.degree for ch in table.irreducibles}))


def lift(chibar: Character, qm: QuotientMap) -> Character:
    """Pull a character of G/N back to G along the projection."""
    if chibar.group is not qm.target:
        raise InputError("character is not on the quotient group")
    e = qm.source.exponent
    target_class_of = qm.target.conjugacy_classes().class_of
    coeffs = chibar.at(e)[[target_class_of[qm.projection[rep]]
                           for rep in qm.source.conjugacy_classes().reps]]
    return Character(qm.source, chibar.degree, e, coeffs, chibar.irreducible)


def deflate(chi: Character, n_or_qm: Subgroup | QuotientMap) -> Character | None:
    """View ``chi`` as a character of G/N; None unless N is inside the kernel."""
    if isinstance(n_or_qm, QuotientMap):
        qm = n_or_qm
    else:
        qm = quotient(n_or_qm.parent, n_or_qm)
    if chi.group is not qm.source:
        raise InputError("character does not live on the quotient's source")
    if not kernel(chi).contains_set(qm.kernel):
        return None
    source_class_of = qm.source.conjugacy_classes().class_of
    coeffs = chi.coeffs[[source_class_of[qm.section[rep]]
                         for rep in qm.target.conjugacy_classes().reps]]
    return Character(qm.target, chi.degree, chi.conductor, coeffs, chi.irreducible)

