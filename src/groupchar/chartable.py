"""Exact irreducible character tables of finite groups.

The table is computed by the classical class-matrix method: the structure
constants a_ijk of the class sums give commuting integer matrices whose
simultaneous eigenvectors over a suitable prime field F_q are the central
characters.  Each class matrix refines the current common eigenspaces
(Schneider 1990): on a space of dimension d the restricted matrix A, built
from the pivot rows of the class matrix only, gives the minimal polynomial
mu of the space's start vector x from its Krylov sequence x, A x, A^2 x,
... reduced mod q, and one vectorised Horner pass over F_q finds its roots.
The whole space starts at the identity class, e_0 = sum_chi (chi(1)^2/|G|)
omega_chi by the second orthogonality relation, and a piece of it starts at
the image p_j(A) x of its parent's start, so x is always a nonzero multiple
of e_0's projection onto its space: a combination of the central
characters omega_chi in the space with no coefficient zero mod q, as q does
not divide |G|.  Hence mu is the minimal polynomial of A itself, and its
roots are distinct and lie in F_q, a splitting field since q = 1 mod e.
With r = deg mu roots lambda_j, the eigenspaces are the images p_j(A) X
with p_j = mu / (t - lambda_j), where X is x alone if r = d and the
identity otherwise; they are built from the powers A^m X by exact products
mod q (``modular.matmul``, float64 below 2**53) and accepted once
A p_j(A) X = lambda_j p_j(A) X for every j.  A repeated root, a root
outside F_q or a failed check is a ``ConsistencyError``.

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
``CharacterTable.row_of`` looks a character up by its degree and a digest
of its coefficients, confirmed against the row itself, so claims about sets
of irreducibles compare sets of row indices.

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
result must be rational.  The operations come in batches over whole
tables, and each single-character function is a batch of one:
``decompose_batch`` pairs m class functions side by side with B, the
coefficients of all irreducibles, which the table stacks once per
conductor (``CharacterTable.operand``); ``induce_batch`` induces m
characters of a subgroup through one k x k_H matrix of conjugation counts;
``weighted_norms`` takes one weighted Gram block per character and weight
row; ``lift_batch`` pulls characters of G/N back by one class-index gather.

Every exact integer product, here and in ``modular``, runs in the carrier
that ``modular.carrier`` gives for an a-priori bound on its partial sums:
float64 (BLAS) below 2**53, where every such integer is a float and the
product is exact in any summation order, int64 below 2**62, Python
integers above.  Float64 results are cast back to int64 before anything
reads them, so no float reaches a table entry, an inner product or a
verdict.
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
    _operands: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.irreducibles)

    def row_of(self, chi: Character) -> int | None:
        """Index of the irreducible with the degree and values of ``chi``, or
        None.  Values meet at lcm(exponent, chi.conductor), since a deflated
        character keeps the conductor of the larger group.

        Rows are keyed by their degree and a fixed-size digest of their
        coefficients; a key that matches is confirmed by comparing the
        coefficients, so a collision of digests cannot return a wrong row.
        """
        if chi.group is not self.group:
            raise InputError("character does not live on the table's group")
        return self.rows_of([chi.degree], chi.coeffs[None], chi.conductor)[0]

    def rows_of(self, degrees: Sequence[int], coeffs: np.ndarray,
                e: int) -> list[int | None]:
        """``row_of`` for m class functions of the table's group, given by
        their degrees and their coefficients at conductor ``e`` in an array
        of shape (m, classes, phi(e))."""
        e2 = math.lcm(self.exponent, e)
        if e2 != e:
            coeffs = coeffs @ embedding(e, e2)
        if e2 not in self._rows:
            rows: dict[tuple, list[int]] = {}
            for i, ch in enumerate(self.irreducibles):
                rows.setdefault((ch.degree, _digest(ch.at(e2))), []).append(i)
            self._rows[e2] = rows
        keys = self._rows[e2]
        return [next((i for i in keys.get((d, _digest(values)), ())
                      if np.array_equal(self.irreducibles[i].at(e2), values)), None)
                for d, values in zip(degrees, coeffs)]

    def operand(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of every irreducible at conductor ``e`` (a
        multiple of every row's conductor) side by side, an int64 array of
        shape (classes, len(self) * phi(e)), with its largest and smallest
        entry: the operand of ``decompose``, stacked once per conductor."""
        if e not in self._operands:
            self._operands[e] = _stacked(self.irreducibles, e)
        return self._operands[e]

    def linear(self) -> tuple[Character, ...]:
        return tuple(ch for ch in self.irreducibles if ch.degree == 1)

    def nonlinear(self) -> tuple[Character, ...]:
        return tuple(ch for ch in self.irreducibles if ch.degree > 1)


def _digest(values: np.ndarray) -> int:
    """A 64-bit digest of a coefficient array, the key of ``row_of``: the
    built-in hash of its bytes, so the bytes themselves are not kept."""
    return hash(values.tobytes())


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
    class_of = classes.class_array
    x_inv = g.inverse[list(classes.members[i])]
    cells = class_of[g.table[np.ix_(x_inv, classes.reps)]] * k + np.arange(k)
    return np.bincount(cells.ravel(), minlength=k * k).reshape(k, k)


def _minimal_polynomial(a: np.ndarray, x: np.ndarray, q: int) -> list[int]:
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


def _split_spaces(spaces, matrix, q):
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
        if _is_scalar(restricted):
            out.append((rows, pivots, start))
            continue
        mu = _minimal_polynomial(restricted, start, q)
        images = _spectral_images(restricted, mu, _roots_mod(mu, q), start, q)
        if len(images) == d:
            starts = images[:, 0]
            reds = _leading_ones(starts, q)
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


def _is_scalar(a: np.ndarray) -> bool:
    """Whether the square matrix ``a`` is a multiple of the identity."""
    diag = np.diagonal(a)
    return bool((diag == diag[0]).all()
                and np.count_nonzero(a) == np.count_nonzero(diag))


def _leading_ones(rows: np.ndarray, q: int) -> list[tuple[np.ndarray, tuple[int]]]:
    """``modular.rref`` of each nonzero row on its own: the row times the
    inverse of its first nonzero entry, with that column as its pivot."""
    lead = (rows != 0).argmax(axis=1)
    inv = np.array([pow(int(c), -1, q) for c in rows[np.arange(len(rows)), lead]],
                   dtype=np.int64)
    scaled = rows * inv[:, None] % q
    return [(scaled[i:i + 1], (int(c),)) for i, c in enumerate(lead)]


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
    return tuple(map(tuple, classes.class_array[powers.T].tolist()))


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
    # the identity class e_0, the sum of the central idempotents
    spaces = [(eye.copy(), tuple(range(k)), eye[0])]

    order_list = list(split_order) if split_order is not None else list(range(1, k))
    for i in order_list:
        if not 0 <= i < k:
            raise InputError(f"split order entry {i} is not a class index")
        if all(rows.shape[0] == 1 for rows, *_ in spaces):
            break
        spaces = _split_spaces(spaces, class_matrix(g, classes, i), q)
    if any(rows.shape[0] != 1 for rows, *_ in spaces):
        raise ConsistencyError("class matrices failed to separate all characters")
    if len(spaces) != k:
        raise ConsistencyError("wrong number of one-dimensional eigenspaces")

    inverse_class = _inverse_class(g, classes)
    inv_sizes = np.array([pow(len(m), -1, q) for m in classes.members], dtype=np.int64)
    pm = _power_map(g, classes, e)
    pm_arr = np.array(pm, dtype=np.int64)
    z = _element_of_order(e, q)
    zpow = np.array([pow(z, j, q) for j in range(e)], dtype=np.int64)
    exps = np.arange(e)
    zmat = zpow[np.outer(exps, -exps) % e]
    inv_e = pow(e, -1, q)
    zeta_rows = np.array(_zeta_powers(e), dtype=np.int64)

    # Row i of omega is the i-th central character, scaled to 1 on the
    # identity class.  Every product below is of two residues, below 2**47,
    # and the k x k arrays are updated in place.
    omega = np.array([rows[0] for rows, *_ in spaces], dtype=np.int64)
    if not omega[:, 0].all():
        raise ConsistencyError("eigenvector vanishes on the identity class")
    omega *= np.array([[pow(int(c), -1, q)] for c in omega[:, 0]], dtype=np.int64)
    omega %= q
    dot = omega[:, list(inverse_class)]
    dot *= inv_sizes
    dot %= q
    dot *= omega
    dot %= q
    dot = dot.sum(axis=1) % q  # k sums of k residues
    dsq = np.array([g.order * pow(int(c), -1, q) % q for c in dot], dtype=np.int64)
    # the degree of row i is the smallest d <= sqrt|G| with d*d = dsq[i]
    squares = np.arange(1, math.isqrt(g.order) + 1, dtype=np.int64) ** 2 % q
    hits = squares == dsq[:, None]
    if not hits.any(axis=1).all():
        raise ConsistencyError("no integer degree matches the squared residue")
    degrees = hits.argmax(axis=1) + 1
    thetas = omega  # theta = degree * omega / |class|
    thetas *= degrees[:, None]
    thetas %= q
    thetas *= inv_sizes
    thetas %= q

    chars = []
    for degree, theta in zip(degrees.tolist(), thetas):
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


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


@lru_cache(maxsize=None)
def _zeta_matrix(e: int) -> tuple[np.ndarray, int]:
    """W, whose row k holds the power-basis coefficients of zeta_e^k, as a
    read-only int64 array, with its largest absolute entry."""
    w = np.array(_zeta_powers(e), dtype=np.int64)
    w.flags.writeable = False
    return w, _abs_max(w)


BLOCK = 2 ** 16  # entries of a batch temporary, 512 KB in float64


def _fold(gram: np.ndarray, e: int) -> np.ndarray:
    """The rational totals sum_{i,j} gram[x, i, y, j] zeta_e^(i - j) of
    integer Gram blocks of shape (m, phi, n, phi), as an (m, n) array.

    Each block is folded onto the exponents (i - j) mod e, one i at a time
    (for fixed i the j give distinct exponents, as phi <= e), and reduced
    through W, all in the Gram matrix's carrier: every partial sum is at
    most the bound that chose it.  ConsistencyError unless every total is
    rational; float64 totals come back as int64."""
    m, phi, n, _ = gram.shape
    w, _ = _zeta_matrix(e)
    folded = np.zeros((m, n, e), dtype=gram.dtype)
    cols = np.arange(phi)
    for i in range(phi):
        folded[:, :, (i - cols) % e] += gram[:, i]
    totals = folded @ w.astype(gram.dtype)
    if totals[:, :, 1:].any():
        raise ConsistencyError("inner product of characters must be rational")
    totals = totals[:, :, 0]
    return totals.astype(np.int64) if gram.dtype == np.float64 else totals


def _pairings(a: np.ndarray, b: np.ndarray, b_max: int, sizes: np.ndarray,
              e: int) -> np.ndarray:
    """|G| <chi_x, psi_y> for every pair of characters whose coefficients at
    conductor e sit side by side in ``a``, shape (classes, m * phi), and
    ``b``, shape (classes, n * phi), as an (m, n) integer array.  ``b_max``
    is at least the largest absolute entry of ``b``.

    The Gram matrix G = A^T diag(|C|) B runs over the classes where some
    chi_x is nonzero, the only ones that add to it, in the carrier that
    ``modular.carrier`` gives for the a-priori bound

        B = max|a| * max|b| * |G| * phi * e * max|W|

    on every partial sum: a Gram entry is at most max|a| * max|b| * |G|,
    since the class sizes sum to |G|, and each total adds phi**2 <= phi * e
    Gram entries, each times a coefficient of a power of zeta, at most
    max|W|.  The chi_x are taken in blocks, so a block of the Gram matrix
    holds about ``BLOCK`` entries."""
    phi = euler_phi(e)
    m, n = a.shape[1] // phi, b.shape[1] // phi
    live = a.any(axis=1)
    dtype = modular.carrier(_abs_max(a) * b_max * int(sizes.sum()) * phi * e
                            * _zeta_matrix(e)[1])
    weighted = a[live].T.astype(dtype) * sizes[live].astype(dtype)
    b = b[live].astype(dtype)
    step = max(1, BLOCK // (phi * b.shape[1]))
    return np.concatenate([
        _fold((weighted[lo * phi:(lo + step) * phi] @ b).reshape(-1, phi, n, phi), e)
        for lo in range(0, m, step)] or [np.zeros((0, n), dtype=np.int64)])


def _stacked(others: Sequence[Character], e: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of ``others`` at conductor ``e`` side by side, shape
    (classes, len(others) * phi(e)), with their largest and smallest entry."""
    b = np.stack([psi.at(e) for psi in others], axis=1)
    b = b.reshape(b.shape[0], -1)
    b.flags.writeable = False
    return b, np.array([b.max(), b.min()])


def _sizes(g: Group) -> np.ndarray:
    return np.array(g.conjugacy_classes().sizes, dtype=np.int64)


def inner_product(chi: Character, psi: Character) -> Fraction:
    """Standard inner product <chi, psi>; always rational for characters."""
    if chi.group is not psi.group:
        raise InputError("characters live on different groups")
    e = math.lcm(chi.conductor, psi.conductor)
    b = psi.at(e)
    total = _pairings(chi.at(e), b, _abs_max(b), _sizes(chi.group), e)
    return Fraction(int(total[0, 0]), chi.group.order)


def decompose_batch(coeffs: np.ndarray, e: int, table: CharacterTable) -> np.ndarray:
    """Multiplicities of m class functions of the table's group, given by
    their coefficients at conductor ``e`` in an array of shape
    (classes, m, phi(e)), against the irreducibles of ``table``: an (m, k)
    int64 array, from one Gram product with the table's cached ``operand``.
    InputError unless every multiplicity is a nonnegative integer."""
    e2 = math.lcm(e, *{psi.conductor for psi in table.irreducibles})
    if e2 != e:
        coeffs = coeffs @ embedding(e, e2)
    b, extremes = table.operand(e2)
    totals = _pairings(coeffs.reshape(len(coeffs), -1), b, _abs_max(extremes),
                       _sizes(table.group), e2)
    if (totals < 0).any() or (totals % table.group.order).any():
        raise InputError("class function is not a genuine character")
    return totals // table.group.order


def decompose(chi: Character, table: CharacterTable) -> tuple[int, ...]:
    """Multiplicities of ``chi`` against the irreducibles of ``table``, a
    batch of one for ``decompose_batch``."""
    if chi.group is not table.group:
        raise InputError("character does not live on the table's group")
    return tuple(decompose_batch(chi.coeffs[:, None], chi.conductor, table)[0].tolist())


def weighted_norms(coeffs: np.ndarray, weights: np.ndarray, e: int) -> np.ndarray:
    """sum_c weights[x, s, c] |chi_x(c)|^2 for the m class functions chi_x with
    coefficients ``coeffs[:, x]`` at conductor e (shape (classes, m, phi))
    and each of their s weight rows over the classes: an (m, s) array of
    integers, all of them rational totals or ConsistencyError.

    With class sizes as the weights this is |G| <chi, chi>; with the sizes
    of the classes inside a normal subgroup H and zero elsewhere it is
    |H| <chi_H, chi_H>.  One weighted Gram block per character and weight
    row, A_x^T diag(w) A_x, in the carrier ``_pairings`` uses, with the
    largest weight sum in place of |G|; characters are taken in blocks so
    no temporary holds more than a few times ``BLOCK`` entries."""
    classes, m, phi = coeffs.shape
    s = weights.shape[1]
    dtype = modular.carrier(_abs_max(coeffs) ** 2 * int(weights.sum(axis=2).max(initial=0))
                            * phi * e * _zeta_matrix(e)[1])
    out = []
    step = max(1, BLOCK // (s * phi * classes))
    for lo in range(0, m, step):
        a = coeffs[:, lo:lo + step].transpose(1, 2, 0).astype(dtype)  # [x, i, c]
        wa = weights[lo:lo + step, :, None, :] * a[:, None]  # [x, s, i, c]
        gram = wa.reshape(len(a), s * phi, classes) @ a.transpose(0, 2, 1)  # [x, (s, i), j]
        out.append(_fold(gram.reshape(-1, phi, 1, phi), e).reshape(-1, s))
    return np.concatenate(out or [np.zeros((0, s), dtype=np.int64)])


def _transversal(g: Group, h: Subgroup) -> list[int]:
    """Representatives t of the right cosets H t, ascending in first element."""
    return np.flatnonzero(right_coset_minima(h) == np.arange(g.order)).tolist()


def _induction_counts(h: Subgroup, g: Group) -> np.ndarray:
    """The k x k_H matrix whose entry [c, j] counts the transversal elements
    t with t x t^-1 in class j of H, for x the representative of class c of
    G: the induced values are this matrix times the values on H."""
    hg = h.as_group()
    reps = g.conjugacy_classes().reps
    k, kh = len(reps), len(hg.conjugacy_classes())
    trans = np.array(_transversal(g, h), dtype=np.intp)
    # t x t^-1 for every t in the transversal (rows) and class rep x (columns)
    conj = g.table[g.table[np.ix_(trans, reps)], g.inverse[trans][:, None]]
    h_class = np.full(g.order, -1)  # class in H of each member, -1 outside
    h_class[list(h.members)] = hg.conjugacy_classes().class_array
    hc = h_class[conj]
    cells = (hc + kh * np.arange(k))[hc >= 0]
    return np.bincount(cells, minlength=k * kh).reshape(k, kh)


def induce_batch(lams: Sequence[Character], h: Subgroup, g: Group) -> np.ndarray:
    """The induced class functions lam^G of characters of ``h.as_group()``,
    lam^G(x) = sum over the transversal of lam(t x t^-1), as coefficients at
    the exponent of ``g``, shape (classes of g, len(lams), phi): one
    induction-count matrix and one exact product for all of them.  Each
    value on the identity class must be [G:H] lam(1)."""
    if h.parent is not g:
        raise InputError("subgroup does not live in the target group")
    hg = h.as_group()
    if any(lam.group is not hg for lam in lams):
        raise InputError("character is not on the given subgroup")
    e = g.exponent
    phi = euler_phi(e)
    counts = _induction_counts(h, g)
    values = np.zeros((counts.shape[1], len(lams), phi), dtype=np.int64)
    for x, lam in enumerate(lams):
        values[:, x] = lam.at(e)
    # a row of counts sums to at most [G:H], so every partial sum is at
    # most [G:H] * max|values|
    dtype = modular.carrier(g.order // h.order * _abs_max(values))
    coeffs = counts.astype(dtype) @ values.reshape(len(values), -1).astype(dtype)
    coeffs = coeffs.astype(np.int64).reshape(len(counts), len(lams), phi)
    degrees = np.array([g.order // h.order * lam.degree for lam in lams], dtype=np.int64)
    if (coeffs[0, :, 0] != degrees).any() or coeffs[0, :, 1:].any():
        raise ConsistencyError("induced degree mismatch")
    return coeffs


def induce(lam: Character, h: Subgroup, g: Group) -> Character:
    """Induced class function lam^G, a batch of one for ``induce_batch``."""
    coeffs = induce_batch([lam], h, g)[:, 0]
    return Character(g, (g.order // h.order) * lam.degree, g.exponent, coeffs)


def restrict(chi: Character, h: Subgroup) -> Character:
    """Restriction of ``chi`` to a subgroup, as a character of h.as_group()."""
    g = chi.group
    if h.parent is not g:
        raise InputError("subgroup does not live in the character's group")
    hg = h.as_group()
    coeffs = chi.coeffs[g.conjugacy_classes().class_array[
        [h.to_parent(r) for r in hg.conjugacy_classes().reps]]]
    return Character(hg, chi.degree, chi.conductor, coeffs)


def _classes_where(chi: Character, hit) -> Subgroup:
    """The union of the classes of ``chi.group`` whose entry of ``hit`` is true."""
    class_of = chi.group.conjugacy_classes().class_array
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


def _lift_classes(qm: QuotientMap) -> np.ndarray:
    """The class of G/N holding the image of each class of G."""
    return qm.target.conjugacy_classes().class_array[
        [qm.projection[r] for r in qm.source.conjugacy_classes().reps]]


def lift_batch(chars: Sequence[Character], qm: QuotientMap) -> np.ndarray:
    """Characters of G/N pulled back to G: coefficients at the exponent of G,
    shape (len(chars), classes of G, phi), by one class-index gather."""
    if any(ch.group is not qm.target for ch in chars):
        raise InputError("character is not on the quotient group")
    e = qm.source.exponent
    stacked = np.stack([ch.at(e) for ch in chars])
    return stacked[:, _lift_classes(qm)]


def lift(chibar: Character, qm: QuotientMap) -> Character:
    """Pull a character of G/N back to G along the projection."""
    return Character(qm.source, chibar.degree, qm.source.exponent,
                     lift_batch([chibar], qm)[0], chibar.irreducible)


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
    classes = qm.source.conjugacy_classes().class_array[
        [qm.section[r] for r in qm.target.conjugacy_classes().reps]]
    return Character(qm.target, chi.degree, chi.conductor, chi.coeffs[classes],
                     chi.irreducible)
