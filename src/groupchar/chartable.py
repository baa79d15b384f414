"""Exact irreducible character tables of finite groups.

The table is computed by the class-matrix method: the structure constants
of the class sums give commuting integer matrices M_i whose common
eigenvectors over F_q, q = 1 mod e, are the central characters omega_chi
(Schneider 1990).  The split's pieces are single vectors in class
coordinates, starting at the identity class e_0 = sum_chi (chi(1)^2/|G|)
omega_chi; each stays a combination of the omega_chi in it with no
coefficient zero mod q, as q does not divide |G|.  A round takes one matrix
C and runs the Krylov sequences s, C s, C^2 s, ... of all pieces in
lockstep until each becomes dependent, giving the minimal polynomial mu of
s, with one simple root lambda_j in F_q per eigenvalue of C on the piece;
s becomes the p_j(C) s, p_j = mu / (t - lambda_j), its nonzero parts at
each lambda_j.  The first round, whose pieces are all e_0, takes one
transform over F_q^* instead when q - 1 <= max(k, 256): sum_{0<m<q} x^m is
-1 at x = 1 and 0 at any other x in F_q, so -sum_{0<m<q} lambda^-m C^m s
is the part of s at each lambda != 0, and s - C^(q-1) s the part at 0, the
p_j(C) s up to the nonzero scalars prod_{i != j} (lambda_j - lambda_i).
C^q s = C s certifies that mu divides t^q - t: distinct roots, all in F_q.
The matrices are a few class-sum combinations sum_i c_i M_i with fixed
coefficients, then M_1 ... M_{k-1}, which separate all central
characters, so the split always ends: at k pieces, one omega_chi each,
whatever the coefficients or the order.  A root outside F_q, a repeated
root or running out of matrices is a ``ConsistencyError``.

``character_tables`` splits groups in batches: all the non-abelian groups
it is given with the same class count k and the same prime q share one
split, whose rows each carry their group (the owner) and stay sorted by
it.  A round takes the next matrix of every group still short of k pieces;
a Krylov step makes one product per owner with live rows, and the
reduction, the roots and the new pieces are one pass over all of them.  A
group leaves the batch when it has k pieces, and its lift runs alone, so
its table is the one it gets alone; ``character_table`` is a batch of one.

Degrees are recovered from the second orthogonality relation inside F_q,
and values are lifted exactly into Q(zeta_e) (e = exponent of the group)
by extracting, for each class, the multiplicity of each root of unity
among the eigenvalues of a representing matrix.  For g of order o these
are o-th roots, and theta(g^s) has period o in s, so

    m_j = o^-1 * sum_{s<o} theta(g^s) w^(-s j)   in F_q,   w = z^(e/o),

is the multiplicity of zeta_e^((e/o) j), with z a fixed element of
multiplicative order e in F_q (the e-point transform gives the same m_j at
those exponents and 0 at all others).  Since q exceeds twice the square
root of |G|, the m_j are determined by their residues and the recovered
values are exact.  For a block of characters and the classes of one order
o this is one integer matrix product,

    M = theta[P_o] @ F_o  (mod q),   values = M @ W_o,

where P_o[c, s] is the class of g_c^s for s < o (the first o columns of
the power map), F_o[s, j] = o^-1 w^(-s j) mod q, and row j of W_o holds
the power-basis coefficients of zeta_e^((e/o) j).

A table holds these coefficients once, in one read-only int64 array of
shape (classes, k, phi(e)) (``CharacterTable.values``); the operations below
are gathers on it and products with ``embedding(e, e2)``, and its
``irreducibles`` are ``Character`` views of it, made on first read.  No code
path of the package makes a ``Cyclotomic`` per table entry: the CLI renders
each distinct value of a table once, a reported witness converts its one
value (``Character.value``), and ``Character.values`` (one scalar per class)
is a view for library callers and tests.  An irreducible is identified by
its row: ``CharacterTable.rows_of`` looks class functions up by degree and a
digest of their coefficients, confirmed against the row itself, so claims
about sets of irreducibles compare sets of row indices.  Both routes below
refuse a table whose coefficients would outweigh a Cayley table at
``ORDER_CAP`` as soon as k is known, before the split or the extension
(``_check_size``).

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
coefficients of all irreducibles, which is ``values`` itself at the
table's exponent (``CharacterTable.operand``); ``induce_batch`` induces m
characters of a subgroup H through one k x k_H matrix of class counts read
off the fusion map (the class of G holding each class of H, ``_fusion``);
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
from .groups import (ORDER_CAP, ConjugacyClasses, Group, QuotientMap, Subgroup,
                     _row_keys, _unique_sorted, quotient)
from .modular import is_prime, prime_factors

PRIME_BOUND = 10_000_000
COMBINATIONS = 6  # rounds of class-sum combinations before the class matrices


@dataclass(frozen=True, eq=False)
class Character:
    """A class function on a group with values in Q(zeta_conductor).

    ``coeffs[c]`` holds the power-basis coefficients of the value on class
    ``c`` of ``group``, in a read-only int64 array of shape (classes,
    phi(conductor)): a view of the array given when nothing can write it
    any more (a column of a table's ``values``), else a private copy;
    character values are algebraic integers.  For genuine characters the
    value on class 0 equals ``degree``.  ``irreducible`` says whether the
    character is irreducible; ``None`` leaves it to ``is_irreducible``,
    which then pairs the character with itself on first read.
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
        if arr.dtype != np.int64 or _writeable(arr):
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
        return _embed(self.coeffs, self.conductor, e)

    def __repr__(self) -> str:
        return f"Character(degree={self.degree} on {self.group.name})"


def _writeable(a: np.ndarray) -> bool:
    """Whether ``a``, or the array that owns the memory it views, can be written."""
    return a.flags.writeable or isinstance(a.base, np.ndarray) and a.base.flags.writeable


def _embed(coeffs: np.ndarray, e: int, e2: int) -> np.ndarray:
    """Coefficients at conductor ``e``, last axis, at ``e2``, a multiple of e."""
    return coeffs if e2 == e else coeffs @ embedding(e, e2)


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """All irreducible characters of a group, rows in a canonical order.

    ``values[c, i]`` holds the coefficients at ``exponent`` of row i on class
    c, in one read-only C-contiguous int64 array, and ``degrees[i]`` the
    degree of row i; ``irreducibles`` are views of the rows, made on first
    read.  Rows are sorted by degree, then lexicographically by the
    concatenated coefficient vectors of their values, so the table is
    independent of the eigenspace splitting order.
    """

    group: Group
    classes: ConjugacyClasses
    values: np.ndarray
    degrees: np.ndarray
    exponent: int
    field_prime: int
    inverse_class: tuple[int, ...]
    power_map: tuple[tuple[int, ...], ...]
    _rows: dict = field(default_factory=dict, init=False, repr=False)
    _operands: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.degrees)

    @cached_property
    def irreducibles(self) -> tuple[Character, ...]:
        return tuple(Character(self.group, d, self.exponent, self.values[:, i], True)
                     for i, d in enumerate(self.degrees.tolist()))

    def row_of(self, chi: Character) -> int | None:
        """``rows_of`` for one character of the table's group."""
        if chi.group is not self.group:
            raise InputError("character does not live on the table's group")
        return self.rows_of([chi.degree], chi.coeffs[None], chi.conductor)[0]

    def rows_of(self, degrees: Sequence[int], coeffs: np.ndarray,
                e: int) -> list[int | None]:
        """``row_of`` for m class functions of the table's group, given by
        their degrees and their coefficients at conductor ``e`` in an array
        of shape (m, classes, phi(e)).  Values meet at lcm(exponent, e),
        since a deflated character keeps the conductor of the larger group.

        Rows are keyed by their degree and a fixed-size digest of their
        coefficients; a key that matches is confirmed by comparing the
        coefficients, so a collision of digests cannot return a wrong row.
        """
        e2 = math.lcm(self.exponent, e)
        coeffs = _embed(coeffs, e, e2)
        if e2 not in self._rows:
            b = _embed(self.values, self.exponent, e2)
            rows: dict[tuple, list[int]] = {}
            for i, d in enumerate(self.degrees.tolist()):
                rows.setdefault((d, _digest(b[:, i])), []).append(i)
            self._rows[e2] = rows
        keys = self._rows[e2]
        cands = [keys.get((d, _digest(values)), ()) for d, values in zip(degrees, coeffs)]

        def row(i):  # row i at e2, of shape (classes, phi(e2))
            return _embed(self.values[:, i], self.exponent, e2)

        # the first rows under the keys are confirmed at once, collisions one by one
        firsts = row([c[0] if c else 0 for c in cands]).transpose(1, 0, 2)
        same = (firsts == coeffs).all(axis=(1, 2))
        return [c[0] if ok and c else next((i for i in c[1:] if np.array_equal(
                    row(i), values)), None)
                for c, ok, values in zip(cands, same, coeffs)]

    def operand(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of every irreducible at conductor ``e``, a
        multiple of the exponent, an int64 array of shape (classes, len(self),
        phi(e)), with its largest and smallest entry: ``values`` itself at
        the exponent, else its embedding, computed once per conductor."""
        if e not in self._operands:
            b = _embed(self.values, self.exponent, e)
            b.flags.writeable = False
            self._operands[e] = b, np.array([b.max(), b.min()])
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


def _combination(g: Group, classes: ConjugacyClasses, inverse_class: Sequence[int],
                 coeffs: np.ndarray, q: int) -> np.ndarray:
    """sum_i coeffs[i] M_i mod q, coefficients in [0, q).  Entry [j, t] weighs
    each x with x^-1 z_t in class j by the coefficient of x's class; as y z_t
    and z_t y are conjugate, column t is one bincount of the classes along
    row z_t of the Cayley table, weighing y by that of y^-1 (the class
    ``inverse_class`` gives), about ``BLOCK`` cells at a time.  Sums stay
    below |G| q < 2**53: exact in float64."""
    k, class_of = len(classes), classes.class_array
    weights = coeffs[list(inverse_class)][class_of].astype(np.float64)
    reps = np.array(classes.reps)
    step = max(1, BLOCK // g.order)
    out = np.empty((k, k), dtype=np.int64)  # the transpose, one row per column
    for lo in range(0, k, step):
        cells = class_of[g.table[reps[lo:lo + step]]]
        cells += k * np.arange(len(cells))[:, None]
        out[lo:lo + step] = np.bincount(cells.ravel(), np.tile(weights, len(cells)),
                                        len(cells) * k).reshape(-1, k) % q
    return out.T


def _split_matrices(g: Group, classes: ConjugacyClasses, inverse_class: Sequence[int],
                    q: int):
    """The split's matrices, each built when its round starts: ``COMBINATIONS``
    class-sum combinations, then M_1 ... M_{k-1}, which separate all central
    characters."""
    for coeffs in _coefficients(len(classes), q):
        yield _combination(g, classes, inverse_class, coeffs, q)
    for i in range(1, len(classes)):
        yield class_matrix(g, classes, i) % q


def _coefficients(k: int, q: int) -> np.ndarray:
    """The coefficients of the combinations, one row each: a fixed hash of
    their positions mod q (uint64 products wrap), the same on every run."""
    x = np.arange(1, COMBINATIONS * k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(q)).astype(np.int64).reshape(COMBINATIONS, k)


def _split(matrices: Sequence, k: int, q: int) -> list[np.ndarray]:
    """The k central characters mod q of each group of a batch, scaled to 1
    on the identity class, from ``matrices``, one iterator of split matrices
    per group.  Each group starts at e_0; a round takes the next matrix of
    every group short of k pieces and splits all their pieces in one
    ``_split_round``, so a group leaves the batch once it has k pieces.
    ConsistencyError if a group's matrices run out first."""
    parts = [np.eye(1, k, dtype=np.int64)] * len(matrices)
    while active := [i for i, p in enumerate(parts) if len(p) < k]:
        cs = [next(matrices[i], None) for i in active]
        if any(c is None for c in cs):
            raise ConsistencyError("the split matrices failed to separate all characters")
        sizes = [len(parts[i]) for i in active]
        pieces, owners = _split_round(np.concatenate([parts[i] for i in active]),
                                      np.repeat(np.arange(len(active)), sizes), cs, q)
        cuts = np.searchsorted(owners, np.arange(1, len(active)))
        for i, p in zip(active, np.split(pieces, cuts)):
            parts[i] = p
    out = []
    for pieces in parts:
        if len(pieces) != k or not pieces[:, 0].all():
            raise ConsistencyError("the split did not end in k central characters")
        inv = np.array([pow(int(c), -1, q) for c in pieces[:, 0]], dtype=np.int64)
        out.append(pieces * inv[:, None] % q)
    return out


def _split_round(pieces: np.ndarray, owners: np.ndarray, cs: Sequence[np.ndarray],
                 q: int) -> tuple[np.ndarray, np.ndarray]:
    """Each piece s split under C = ``cs[o]``, o its entry of ``owners``
    (ascending), into the p_j(C) s, or kept when its mu has one root; the
    pieces come back with their owners, again ascending.  Start vectors
    that ``_by_transform`` admits go through ``_transform``; other pieces,
    about ``BLOCK`` entries at a time, through ``_krylov``, then one Horner
    pass and one batched product from the C^m s per degree, whatever the
    owners.  Both run in the carrier of k (q-1)**2 (never objects, as
    k <= ORDER_CAP and q < PRIME_BOUND), to which each C^T is cast once."""
    k = pieces.shape[1]
    cts = np.empty((len(cs), k, k), dtype=modular.carrier(k * (q - 1) ** 2))
    for ct, c in zip(cts, cs):
        ct[:] = c.T
    if _by_transform(pieces, len(cs), q):
        return _transform(cts, q)
    out, whose, step = [], [], max(1, BLOCK // k)
    for lo in range(0, len(pieces), step):
        chunk = owners[lo:lo + step]
        for ids, mu, kry in _krylov(pieces[lo:lo + step], chunk, cts, q):
            rows, r = kry.shape[:2]
            whose.append(np.repeat(chunk[ids], r))
            if r == 1:
                out.append(kry[:, 0])
                continue
            lams = _roots(mu, q)
            # coef[x, j, m]: the t^m coefficient of p_j for row x, by synthetic division
            coef = np.zeros((rows, r, r), dtype=cts.dtype)
            coef[:, :, r - 1] = 1
            for m in range(r - 1, 0, -1):
                coef[:, :, m - 1] = (mu[:, m, None] + lams * coef[:, :, m]) % q
            out.append((coef @ kry % q).reshape(-1, k))
    whose = np.concatenate(whose)
    order = np.argsort(whose, kind="stable")
    return np.concatenate(out).astype(np.int64)[order], whose[order]


def _by_transform(pieces: np.ndarray, owners: int, q: int) -> bool:
    """Whether a round splits by ``_transform``: its pieces are e_0, one per
    owner, and q - 1 <= max(k, isqrt(``BLOCK``)), so that no array of the
    transform outgrows the k x k matrices or one ``BLOCK``, and its q
    products are about Krylov's worst case of min(k, q) + 1."""
    k = pieces.shape[1]
    return (q - 1 <= max(k, math.isqrt(BLOCK)) and len(pieces) == owners
            and (pieces == np.eye(1, k, dtype=np.int64)).all())


def _transform(cts: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero parts of e_0, the one piece of each owner o, under
    C = ``cts[o]``^T: C^m e_0 for m < q, one batched product a step, then one
    ``modular.matmul`` (float64 whenever C is, as q - 1 <= max(k, 256)) by
    W[a, m - 1] = -g^(-a m), g primitive, for the parts at all lambda = g^a,
    and e_0 - C^(q-1) e_0 for the part at 0; no array holds all q parts of
    an owner.  ConsistencyError unless C^q e_0 = C e_0."""
    n, k = cts.shape[:2]
    powers = np.empty((q - 1, n, k), dtype=cts.dtype)  # powers[m - 1] = C^m e_0
    powers[0] = cts[:, 0]
    for m in range(1, q - 1):
        powers[m] = (powers[m - 1][:, None] @ cts)[:, 0] % q
    if ((powers[-1][:, None] @ cts)[:, 0] % q != powers[0]).any():
        raise ConsistencyError("a split matrix is not diagonalisable over F_q")
    g = _element_of_order(q - 1, q)
    pw = q - np.array([pow(g, a, q) for a in range(q - 1)], dtype=np.int64)
    w = pw[np.outer(np.arange(q - 1), -np.arange(1, q)) % (q - 1)]
    parts = modular.matmul(w, powers.reshape(q - 1, -1), q)
    parts = parts.reshape(q - 1, n, k).transpose(1, 0, 2)  # parts[o, a]: at g^a
    zero = (np.eye(1, k, dtype=np.int64) - powers[-1]) % q
    whose, at = np.nonzero(np.column_stack([zero.any(axis=1), parts.any(axis=2)]))
    out = parts[whose, at - 1]  # the rows at = 0 take the part at 0 next
    out[at == 0] = zero[whose[at == 0]]
    return out, whose


def _krylov(v: np.ndarray, owners: np.ndarray, cts: Sequence[np.ndarray], q: int) -> list:
    """(rows of ``v``, their mu, their C^m s for m < deg mu) for the rows s
    of ``v`` that end at each step, mu the ascending minimal polynomial of s
    under C = ``cts[o]``^T, o the row's entry of ``owners`` (ascending).
    Step m takes one product per owner with live rows, and everything else
    is one pass over all of them; row i of a row's basis is C^i s reduced
    against the rows before it, scaled to 1 at its pivot, with its
    combination of powers of C, and is never changed.  So a new vector's
    coefficients x solve x L = (its entries at the pivots), L[i, j] row i
    at pivot j, unit upper triangular; L^-1 gains a column."""
    n, k = v.shape
    v = v.astype(cts[0].dtype)
    ids = np.arange(n)
    cap = min(k + 1, max(2, BLOCK // (4 * n * k)))  # Krylov depth held, doubled when reached
    basis = np.zeros((n, cap, k + cap + 1), dtype=v.dtype)  # [vector | powers]
    inverse = np.zeros((n, cap, cap), dtype=v.dtype)  # L^-1
    krylov = np.zeros((n, cap, k), dtype=v.dtype)  # C^m s
    pivots = np.zeros((n, cap), dtype=np.intp)
    firsts = np.searchsorted(owners, np.arange(len(cts) + 1))  # where each owner starts
    runs = _runs(cts, firsts.tolist())
    done = []
    for m in range(k + 1):
        if m == cap:
            basis = np.pad(basis, ((0, 0), (0, cap), (0, cap)))
            inverse = np.pad(inverse, ((0, 0), (0, cap), (0, cap)))
            krylov = np.pad(krylov, ((0, 0), (0, cap), (0, 0)))
            pivots = np.pad(pivots, ((0, 0), (0, cap)))
            cap *= 2
        w = k + m + 1
        x = v[np.arange(len(v))[:, None], pivots[:, :m]][:, None] @ inverse[:, :m, :m] % q
        row = np.zeros((len(v), w), dtype=v.dtype)
        row[:, :k] = v
        row[:, -1] = 1  # this row is C^m s
        row -= (x @ basis[:, :m, :w])[:, 0]
        row %= q
        live = row[:, :k].any(axis=1)
        if not live.all():
            done.append((ids[~live], row[~live, k:], krylov[~live, :m]))
            ids, v, row, basis, inverse, krylov, pivots = (
                a[live] for a in (ids, v, row, basis, inverse, krylov, pivots))
            if not len(v):
                break
            runs = _runs(cts, np.searchsorted(ids, firsts).tolist())
        at, p = np.arange(len(v)), (row[:, :k] != 0).argmax(axis=1)
        row *= np.array([pow(int(c), -1, q) for c in row[at, p]], dtype=v.dtype)[:, None]
        row %= q
        column = basis[at, :m, p]  # the earlier rows at the new pivot
        inverse[:, :m, m] = (-(inverse[:, :m, :m] @ column[:, :, None]) % q)[:, :, 0]
        inverse[:, m, m] = 1
        basis[:, m, :w] = row
        pivots[:, m] = p
        krylov[:, m] = v
        v = v @ runs[0][0] if len(runs) == 1 else np.concatenate(
            [v[lo:hi] @ ct for ct, lo, hi in runs])
        v %= q
    return done


def _runs(cts: Sequence[np.ndarray], edges: list[int]) -> list:
    """(C^T, first row, end row) for each owner with live rows, the rows of
    owner o being ``edges[o]`` to ``edges[o + 1]``."""
    return [(ct, lo, hi) for ct, lo, hi in zip(cts, edges, edges[1:]) if hi > lo]


def _roots(polys: np.ndarray, q: int) -> np.ndarray:
    """The roots in F_q of monic polynomials of one degree r, the rows of
    ascending coefficients of ``polys``, as an (n, r) array ascending along
    each row: one Horner pass over F_q for all of them, about ``BLOCK``
    values at a time, that stops once each has r roots.  ConsistencyError
    unless each has r roots in F_q, which are then distinct."""
    n, r = polys.shape[0], polys.shape[1] - 1
    hits, count = [], np.zeros(n, dtype=np.int64)
    step = max(1, BLOCK // n)
    for lo in range(0, q, step):
        lams = np.arange(lo, min(lo + step, q)).astype(polys.dtype)
        acc = np.zeros((n, len(lams)), dtype=polys.dtype)
        for c in polys.T[::-1]:
            acc = (acc * lams + c[:, None]) % q
        at, lam = np.nonzero(acc == 0)
        hits.append(np.stack([at, lam + lo]))
        count += np.bincount(at, minlength=n)
        if (count >= r).all():
            break
    if (count != r).any():
        raise ConsistencyError("a split matrix is not diagonalisable over F_q")
    at, lam = np.concatenate(hits, axis=1)
    return lam[np.argsort(at, kind="stable")].reshape(n, r)


def _root_multiplicities(theta_pm: np.ndarray, dft: np.ndarray, q: int) -> np.ndarray:
    """Residues ``theta_pm @ dft mod q`` of shape (classes, o): the
    multiplicities of the o-th roots of unity w^j among the eigenvalues.

    Row c of ``theta_pm`` is theta along the powers g_c^s, s < o, of a
    class rep of order o, and ``dft`` is ``_dft_matrix(o, w, q)``; entries
    of both lie in [0, q), so ``modular.matmul`` gives the exact product.
    """
    return modular.matmul(theta_pm, dft, q)


def _dft_matrix(o: int, w: int, q: int) -> np.ndarray:
    """F[s, j] = o^-1 w^(-s j) mod q for w of multiplicative order o, as an
    int64 array."""
    powers = [pow(o, -1, q)]  # o^-1 w^t for t < o
    for _ in range(1, o):
        powers.append(powers[-1] * w % q)
    exps = np.arange(o)
    return np.array(powers, dtype=np.int64)[np.outer(exps, -exps) % o]


def _power_map(g: Group, classes: ConjugacyClasses, e: int) -> tuple[tuple[int, ...], ...]:
    """``pm[c][s]`` is the class of rep_c^s, for s = 0..e-1.  With the
    powers below n known, rep^(n-1+s) = rep^(n-1) rep^s fills them up to
    2n - 1 in one gather, so ceil(log2 e) gathers fill all e."""
    reps = np.array(classes.reps, dtype=np.intp)
    powers = np.zeros((e, reps.size), dtype=np.intp)
    if e > 1:
        powers[1] = reps
    n = 2
    while n < e:
        top = min(2 * n - 1, e)
        powers[n:top] = g.table[powers[n - 1], powers[1:top - n + 1]]
        n = top
    return tuple(map(tuple, classes.class_array[powers.T].tolist()))


# ---------------------------------------------------------------------------
# the table itself

def character_table(g: Group) -> CharacterTable:
    """Exact character table of ``g``, a batch of one for
    ``character_tables``."""
    return character_tables([g])[0]


def character_tables(groups: Sequence[Group]) -> list[CharacterTable]:
    """Exact character tables of ``groups``, in order.

    Abelian groups are built directly by cyclic extension
    (``_abelian_table``); every other group goes through the Dixon split,
    in one ``_split`` for all of those with the same class count k and the
    same Dixon prime q, as their pieces then share a length and a field.
    """
    tables, batches = {}, {}
    for i, g in enumerate(groups):
        if g.is_abelian():
            tables[i] = _abelian_table(g)
        else:
            key = len(g.conjugacy_classes()), dixon_prime(g.order, g.exponent)
            batches.setdefault(key, []).append(i)
    for batch in batches.values():
        tables.update(zip(batch, _dixon_tables([groups[i] for i in batch])))
    return [tables[i] for i in range(len(groups))]


def _inverse_class(g: Group, classes: ConjugacyClasses) -> tuple[int, ...]:
    return tuple(classes.class_of[g.inv(r)] for r in classes.reps)


def _finish(g: Group, classes: ConjugacyClasses, values: np.ndarray, degrees: np.ndarray,
            q: int, inverse_class, pm) -> CharacterTable:
    """The table with the rows of ``values`` and ``degrees`` in canonical
    order, after the sum of squared degrees is checked."""
    # Big-endian with the sign bit flipped, the bytes of a row compare as one
    # void in the order of its integers, of which the first is the degree
    # (the value on the identity class).  The cast makes the one copy.
    keys = np.ascontiguousarray(values.transpose(1, 0, 2), dtype=">i8").view(">u8")
    keys ^= np.uint64(1 << 63)
    order = np.argsort(keys.reshape(len(keys), -1).view(f"V{keys[0].nbytes}").ravel(),
                       kind="stable")
    del keys
    values = np.take(values, order, axis=1)  # C-contiguous, unlike values[:, order]
    degrees = np.asarray(degrees, dtype=np.int64)[order]
    values.flags.writeable = degrees.flags.writeable = False
    if int((degrees ** 2).sum()) != g.order:
        raise ConsistencyError("degrees fail the sum-of-squares identity")
    return CharacterTable(g, classes, values, degrees, g.exponent, q, inverse_class, pm)


def _check_size(k: int, e: int) -> None:
    """ResourceError if a table of k classes at exponent e, whose k * k *
    phi(e) int64 coefficients both routes hold, would outweigh a Cayley
    table at ``ORDER_CAP``; each route asks once k is known, before the
    heavy work."""
    if (size := k * k * euler_phi(e) * 8) > 2 * ORDER_CAP ** 2:
        raise ResourceError(f"a table of {k} classes at exponent {e} needs {size // 10 ** 6} "
                            f"MB of coefficients, above {2 * ORDER_CAP ** 2 // 10 ** 6} MB")


def _dixon_tables(groups: Sequence[Group]) -> list[CharacterTable]:
    """The tables of groups that share their class count k and Dixon prime
    q: one class-matrix split over F_q for all of them, then each group's
    value lift."""
    classes = [g.conjugacy_classes() for g in groups]
    k, q = len(classes[0]), dixon_prime(groups[0].order, groups[0].exponent)
    for g in groups:
        _check_size(k, g.exponent)
    inverses = [_inverse_class(g, c) for g, c in zip(groups, classes)]
    omegas = _split([_split_matrices(g, c, inv, q)
                     for g, c, inv in zip(groups, classes, inverses)], k, q)
    return [_lift_table(g, c, inv, omega, q)
            for g, c, inv, omega in zip(groups, classes, inverses, omegas)]


def _lift_table(g: Group, classes: ConjugacyClasses, inverse_class: tuple[int, ...],
                omega: np.ndarray, q: int) -> CharacterTable:
    """The table of ``g`` from its central characters ``omega`` mod q: the
    degrees and the value lift."""
    inv_sizes = np.array([pow(len(m), -1, q) for m in classes.members], dtype=np.int64)
    pm = _power_map(g, classes, g.exponent)

    # Row i of omega is the i-th central character, scaled to 1 on the
    # identity class.  Every product below is of two residues, below 2**47,
    # and the k x k arrays are updated in place.
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
    values = _lift_values(thetas, degrees, np.array(pm, dtype=np.intp), g.exponent, q)
    return _finish(g, classes, values, degrees, q, inverse_class, pm)


def _lift_values(thetas: np.ndarray, degrees: np.ndarray, pm: np.ndarray, e: int,
                 q: int) -> np.ndarray:
    """The coefficients at conductor e, shape (classes, characters, phi(e)),
    of the characters with residues ``thetas`` (one row each) and
    ``degrees``; ``pm`` is the power map as a (classes, e) array.

    The classes go by o, the order of their representative: the first s > 0
    with g^s in the identity class.  For each o, one ``_root_multiplicities``
    product with the o x o ``_dft_matrix`` at w = z^(e/o) takes theta along
    the first o powers, then one product with the rows (e/o) j of W, in the
    carrier of max(degree) * max|W|, which bounds every partial sum (the
    multiplicities on a class sum to the degree).  Characters go in blocks
    whose temporaries, carrier copies included, hold about ``BLOCK`` // 8
    entries each."""
    k = len(thetas)
    w, w_max = _zeta_matrix(e)
    dtype = modular.carrier(int(degrees.max()) * w_max)
    z = _element_of_order(e, q)
    identity = pm == 0
    identity[:, 0] = False
    orders = identity.argmax(axis=1)  # 0 where no power below e is 1
    orders[orders == 0] = e
    values = np.empty((len(pm), k, w.shape[1]), dtype=np.int64)
    for o in _unique_sorted(orders).tolist():
        cls = np.flatnonzero(orders == o)
        dft = _dft_matrix(o, pow(z, e // o, q), q)
        w_o = w[::e // o].astype(dtype)  # the rows (e/o) j, j < o
        powers = pm[cls, :o]
        step = max(1, BLOCK // (8 * len(cls) * max(o, w.shape[1])))
        for lo in range(0, k, step):
            d = degrees[lo:lo + step]
            mults = _root_multiplicities(thetas[lo:lo + step][:, powers].reshape(-1, o),
                                         dft, q).reshape(len(d), len(cls), o)
            if (mults.sum(axis=2) != d[:, None]).any():
                raise ConsistencyError("root-of-unity multiplicities do not sum "
                                       "to the degree")
            values[cls, lo:lo + step] = (mults @ w_o).transpose(1, 0, 2)
    if not _rational_rows(values[0], degrees).all():
        raise ConsistencyError("identity value differs from the degree")
    return values


def _abelian_exponents(g: Group) -> np.ndarray:
    """Irr(g) of an abelian group as exponents mod e: ``f[c, x]`` with
    lambda_c(x) = zeta_e^f[c, x], one row per character, one column per
    element.

    Cyclic extension (Isaacs, Ch. 2): along A_{i+1} = A_i <x>, with m the
    order of x modulo A_i, each lambda of A_i extends in exactly m ways,
    lambda(a x^j) = lambda(a) + j b where m b = lambda(x^m) (mod e).  Since
    m divides the order of x, which divides e, the solutions are
    b = lambda(x^m)/m + s e/m for s = 0..m-1.  Each step writes all m r new
    rows on all m r members of A_{i+1} at once, about ``BLOCK`` entries at a
    time.  Exponents stay below e <= ORDER_CAP, so sums of two fit
    ``uint16``.
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
        # b[s, c]: the s-th solution for character c; new row s*r + c, and
        # new column j*r + a holds x^j times member a of A_i
        b = ((at_xm // m + (e // m) * np.arange(m)[:, None]) % e).ravel()
        cols = t[np.ix_(powers, cols)].ravel().astype(np.intp)
        step = max(1, BLOCK // (m * r))
        for lo in range(0, m * r, step):
            hi = min(lo + step, m * r)
            jb = (np.outer(b[lo:hi], np.arange(m)) % e).astype(np.uint16)
            f[lo:hi, cols] = ((old[np.arange(lo, hi) % r, None] + jb[:, :, None]) % e).reshape(
                hi - lo, -1)
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
    still exits 3.  Its size is checked (``_check_size``) before any
    allocation."""
    e = g.exponent
    _check_size(g.order, e)
    classes = g.conjugacy_classes()
    q = dixon_prime(g.order, e)
    f = _abelian_exponents(g)
    _check_abelian(g, f)
    values = _zeta_matrix(e)[0][f[:, classes.reps].T]  # [class, character]
    return _finish(g, classes, values, np.ones(len(values), dtype=np.int64), q,
                   _inverse_class(g, classes), _power_map(g, classes, e))


# ---------------------------------------------------------------------------
# operations on characters

def _rational_rows(coeffs: np.ndarray, r) -> np.ndarray:
    """Mask of the values of a coefficient array, rows along its last axis,
    that are the rational r (an integer, or integers that broadcast)."""
    return (coeffs[..., 0] == r) & ~coeffs[..., 1:].any(axis=-1)


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
    e2 = math.lcm(e, table.exponent)
    b, extremes = table.operand(e2)
    totals = _pairings(_embed(coeffs, e, e2).reshape(len(coeffs), -1),
                       b.reshape(len(b), -1), _abs_max(extremes), _sizes(table.group), e2)
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


def _fusion(h: Subgroup) -> np.ndarray:
    """The class of G holding each class of ``h.as_group()``: one gather of
    k_H entries, the one map between the classes of a subgroup and G's."""
    return h.parent.conjugacy_classes().class_array[
        [h.to_parent(r) for r in h.as_group().conjugacy_classes().reps]]


def _induction_counts(h: Subgroup, g: Group) -> np.ndarray:
    """The k x k_H matrix with [G:H] |j| / |c| at [c, j] for each class j of
    H, c = ``_fusion(h)[j]``: lam^G(x) = [G:H] / |cl(x)| sum_{y in cl(x) & H}
    lam(y) for any subgroup H (Isaacs, Definition 5.1).  The entry counts the
    t of a transversal with t x t^-1 in class j, so it is an integer."""
    fusion = _fusion(h)
    cells = g.order // h.order * np.array(h.as_group().conjugacy_classes().sizes)
    sizes = _sizes(g)[fusion]
    if (cells % sizes).any():
        raise ConsistencyError("induction counts are not integers")
    counts = np.zeros((len(g.conjugacy_classes()), len(fusion)), dtype=np.int64)
    counts[fusion, np.arange(len(fusion))] = cells // sizes
    return counts


def induce_batch(lams: Sequence[Character], h: Subgroup, g: Group) -> np.ndarray:
    """The induced class functions lam^G of characters of ``h.as_group()``,
    as coefficients at the exponent of ``g``, shape (classes of g, len(lams),
    phi): one ``_induction_counts`` matrix and one exact product for all of
    them.  Each value on the identity class must be [G:H] lam(1)."""
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
    if h.parent is not chi.group:
        raise InputError("subgroup does not live in the character's group")
    return Character(h.as_group(), chi.degree, chi.conductor, chi.coeffs[_fusion(h)])


def _classes_where(chi: Character, hit) -> Subgroup:
    """The union of the classes of ``chi.group`` whose entry of ``hit`` is true."""
    class_of = chi.group.conjugacy_classes().class_array
    return Subgroup(chi.group, np.flatnonzero(np.asarray(hit)[class_of]))


def kernel(chi: Character) -> Subgroup:
    """Elements where the character value equals its degree."""
    return _classes_where(chi, _rational_rows(chi.coeffs, chi.degree))


def _root_cells(coeffs: np.ndarray, d, e: int) -> np.ndarray:
    """Mask of the values of a coefficient array at conductor e, rows along
    its last axis, that are d (integers that broadcast) times some +-zeta_e^j:
    those divisible by d whose quotient is among the byte rows of those roots."""
    w, _ = _zeta_matrix(e)
    units = _unique_sorted(_row_keys(np.concatenate([w, -w])))
    d = np.asarray(d)[..., None]
    hit = (coeffs % d == 0).all(axis=-1) & coeffs.any(axis=-1)
    quotients = _row_keys((coeffs // d)[hit])  # only the nonzero multiples of d
    hit[hit] = units[np.searchsorted(units, quotients).clip(max=len(units) - 1)] == quotients
    return hit


def char_center(chi: Character) -> Subgroup:
    """Elements where the value has absolute value equal to the degree.

    For a character this means chi(g) = chi(1) * eps for a root of unity eps
    (Isaacs, Lemma 2.27), and eps = chi(g)/chi(1) lies in Q(zeta_e), whose
    roots of unity are the +-zeta^j.  So the test is a lookup.
    """
    return _classes_where(chi, _root_cells(chi.coeffs, chi.degree, chi.conductor))


def _class_masks(table: CharacterTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The centre, kernel and support of every irreducible as masks over the
    classes, each (len(table), classes), by the tests of ``char_center`` and
    ``kernel`` in one pass over ``values``, ``BLOCK`` entries at a time."""
    coeffs, degrees, e, k = table.values, table.degrees, table.exponent, len(table)
    out = np.empty((3, k, len(coeffs)), dtype=bool)
    step = max(1, BLOCK // coeffs[:, 0].size)
    for lo in range(0, k, step):
        values, d = coeffs[:, lo:lo + step].transpose(1, 0, 2), degrees[lo:lo + step, None]
        out[:, lo:lo + step] = (_root_cells(values, d, e), _rational_rows(values, d),
                                values.any(axis=2))
    return out[0], out[1], out[2].copy()  # the support outlives the others


def degree_set(table: CharacterTable) -> tuple[int, ...]:
    return tuple(sorted(set(table.degrees.tolist())))


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
