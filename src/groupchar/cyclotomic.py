"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value is a coefficient vector over the power basis 1, z, ...,
z^(phi(e)-1) of Q(zeta_e), reduced modulo the e-th cyclotomic polynomial.
Characters hold theirs as integer arrays, moved between conductors by
``embedding``.  ``Cyclotomic`` is one value as a scalar, in two roles: the
view that rendering and library callers get from ``Character.values``, and
the loop arithmetic (``embed``, ``conj``, ``__mul__``, ``abs_squared``)
that tests compare the array kernels against.  Its coefficients are
``int``s, or ``Fraction``s where not integral; the two compare and hash
alike.  There is no floating point anywhere in this module; equality is
literal equality of reduced coefficient vectors at a shared conductor.
Binary operations require both operands at the same conductor; use
``embed`` to move to a larger conductor first (index multiplication).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError
from .modular import prime_factors


def _normalise(c) -> int | Fraction:
    """``c`` as an int when it is integral, else as a Fraction."""
    c = Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c  # numpy ints too


@lru_cache(maxsize=None)
def euler_phi(e: int) -> int:
    if e < 1:
        raise InputError("conductor must be positive")
    result = e
    for p in prime_factors(e):
        result -= result // p
    return result


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, divisor monic; ascending coeffs
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for t in range(dd + 1):
                num[k + t] -= c * den[t]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Monic e-th cyclotomic polynomial, ascending integer coefficients."""
    if e < 1:
        raise InputError("conductor must be positive")
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _zeta_powers(e: int) -> tuple[tuple[int, ...], ...]:
    """z^j reduced mod Phi_e for j = 0..e-1, as integer coefficient rows."""
    phi = euler_phi(e)
    mod = cyclotomic_polynomial(e)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(e):
        rows.append(tuple(cur))
        cur = [0] + cur  # multiply by z
        lead = cur.pop()
        if lead:
            for t in range(phi):
                cur[t] -= lead * mod[t]
    return tuple(rows)


@lru_cache(maxsize=None)
def embedding(e: int, e2: int) -> np.ndarray:
    """Read-only int64 matrix taking power-basis coefficients at conductor
    ``e`` to a multiple ``e2``: row i is zeta_e^i = zeta_e2^(i * e2/e)."""
    if e2 % e != 0:
        raise InputError(f"cannot embed conductor {e} into {e2}")
    out = np.array(_zeta_powers(e2)[::e2 // e][:euler_phi(e)], dtype=np.int64)
    out.flags.writeable = False
    return out


class Cyclotomic:
    """An element of Q(zeta_e), stored as reduced power-basis coefficients."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        self.conductor = conductor
        coeffs = tuple(c if type(c) is int else _normalise(c) for c in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise InputError("coefficient vector has the wrong length")
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(e: int) -> "Cyclotomic":
        return Cyclotomic(e, [0] * euler_phi(e))

    @staticmethod
    def from_rational(r, e: int = 1) -> "Cyclotomic":
        coeffs = [0] * euler_phi(e)
        coeffs[0] = r
        return Cyclotomic(e, coeffs)

    @staticmethod
    def one(e: int) -> "Cyclotomic":
        return Cyclotomic.from_rational(1, e)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Cyclotomic") -> None:
        if self.conductor != other.conductor:
            raise InputError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}; "
                "embed into a common conductor first")

    def __add__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other, self.conductor)
        self._check(other)
        return Cyclotomic(self.conductor,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other, self.conductor)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, [a * other for a in self.coeffs])
        self._check(other)
        a, b = self.coeffs, other.coeffs
        phi = len(a)
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        mod = cyclotomic_polynomial(self.conductor)
        for deg in range(len(conv) - 1, phi - 1, -1):
            c = conv[deg]
            if c:
                conv[deg] = 0
                base = deg - phi
                for t in range(phi):
                    conv[base + t] -= c * mod[t]
        return Cyclotomic(self.conductor, conv[:phi])

    __rmul__ = __mul__

    # -- field-specific operations ------------------------------------------

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, z -> z^(e-1)."""
        e = self.conductor
        zp = _zeta_powers(e)
        phi = len(self.coeffs)
        acc = [0] * phi
        for i, c in enumerate(self.coeffs):
            if c:
                row = zp[(e - i) % e]
                for t in range(phi):
                    if row[t]:
                        acc[t] += c * row[t]
        return Cyclotomic(e, acc)

    def abs_squared(self) -> "Cyclotomic":
        return self * self.conj()

    def embed(self, e2: int) -> "Cyclotomic":
        """Re-embed into Q(zeta_e2) for a multiple e2 of the conductor."""
        e = self.conductor
        if e2 == e:
            return self
        if e2 % e != 0:
            raise InputError(f"cannot embed conductor {e} into {e2}")
        m = e2 // e
        zp = _zeta_powers(e2)
        phi2 = euler_phi(e2)
        acc = [0] * phi2
        for i, c in enumerate(self.coeffs):
            if c:
                row = zp[(i * m) % e2]
                for t in range(phi2):
                    if row[t]:
                        acc[t] += c * row[t]
        return Cyclotomic(e2, acc)

    # -- predicates and views -----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_rational(self) -> Fraction | None:
        """The value as a rational, or None if it is not rational."""
        if any(self.coeffs[1:]):
            return None
        return Fraction(self.coeffs[0])

    def equals_rational(self, r) -> bool:
        return self.coeffs[0] == r and not any(self.coeffs[1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.equals_rational(other)
        return (isinstance(other, Cyclotomic)
                and self.conductor == other.conductor
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.conductor, self.coeffs))

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {self.render()!r})"

    def render(self) -> str:
        """Plain-text form like ``2 - z^2``; z is a primitive e-th root of unity."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(c)
            else:
                mon = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    body = mon
                elif c == -1:
                    body = "-" + mon
                else:
                    body = f"{c}*{mon}"
            parts.append(body)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def root_of_unity(k: int, e: int) -> Cyclotomic:
    """zeta_e^k as an element of Q(zeta_e)."""
    if e < 1:
        raise InputError("order must be positive")
    return Cyclotomic(e, _zeta_powers(e)[k % e])
