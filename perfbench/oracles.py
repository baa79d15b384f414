"""Output oracles for the benchmark, independent of the program's arithmetic.

Each check returns a list of problems; an empty list means the output passed.
The table oracle parses the rendered values and tests both orthogonality
relations after mapping Z[zeta_e] to F_l, with zeta_e sent to an element of
order e, for a prime l = 1 (mod e) chosen from the seed and different from
the program's own field prime.  Group facts come from ``workloads``.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np

CLAIMS = ("thm1.1", "thm1.2", "lemmas", "prop2.11", "centres")
_INT64_MAX = 2 ** 63 - 1


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_factors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0 and _is_prime(d)]


def oracle_prime(seed: int, e: int, avoid: int) -> int:
    """A prime l = 1 (mod e) near a seeded start in [2^22, 2^23), l != avoid."""
    start = random.Random(seed).randrange(2 ** 22, 2 ** 23)
    ell = start + (1 - start) % e
    while not _is_prime(ell) or ell == avoid:
        ell += e
    return ell


def _element_of_order(e: int, ell: int) -> int:
    primes = _prime_factors(e)
    for c in range(2, ell):
        w = pow(c, (ell - 1) // e, ell)
        if all(pow(w, e // r, ell) != 1 for r in primes):
            return w
    raise ValueError(f"F_{ell} has no element of order {e}")


def parse_value(text: str, phi: int) -> dict[int, Fraction]:
    """Power-basis coefficients of a rendered value such as ``2 - 1/3*z^4``."""
    coeffs: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "z" in term:
            coef, _, mono = term.rpartition("*")
            if mono == "z":
                power = 1
            elif mono.startswith("z^") and mono[2:].isdigit():
                power = int(mono[2:])
            else:
                raise ValueError(f"bad monomial in {text!r}")
            coef = coef or "1"
        else:
            coef, power = term, 0
        if power >= phi:
            raise ValueError(f"{text!r} is not reduced to degree < {phi}")
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * Fraction(coef)
    return coeffs


def check_table(doc: dict, facts: dict, seed: int) -> list[str]:
    problems = []
    order = doc["group"]["order"]
    pay = doc["payload"]
    classes, irr, e = pay["classes"], pay["irreducibles"], pay["exponent"]
    k = len(classes)
    if doc["command"] != "table" or doc["passed"] is not True:
        problems.append("not a passed table report")
    if len(irr) != k or any(len(ch["values"]) != k for ch in irr):
        return problems + [f"table is not square ({len(irr)} rows, {k} classes)"]

    sizes = [c["size"] for c in classes]
    if sum(sizes) != order:
        problems.append(f"class sizes sum to {sum(sizes)}, not |G| = {order}")
    if any(order % s for s in sizes):
        problems.append("a class size does not divide |G|")
    if (classes[0]["size"], classes[0]["element_order"]) != (1, 1):
        problems.append("class 0 is not the identity class")
    if math.lcm(*(c["element_order"] for c in classes)) != e:
        problems.append(f"exponent {e} is not the lcm of the element orders")
    degrees = [ch["degree"] for ch in irr]
    if sum(d * d for d in degrees) != order:
        problems.append("sum of squared degrees differs from |G|")
    if any(order % d for d in degrees):
        problems.append("a degree does not divide |G|")

    expect = {"order": order, "classes": k, "class_sizes": sorted(sizes),
              "degrees": sorted(set(degrees)), "linear": degrees.count(1)}
    for key, want in facts.items():
        if key in expect and expect[key] != want:
            problems.append(f"{key} is {expect[key]}, expected {want}")

    phi = sum(1 for i in range(1, e + 1) if math.gcd(i, e) == 1)
    distinct = {v for ch in irr for v in ch["values"]}
    parsed = {v: parse_value(v, phi) for v in distinct}
    for ch in irr:
        d = ch["degree"]
        if {p: c for p, c in parsed[ch["values"][0]].items() if c} != {0: d}:
            problems.append(f"value at the identity is not the degree {d}")
            break

    ell = oracle_prime(seed, e, pay["field_prime"])
    if k * (ell - 1) ** 2 > _INT64_MAX:
        raise ValueError(f"{k} classes overflow int64 products mod {ell}")
    zeta = _element_of_order(e, ell)

    def image(root: int) -> np.ndarray:
        """The table in F_l with z sent to ``root``; each distinct value once."""
        powers = [pow(root, i, ell) for i in range(phi)]
        of = {text: sum(c.numerator * pow(c.denominator, -1, ell) * powers[p]
                        for p, c in coeffs.items()) % ell
              for text, coeffs in parsed.items()}
        return np.array([[of[v] for v in ch["values"]] for ch in irr],
                        dtype=np.int64)

    x = image(zeta)
    xbar = image(pow(zeta, -1, ell))  # complex conjugation sends z to z^-1
    s = np.array(sizes, dtype=np.int64) % ell
    rows = (x * s % ell) @ xbar.T % ell
    if not np.array_equal(rows, np.eye(k, dtype=np.int64) * (order % ell)):
        problems.append(f"first orthogonality fails mod {ell}")
    cols = x.T @ xbar % ell
    centralisers = np.array([order // c for c in sizes], dtype=np.int64) % ell
    if not np.array_equal(cols, np.diag(centralisers)):
        problems.append(f"second orthogonality fails mod {ell}")
    return problems


def _fourth_power_of_prime(n: int) -> bool:
    r = math.isqrt(math.isqrt(n))
    return r ** 4 == n and _is_prime(r)


def _unjustified_skip(claim: str, label: str, order: int, centres: int) -> bool:
    """A skipped check is justified only where its hypothesis provably fails.

    With more than one distinct character centre, the nonlinear centres are
    not all equal and some Z(chi) exceeds Z(G), so (G, Z(G)) is not a
    Camina-type pair.
    """
    if claim == "prop2.11" and label == "hypotheses":
        return _fourth_power_of_prime(order)
    if claim == "lemmas" and label.startswith(
            ("with all nonlinear centres equal",
             "for a Camina-type pair with the centre")):
        return centres < 2
    return True


def check_verify(doc: dict, facts: dict) -> list[str]:
    problems = []
    order = doc["group"]["order"]
    reports = doc["payload"]["reports"]
    if doc["command"] != "verify" or doc["passed"] is not True:
        problems.append("not a passed verify report")
    if order != facts["order"]:
        problems.append(f"order is {order}, expected {facts['order']}")
    if tuple(r["claim"] for r in reports) != CLAIMS:
        return problems + ["reports do not cover every claim in order"]
    census = reports[-1]
    for r in reports:
        if r["passed"] is not True:
            problems.append(f"{r['claim']} did not pass")
        for c in r.get("checks", []):
            if c["status"] == "fail":
                problems.append(f"{r['claim']}: check failed: {c['label']}")
            elif c["status"] == "skip" and _unjustified_skip(
                    r["claim"], c["label"], order, len(census["centres"])):
                problems.append(f"{r['claim']}: unjustified skip: {c['label']}")

    if census["nonlinear_total"] != facts["nonlinear"]:
        problems.append(f"nonlinear_total is {census['nonlinear_total']}, "
                        f"expected {facts['nonlinear']}")
    if any(c["order"] != facts["centre_order"] for c in census["centres"]):
        problems.append(f"a centre's order differs from {facts['centre_order']}")
    if sum(c["count"] for c in census["centres"]) != census["nonlinear_total"]:
        problems.append("per-centre counts do not sum to the nonlinear total")
    if census["all_predicted_present"] is not True:
        problems.append("not every predicted centre occurs")
    return problems


def check_output(command, text: str, facts: dict, seed: int, validator) -> list[str]:
    """All checks on one command's stdout."""
    try:
        doc = json.loads(text)
    except ValueError:
        return ["stdout is not JSON"]
    problems = [f"schema: {err.message}" for err in validator.iter_errors(doc)]
    if problems:
        return problems
    spec = json.dumps(command.spec, sort_keys=True, separators=(",", ":"))
    if doc["group"]["spec"] != spec:
        problems.append("envelope spec is not the canonical input spec")
    if command.verb[0] == "table":
        return problems + check_table(doc, facts, seed)
    return problems + check_verify(doc, facts)


def corrupt(text: str) -> str:
    """The same report with one table value altered or one pass made a fail."""
    doc = json.loads(text)
    if doc["command"] == "table":
        values = doc["payload"]["irreducibles"][-1]["values"]
        values[-1] = values[-1] + " + 1"
    else:
        checks = [c for r in doc["payload"]["reports"]
                  for c in r.get("checks", []) if c["status"] == "pass"]
        checks[0]["status"] = "fail"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
