"""The benchmark's workloads: fixed ``groupchar`` CLI commands, and the facts
about each group that its output must show.

The facts come from closed forms (the gn(p, n) family, cyclic groups) or from
``sympy.combinatorics``; none is a stored copy of the program's output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Command:
    label: str
    spec: dict
    verb: tuple[str, ...]  # ("table",) or ("verify", "all")
    facts: Callable[[], dict]

    @property
    def argv(self) -> list[str]:
        return [*self.verb, "--group", json.dumps(self.spec), "--format", "json"]


def gn_facts(p: int, n: int) -> Callable[[], dict]:
    """gn(p, n) has order p^(2n+1), degrees {1, p} and p^(n+1) linear
    characters, so p^(2n-1) - p^(n-1) nonlinear ones, each of degree p and
    so with a centre of order p^(2n+1) / p^2."""
    def facts():
        linear = p ** (n + 1)
        nonlinear = p ** (2 * n - 1) - p ** (n - 1)
        return {"order": p ** (2 * n + 1), "classes": linear + nonlinear,
                "degrees": [1, p], "linear": linear, "prime": p,
                "nonlinear": nonlinear, "centre_order": p ** (2 * n - 1)}
    return facts


def cyclic_facts(m: int) -> Callable[[], dict]:
    return lambda: {"order": m, "classes": m, "degrees": [1], "linear": m}


def sympy_facts(build: Callable) -> Callable[[], dict]:
    """Order, class count and sorted class sizes computed by sympy."""
    def facts():
        g = build()
        sizes = sorted(len(c) for c in g.conjugacy_classes())
        return {"order": int(g.order()), "classes": len(sizes),
                "class_sizes": sizes}
    return facts


def _s6():
    from sympy.combinatorics import Permutation, PermutationGroup
    return PermutationGroup([Permutation([[0, 1, 2, 3, 4, 5]]),
                             Permutation([[0, 1]])])


def _d5_x_c12():
    from sympy.combinatorics.group_constructs import DirectProduct
    from sympy.combinatorics.named_groups import CyclicGroup, DihedralGroup
    return DirectProduct(DihedralGroup(5), CyclicGroup(12))


def _table(label, spec, facts):
    return Command(label, spec, ("table",), facts)


def _verify(label, spec, facts):
    return Command(label, spec, ("verify", "all"), facts)


def _gn(p, n):
    return {"type": "gn", "p": p, "n": n}


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # Exponent 60 (phi = 16): the value lift dominates the first two; S6 has
    # only 11 classes, so a lift change that pays only for large k shows none.
    "table-lift": (
        _table("table cyclic(60)", {"type": "cyclic", "n": 60},
               cyclic_facts(60)),
        _table("table d5 x C12",
               {"type": "product",
                "factors": [{"type": "named", "name": "d5"},
                            {"type": "cyclic", "n": 12}]},
               sympy_facts(_d5_x_c12)),
        _table("table S6",
               {"type": "perm", "points": 6,
                "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]},
               sympy_facts(_s6)),
    ),
    # The claim verifiers over Fraction-based cyclotomic arithmetic, with two
    # conductors (phi = 2 and 6) and about 37 small nested tables per group.
    "verify-all": (
        _verify("verify all gn(3,2)", _gn(3, 2), gn_facts(3, 2)),
        _verify("verify all gn(7,1)", _gn(7, 1), gn_facts(7, 1)),
    ),
}
