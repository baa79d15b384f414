"""Builders for the bundled group zoo.

``gn(p, n)`` is the collected presentation

    < a, a_1..a_n, b_1..b_n | [a_i, a] = b_i, x^p = 1 for every generator >

with all unlisted commutators trivial: the b_i are central and the a_i
commute with each other.  Elements are kept in the normal form
(prod a_i^x_i) * a^t * (prod b_i^y_i); collecting a^t past a_j^x'_j costs
b_j^(-t x'_j), so

    (x, t, y) * (x', t', y') = (x + x', t + t', y + y' - t x')   (mod p).

The defining relations are re-checked on the constructed group every time,
so a sign slip in the formula cannot survive construction.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ConsistencyError, InputError, ResourceError
from .groups import (ORDER_CAP, Group, admit, build_group, enumerate_gathered,
                     enumerate_from_permutations, generated_by, perm_from_cycles)
from .modular import is_prime


def cyclic(m: int, *, cap: int = ORDER_CAP) -> Group:
    if m < 1:
        raise InputError("cyclic group order must be at least 1")
    admit(m, cap)
    # Discovery from the generator 1 meets 0, 1, ..., m-1 in turn, and row i
    # of the table is 0..m-1 rotated left by i.
    ring = np.arange(m, dtype=np.uint16)
    table = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([ring, ring]), m)[:m]
    words = ["1", "g"][:m] + [f"g^{x}" for x in range(2, m)]
    return Group(f"C{m}", range(m), words, [1] if m > 1 else [], np.array(table))


def elementary_abelian(p: int, k: int, *, cap: int = ORDER_CAP) -> Group:
    if not is_prime(p):
        raise InputError(f"{p} is not a prime")
    if k < 0:
        raise InputError("rank must be nonnegative")
    admit(p ** k, cap)
    gens = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]

    def word(v):
        parts = [f"g{i + 1}" + (f"^{c}" if c > 1 else "")
                 for i, c in enumerate(v) if c]
        return "*".join(parts) or "1"

    return build_group(f"C{p}^{k}", gens, lambda a, b: (a + b) % p,
                       tuple(0 for _ in range(k)),
                       gen_names=[f"g{i + 1}" for i in range(k)],
                       cap=cap, word_fn=word)


def direct_product(a: Group, b: Group, *, cap: int = ORDER_CAP) -> Group:
    """A x B on the labels (x, y); products are gathered from the factor
    tables through the code x * |B| + y."""
    admit(a.order * b.order, cap)
    nb = b.order
    gens = list(dict.fromkeys([x * nb for x in a.generators] + list(b.generators)))

    def product(rows, cols):
        return (a.table[rows[:, None] // nb, cols // nb].astype(np.intp) * nb
                + b.table[rows[:, None] % nb, cols % nb])

    name = f"{a.name} x {b.name}"
    order, _, _, table, rank = enumerate_gathered(name, a.order * nb, product,
                                                  gens, cap=cap)
    labels = list(zip((order // nb).tolist(), (order % nb).tolist()))
    words = ["1"] + [f"({a.words[x]},{b.words[y]})" for x, y in labels[1:]]
    return Group(name, labels, words, rank[gens].tolist(), table)


def gn_order(p: int, n: int, *, cap: int = ORDER_CAP) -> int:
    """The order p^(2n+1) of gn(p, n), once the parameters pass every check.

    The cheap checks come first, and the order is bounded by the cap before
    it is formed, so only a p small enough to fit reaches ``is_prime``.
    """
    if p < 3 or p % 2 == 0:
        raise InputError(f"p = {p} is not an odd prime")
    if n < 1:
        raise InputError(f"n = {n} must be at least 1")
    order = 1
    for _ in range(2 * n + 1):
        order *= p
        if order > ORDER_CAP:
            raise ResourceError(f"order {p}^{2 * n + 1} exceeds the cap "
                                f"({min(cap, ORDER_CAP)})")
    admit(order, cap)
    if not is_prime(p):
        raise InputError(f"p = {p} is not an odd prime")
    return order


def gn(p: int, n: int, *, cap: int = ORDER_CAP) -> Group:
    """The two-degree family of order p^(2n+1) and exponent p (p an odd prime)."""
    order = gn_order(p, n, cap=cap)

    # label = (x_1..x_n, t, y_1..y_n): (prod a_i^x_i) * a^t * (prod b_i^y_i)
    zero = tuple(0 for _ in range(2 * n + 1))

    def comp(u, v):
        out = u + v
        out[:, n + 1:] -= u[:, n:n + 1] * v[:, :n]
        return out % p

    def unit(pos):
        return tuple(1 if i == pos else 0 for i in range(2 * n + 1))

    alpha = unit(n)
    alphas = [unit(i) for i in range(n)]
    betas = [unit(n + 1 + i) for i in range(n)]
    gen_labels = [alpha] + alphas + betas
    gen_names = ["a"] + [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]

    def word(u):
        parts = []
        for i in range(n):
            if u[i]:
                parts.append(f"a{i + 1}" + (f"^{u[i]}" if u[i] > 1 else ""))
        if u[n]:
            parts.append("a" + (f"^{u[n]}" if u[n] > 1 else ""))
        for i in range(n):
            if u[n + 1 + i]:
                parts.append(f"b{i + 1}" + (f"^{u[n + 1 + i]}" if u[n + 1 + i] > 1 else ""))
        return "*".join(parts) or "1"

    g = build_group(f"gn({p},{n})", gen_labels, comp, zero,
                    gen_names=gen_names, cap=cap, word_fn=word)
    if g.order != order:
        raise ConsistencyError("collected enumeration missed elements")

    # pin the presentation: [a_i, a] = b_i, generator orders p, the b_i
    # central, and the a_i pairwise commuting
    ia = g.index_of(alpha)
    ials = [g.index_of(x) for x in alphas]
    ibets = [g.index_of(x) for x in betas]

    def comm(x, y):
        return g.mul(g.mul(g.inv(x), g.inv(y)), g.mul(x, y))

    for i in range(n):
        if comm(ials[i], ia) != ibets[i]:
            raise ConsistencyError("collection formula violates [a_i, a] = b_i")
    for idx in [ia] + ials + ibets:
        if g.power(idx, p) != 0:
            raise ConsistencyError("generator order is not p")
    for i in range(n):
        for j in range(n):
            if comm(ials[i], ials[j]) != 0:
                raise ConsistencyError("a_i fail to commute")
        for other in [ia] + ials + ibets:
            if comm(ibets[i], other) != 0:
                raise ConsistencyError("b_i are not central")

    g.meta.update({"family": "gn", "p": p, "n": n,
                   "alpha": ia, "alphas": ials, "betas": ibets})
    return g


def heisenberg(p: int, *, cap: int = ORDER_CAP) -> Group:
    """Extraspecial group of order p^3 and exponent p (p odd): gn(p, 1)."""
    return gn(p, 1, cap=cap)


def predicted_centres(g: Group) -> list[tuple[int, ...]]:
    """For a gn-family group: the centres <a_i (i in S), b_1..b_n> with |S| = n-1.

    Returned as sorted member tuples.  Other groups have no prediction.
    """
    meta = g.meta
    if meta.get("family") != "gn":
        return []
    alphas, betas, n = meta["alphas"], meta["betas"], meta["n"]
    out = []
    for combo in combinations(alphas, n - 1):
        out.append(generated_by(g, list(combo) + list(betas)).members)
    return sorted(out)


def _q8() -> Group:
    # left-regular action of i and j on the eight unit quaternions
    # ordered 1, i, j, k, -1, -i, -j, -k
    return enumerate_from_permutations(
        8, [(1, 4, 3, 6, 5, 0, 7, 2), (2, 7, 4, 1, 6, 3, 0, 5)],
        name="q8", gen_names=["i", "j"])


_PERM_CATALOG: dict[str, tuple[int, list[list[list[int]]], list[str]]] = {
    # name: (points, generators as cycle lists, generator names)
    "s3": (3, [[[1, 2, 3]], [[1, 2]]], ["a", "b"]),
    "d4": (4, [[[1, 2, 3, 4]], [[1, 3]]], ["r", "s"]),
    "d5": (5, [[[1, 2, 3, 4, 5]], [[2, 5], [3, 4]]], ["r", "s"]),
    "c3wrc3": (9, [[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]],
                   [[1, 4, 7], [2, 5, 8], [3, 6, 9]]], ["a", "b", "c", "s"]),
}


def named(name: str, *, cap: int = ORDER_CAP) -> Group:
    """One of the catalogued groups; raises InputError listing the catalogue."""
    if name in _PERM_CATALOG:
        points, cycle_gens, gen_names = _PERM_CATALOG[name]
        perms = [perm_from_cycles(points, cycles) for cycles in cycle_gens]
        return enumerate_from_permutations(points, perms, name=name,
                                           gen_names=gen_names, cap=cap)
    if name == "q8":
        return _q8()
    if name == "heis3":
        return heisenberg(3, cap=cap)
    if name == "heis5":
        return heisenberg(5, cap=cap)
    if name == "phi4_15_p3":
        return gn(3, 2, cap=cap)
    known = sorted(list(_PERM_CATALOG) + ["q8", "heis3", "heis5", "phi4_15_p3"])
    raise InputError(f"unknown group name {name!r}; available: {', '.join(known)}")


def is_integer(value) -> bool:
    """Whether a JSON value is an integer (true parses to a bool, an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def from_spec(spec, *, cap: int = ORDER_CAP) -> Group:
    """Build a group from the JSON group description used by the CLI."""
    if not isinstance(spec, dict):
        raise InputError("group spec must be a JSON object")
    kind = spec.get("type")
    if kind == "gn":
        p, n = spec.get("p"), spec.get("n")
        if not is_integer(p) or not is_integer(n):
            raise InputError('gn spec needs integer "p" and "n"')
        return gn(p, n, cap=cap)
    if kind == "cyclic":
        m = spec.get("n")
        if not is_integer(m):
            raise InputError('cyclic spec needs an integer "n"')
        return cyclic(m, cap=cap)
    if kind == "named":
        name = spec.get("name")
        if not isinstance(name, str):
            raise InputError('named spec needs a string "name"')
        return named(name, cap=cap)
    if kind == "perm":
        points = spec.get("points")
        gens = spec.get("generators")
        if not is_integer(points) or points < 1:
            raise InputError('perm spec needs a positive integer "points"')
        if (not isinstance(gens, list) or not gens
                or not all(isinstance(c, list) for c in gens)):
            raise InputError('perm spec needs a nonempty list "generators" '
                             'of cycle lists')
        if not all(isinstance(cyc, list) and all(map(is_integer, cyc))
                   for gen in gens for cyc in gen):
            raise InputError("perm spec cycles must be lists of integer points")
        # Only the moved points get a position, so a huge "points" costs
        # nothing; relabelling them in order keeps every product, and so the
        # element order and the output.
        support = sorted({p for gen in gens for cyc in gen for p in cyc}) or [1]
        perms = [perm_from_cycles(points, cycles, support) for cycles in gens]
        return enumerate_from_permutations(len(support), perms,
                                           name=f"perm({points})", cap=cap)
    if kind == "product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or len(factors) < 1:
            raise InputError('product spec needs a nonempty list "factors"')
        groups = [from_spec(f, cap=cap) for f in factors]
        out = groups[0]
        for extra in groups[1:]:
            out = direct_product(out, extra, cap=cap)
        return out
    raise InputError(
        f"unknown group spec type {kind!r}; expected one of "
        "gn, perm, cyclic, product, named")
