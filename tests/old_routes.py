"""Routes that ``groups``, ``chartable`` and ``cli`` ran before they took
whole passes, kept verbatim apart from their names as the references the
tests check the new routes against.

- ``e_point_values``: the value lift through the full e-point transform of
  every class, ``e^-1 theta[P] @ Z mod q`` with Z[s, k] = z^(-s k), then one
  product with W, in blocks of characters.
- ``abelian_exponents``: cyclic extension with one fancy assignment per
  power of each new generator.
- ``per_entry``: the distinct table values found by ``np.unique`` over a
  void view of the coefficient rows.
- ``power_map``: the power map by e - 1 sequential gathers.
- ``element_orders``: each element's order by one gather per power, up to
  the largest order.
- ``cosets``: G/N through a second breadth-first search over the cosets
  (``enumerate_gathered``), numbered in the order of their smallest
  elements, with the classes left to the target's own propagation.
"""

from __future__ import annotations

import numpy as np

from groupchar import chartable, modular
from groupchar.cyclotomic import Cyclotomic
from groupchar.errors import ConsistencyError, InputError
from groupchar.groups import (Group, _bfs_words, _normality_witness,
                              enumerate_gathered, right_coset_minima)


def e_point_multiplicities(theta_pm, zmat, inv_e, q):
    """Residues ``e^-1 * theta_pm @ zmat mod q`` of shape (classes, e)."""
    return modular.matmul(theta_pm, zmat, q) * inv_e % q


def e_point_values(thetas, degrees, pm, e, q):
    """The coefficients of shape (classes, characters, phi(e)) that the
    e-point lift gives for the characters with residues ``thetas`` and
    ``degrees``, ``pm`` the (classes, e) power map, with both checks."""
    k = len(thetas)
    z = chartable._element_of_order(e, q)
    zpow = np.array([pow(z, j, q) for j in range(e)], dtype=np.int64)
    exps = np.arange(e)
    zmat = zpow[np.outer(exps, -exps) % e]
    inv_e = pow(e, -1, q)
    w, w_max = chartable._zeta_matrix(e)
    w = w.astype(modular.carrier(int(degrees.max()) * w_max))
    values = np.empty((len(pm), k, w.shape[1]), dtype=np.int64)
    step = max(1, chartable.BLOCK // (8 * k * e))
    for lo in range(0, k, step):
        d = degrees[lo:lo + step]
        mults = e_point_multiplicities(thetas[lo:lo + step][:, pm].reshape(-1, e),
                                       zmat, inv_e, q).reshape(len(d), len(pm), e)
        if (mults.sum(axis=2) != d[:, None]).any():
            raise ConsistencyError("root-of-unity multiplicities do not sum "
                                   "to the degree")
        coeffs = (mults.astype(w.dtype) @ w).astype(np.int64)
        if not chartable._rational_rows(coeffs[:, 0], d).all():
            raise ConsistencyError("identity value differs from the degree")
        values[:, lo:lo + step] = coeffs.transpose(1, 0, 2)
    return values


def abelian_exponents(g):
    """``chartable._abelian_exponents`` with one assignment per power."""
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


def per_entry(t, show):
    """``cli._per_entry`` by ``np.unique`` over 1-D void keys."""
    rows = t.values.reshape(-1, t.values.shape[2])  # one row per entry, class-major
    keys = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    shown = np.array([show(Cyclotomic(t.exponent, row)) for row in rows[first].tolist()],
                     dtype=object)
    return shown[inverse.reshape(len(t.classes), -1).T].tolist()


def power_map(g, classes, e):
    """``chartable._power_map`` by e - 1 sequential gathers."""
    reps = np.array(classes.reps, dtype=np.intp)
    powers = np.zeros((e, reps.size), dtype=np.intp)
    for s in range(1, e):
        powers[s] = g.table[powers[s - 1], reps]
    return tuple(map(tuple, classes.class_array[powers.T].tolist()))


def element_orders(g):
    """``Group.element_orders`` by one gather per power."""
    n = g.order
    orders = np.ones(n, dtype=np.int64)
    todo = np.arange(1, n)  # elements whose power has not hit 1 yet
    powers = todo.copy()
    for k in range(2, n + 1):
        if not todo.size:
            break
        powers = g.table[powers, todo]
        done = powers == 0
        orders[todo[done]] = k
        todo, powers = todo[~done], powers[~done]
    if todo.size:
        raise InputError(
            f"powers of {g.words[todo[0]]!r} never reach the "
            "identity; the multiplication is not a group law")
    return tuple(orders.tolist())


def cosets(g, n):
    """``groups._cosets`` through ``enumerate_gathered``."""
    witness = _normality_witness(g, n)
    if witness is not None:
        m, x, c = witness
        raise InputError(
            f"subgroup is not normal in {g.name}: conjugating "
            f"{g.words[m]} by {g.words[x]} gives {g.words[c]}, "
            "which is outside the subgroup")

    low = right_coset_minima(n)  # N is normal, so x N = N x
    reps = np.flatnonzero(low == np.arange(g.order))
    coset = np.zeros(g.order, dtype=np.uint16)
    coset[reps] = np.arange(reps.size)
    coset = coset[low]  # each element's coset, numbered in the order of reps
    gens: dict[int, str] = {}  # coset of each generator, named by the first
    for x in g.generators:
        gens.setdefault(int(coset[x]), g.words[x])
    order, parents, slots, table, rank = enumerate_gathered(
        g.name, reps.size,
        lambda rows, cols: coset[g.table[reps[rows][:, None], reps[cols]]],
        list(gens))
    section = reps[order]
    target = Group(lambda: f"{g.name}/{n.describe()}", section.tolist(),
                   _bfs_words(parents, slots, list(gens.values())),
                   rank[list(gens)].tolist(), table)
    if target.order * n.order != g.order:
        raise ConsistencyError("coset count does not match the index")
    return target, rank[coset], section
