"""The tables of the family gn(p, n) against their closed form.

With the labels (x, t, y) of ``constructions.gn`` (x, y in F_p^n, t in F_p),
(x, t, y)(x', t', y') = (x + x', t + t', y + y' - t x').  A = {t = 0} is
abelian of index p, and conjugation by a^j sends (x, 0, y) to
(x, 0, y + j x).  So, with zeta = zeta_p (Isaacs, Definition 5.1 and Ch. 6):

- the linear characters are those of G/G' = F_p^(n+1),
  (x, t, y) -> zeta^(u.x + s t);
- the nonlinear ones are chi_{u,v} = lambda_{u,v}^G for v != 0, with
  lambda_{u,v}(x, 0, y) = zeta^(u.x + v.y) and u taken modulo v: chi_{u,v}
  is p zeta^(u.x + v.y) on {t = 0, v.x = 0} and 0 elsewhere.

That gives p^(2n-1) - p^(n-1) characters of degree p, whose centres are
the (p^n - 1)/(p - 1) subgroups {t = 0, v.x = 0}, of order p^(2n-1).  The
rows are evaluated through the label of each class representative, with
zeta^j written in the power basis of Q(zeta_p) here, so the oracle shares
no code with the eigenspace split or the value lift.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from groupchar import character_table, gn, irr_star
from groupchar import gvz


def _zeta_rows(p: int) -> np.ndarray:
    """Row j: the coefficients of zeta_p^j in the basis 1, zeta, ..., zeta^(p-2);
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    return np.concatenate([np.eye(p - 1, dtype=np.int8), -np.ones((1, p - 1), dtype=np.int8)])


def _closed_form(p: int, n: int, labels: np.ndarray) -> np.ndarray:
    """The closed-form table on classes with representatives of the given
    labels, one row per character: its values' coefficients, flattened."""
    x, t, y = labels[:, :n], labels[:, n], labels[:, n + 1:]
    zeta = _zeta_rows(p)
    vectors = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    linear = ((vectors @ x.T)[:, None] + np.outer(np.arange(p), t)) % p  # u.x + s t
    rows = [zeta[linear].reshape(p ** (n + 1), -1)]
    for v in vectors[1:]:
        # u modulo v: the u that vanish where v first does not
        us = vectors[vectors[:, np.flatnonzero(v)[0]] == 0]
        support = (t == 0) & (x @ v % p == 0)
        values = p * zeta[(us @ x.T + y @ v) % p] * support[None, :, None]
        rows.append(values.reshape(len(us), -1))
    return np.concatenate(rows)


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    return a[np.lexsort(a.T[::-1])]


@pytest.mark.parametrize("p, n", [
    (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3),
    pytest.param(7, 2, marks=pytest.mark.slow),
    pytest.param(3, 4, marks=pytest.mark.slow),
])
def test_gn_table_and_centres_match_the_closed_form(p, n):
    g = gn(p, n)
    t = character_table(g)
    assert t.exponent == p
    labels = np.array(g.elements, dtype=np.int64)

    # the table, as a set of rows through each class representative's label
    want = _closed_form(p, n, labels[list(t.classes.reps)])
    assert len(want) == len(t) == p ** (n + 1) + p ** (2 * n - 1) - p ** (n - 1)
    assert np.abs(t.values).max() <= p  # so the values fit the oracle's int8
    got = t.values.transpose(1, 0, 2).reshape(len(t), -1).astype(np.int8)
    assert np.array_equal(_sorted_rows(got), _sorted_rows(want))

    # thm1.1 per centre: one centre {t = 0, v.x = 0} per line of v, over a
    # fibre and a star set of p^(n-1)(p-1) characters each
    ctx = gvz._Ctx(t)
    nl = ctx.nonlinear
    centres, firsts, fibres = np.unique(ctx.centre_ids[nl], return_index=True,
                                        return_counts=True)
    assert len(centres) == (p ** n - 1) // (p - 1)
    x, a = labels[:, :n], labels[:, n] == 0
    hyperplanes = {tuple(np.flatnonzero(a & (x @ v % p == 0)).tolist())
                   for v in itertools.product(range(p), repeat=n) if any(v)}
    assert {ctx.subgroup(z).members for z in centres.tolist()} == hyperplanes
    assert (ctx.orders[centres] == p ** (2 * n - 1)).all()
    commutators = [ctx.commutator(z) for z in centres.tolist()]  # interned first
    assert (ctx.orders[commutators] == p ** (n - 1)).all()
    assert (fibres == p ** (n - 1) * (p - 1)).all()
    for pos in nl[firsts].tolist():
        assert len(irr_star(t, t.irreducibles[pos], _ctx=ctx).lambdas) == p ** (n - 1) * (p - 1)
