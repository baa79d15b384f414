"""The claim verifiers on class positions against the per-character route.

``gvz._Ctx`` holds every centre, kernel and curated normal subgroup as a
mask over the classes and checks each relation as one array pass;
``old_verify`` is the route it replaced, one ``Subgroup`` per character and
one memo lookup per relation, kept as the reference.  Each claim's report
must equal the reference record for record, and every mask must be the
element set that ``char_center`` and ``kernel`` give.
"""

from __future__ import annotations

import numpy as np
import pytest

from groupchar import (char_center, character_table, gn, is_gcp, is_gvz,
                       kernel, verify_all)
from groupchar import chartable, gvz, groups

import old_verify


@pytest.fixture(scope="module")
def cases(tables):
    """The zoo's tables (gn(3,2) among them) plus gn(7,1), gn(3,3) and gn(5,2)."""
    out = dict(tables)
    for p, n in ((7, 1), (3, 3), (5, 2)):
        out[f"gn({p},{n})"] = character_table(gn(p, n))
    return out


def _dicts(reports):
    return [r.to_dict() for r in reports]


def test_reports_equal_the_per_character_route(cases):
    for name, t in cases.items():
        assert _dicts(verify_all(t)) == _dicts(old_verify.verify_all(t)), name
        g = t.group
        if not g.is_abelian():
            assert is_gvz(t).to_dict() == old_verify.is_gvz(t).to_dict(), name
        for n in (g.center(), g.derived_subgroup()):
            assert is_gcp(t, n).to_dict() == old_verify.is_gcp(t, n).to_dict(), name


def test_masks_are_the_element_sets(cases):
    for name, t in cases.items():
        centres, kernels, support = chartable._class_masks(t)
        class_of = t.classes.class_array
        ctx = gvz._Ctx(t)
        for pos, chi in enumerate(t.irreducibles):
            assert np.flatnonzero(centres[pos][class_of]).tolist() == list(
                char_center(chi).members), name
            assert np.flatnonzero(kernels[pos][class_of]).tolist() == list(
                kernel(chi).members), name
            assert support[pos].tolist() == chi.coeffs.any(axis=1).tolist(), name
            assert ctx.subgroup(ctx.centre_ids[pos]) == char_center(chi), name
            assert ctx.subgroup(ctx.kernel_ids[pos]) == kernel(chi), name


def test_verify_all_reads_masks_and_builds_each_subgroup_once(tables, monkeypatch):
    def refuse(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return wrapper

    for fn in ("char_center", "kernel"):
        monkeypatch.setattr(chartable, fn, refuse(fn))
    contexts, built = [], []
    init, subgroup = gvz._Ctx.__init__, groups.Subgroup

    def spy_init(self, table):
        contexts.append(self)
        init(self, table)

    def spy_subgroup(parent, members):
        sub = subgroup(parent, members)
        built.append(sub)
        return sub

    monkeypatch.setattr(gvz._Ctx, "__init__", spy_init)
    monkeypatch.setattr(gvz, "Subgroup", spy_subgroup)
    t = tables["gn32"]
    assert all(r.passed for r in verify_all(t))
    (ctx,) = contexts
    mine = [sub.members for sub in built if sub.parent is t.group]
    assert mine and len(mine) == len(set(mine)) <= len(ctx.masks)
