"""What the claim verifiers build besides the table they are given.

``verify`` takes G/1 to be G itself, so no relabelled copy of G and no
second table of it is built.  The comparison that the copy used to make at
run time is kept here: the table of the copy, lifted back, must give every
row of the table exactly once, so the table does not depend on how the
elements are labelled.  Quotients by N != 1 keep tables of their own, shared
only between quotients and centres with equal Cayley tables, and a
quotient's name is only built when something reads it.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import groupchar
from groupchar import (character_table, direct_product, gn, irr_star, kernel,
                       lift, named, quotient, verify_all, verify_fiber_theorem)
from groupchar import chartable, cli, gvz
from groupchar.groups import Subgroup, coset

import old_verify


@pytest.fixture(scope="module")
def wider(zoo, tables):
    """The zoo's groups with their tables, gn(3,2) among them, plus gn(7,1)."""
    out = {name: (g, tables[name]) for name, g in zoo.items()}
    g = gn(7, 1)
    out["gn(7,1)"] = (g, character_table(g))
    return out


def test_table_of_the_relabelled_copy_lifts_onto_every_row(wider):
    for name, (g, t) in wider.items():
        qm = quotient(g, Subgroup(g, [0]))
        assert qm.target is not g and qm.target.order == g.order, name
        rows = [t.row_of(lift(ch, qm)) for ch in character_table(qm.target).irreducibles]
        assert sorted(rows) == list(range(len(t))), name


def test_verify_all_builds_no_table_of_the_whole_group(wider, monkeypatch):
    orders = []
    original = gvz.character_tables

    def spy(hs, **kwargs):
        orders.extend(h.order for h in hs)
        return original(hs, **kwargs)

    monkeypatch.setattr(gvz, "character_tables", spy)
    for name, (g, t) in wider.items():
        orders.clear()
        reports = verify_all(t)
        assert all(r.passed for r in reports), name
        assert g.order not in orders, name
        if not g.is_abelian():
            assert orders, name  # the nested tables of N != 1 are still built


def test_trivial_quotient_in_the_context_is_the_identity(wider):
    g, t = wider["gn(7,1)"]
    ctx = gvz._Ctx(t)
    (trivial,) = ctx.ids_of([Subgroup(g, [0])])
    assert trivial == ctx.trivial
    target, classes, section = ctx.quotient(trivial)
    assert target is g
    assert classes.tolist() == list(range(len(t.classes)))
    assert section.tolist() == list(range(g.order))
    assert ctx.quotient_table(trivial) is t
    assert ctx.lifted(trivial).tolist() == [True] * len(t) + [False]
    # N != 1 still gets a group and a table of its own
    z = ctx.centre_of_g
    target, _, _ = ctx.quotient(z)
    assert target is not g and ctx.quotient_table(z).group is target


def test_quotient_names_its_target_on_first_read(wider, monkeypatch):
    calls = []
    original = Subgroup.small_generators

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Subgroup, "small_generators", spy)
    for name, (g, _) in wider.items():
        for n in {g.center(), g.derived_subgroup(), Subgroup(g, [0])}:
            fresh = Subgroup(g, n.members)  # no generators cached yet
            calls.clear()
            qm = quotient(g, fresh)
            assert calls == [], name
            assert qm.target.name == f"{g.name}/{fresh.describe()}", name
            assert calls, name  # the name asked for the generators


# ---------------------------------------------------------------------------
# element sets as arrays, against the set loops they replaced

def _reference_star(ctx, pos):
    """Irr*(Z) for the irreducible at ``pos`` by set comprehensions over
    ``to_parent``, from the table of Z in ``ctx``, a context of the
    per-character route (``old_verify``)."""
    centre = ctx.centre(pos)
    m_set = set(ctx.commutator_with_group(centre).members)
    d_set = set(ctx.derived().members)
    out = []
    for lam in ctx.subgroup_table(centre).irreducibles:
        ker_parent = {centre.to_parent(s) for s in kernel(lam).members}
        if m_set <= ker_parent and not d_set <= ker_parent:
            out.append(lam)
    return out


def _reference_coset_condition(ctx, centre):
    """The coset condition by set loops, in a context of the per-character
    route (``old_verify``)."""
    classes = ctx.table.classes
    m = ctx.commutator_with_group(centre)
    others = {x for pos in ctx.nonlinear_positions()
              if ctx.centre(pos) != centre for x in ctx.centre(pos).members}
    for x in centre.members:
        if x in others:
            continue
        cls = classes.members[classes.class_of[x]]
        cos = coset(x, m)
        if cls != cos:
            return False, {"element": ctx.g.words[x],
                           "coset_size": len(cos), "class_size": len(cls)}
    return True, None


def _coefficient_set(lams):
    return sorted((lam.degree, lam.coeffs.tobytes()) for lam in lams)


def test_star_sets_match_the_set_loop(wider):
    # The lifts of Irr(Z/[Z,G]) minus those killing G' are the characters of
    # Z's own table that the reference keeps: the same lambda, as coefficient
    # arrays on the classes of Z.as_group(), which both contexts build alike.
    count = 0
    for name, (g, t) in wider.items():
        ctx, old = gvz._Ctx(t), old_verify._Ctx(t)
        if not ctx.two_degree_gvz[0]:
            continue
        for pos in ctx.nonlinear.tolist():
            star = irr_star(t, t.irreducibles[pos], _ctx=ctx)
            want = _reference_star(old, pos)
            assert _coefficient_set(star.lambdas) == _coefficient_set(want), name
            assert len(star.lifts) == star.centre.order // star.commutator.order, name
            count += len(want)
    assert count > 100


def test_kernel_test_refuses_elements_outside_the_centre(tables):
    t = tables["c3"]
    lam = next(ch for ch in t.irreducibles if kernel(ch).order == t.group.order)
    assert gvz._kills(lam, np.array([0, 1, 2]))
    assert not gvz._kills(lam, np.array([-1, 0]))


def test_coset_condition_matches_the_set_loop(wider):
    s3 = named("s3")
    extra = direct_product(s3, s3)  # Z(chi x 1) = 1 x S3 fails at (1, 3-cycle)
    cases = [t for _, t in wider.values()] + [character_table(extra)]
    for t in cases:
        ctx, old = gvz._Ctx(t), old_verify._Ctx(t)
        for pos in range(len(t)):
            assert (ctx.coset_condition(int(ctx.centre_ids[pos]))
                    == _reference_coset_condition(old, old.centre(pos))), t.group.name
    # ctx is now the context of S3 x S3
    fails = [z for z in set(ctx.centre_ids[ctx.nonlinear].tolist())
             if not ctx.coset_condition(z)[0]]
    assert fails  # a nonlinear centre where skipping the other centres matters


# ---------------------------------------------------------------------------
# memory: verify peaks near its own table

_CHILD = """
import contextlib, os, sys
from groupchar.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
print(code, int(hwm.split()[1]))
"""


def _peak_kib(*argv: str) -> int:
    """Peak resident size in KiB of one CLI run, which must exit 0, in a
    fresh child that reads its own ``VmHWM``; ``getrusage`` would carry
    over the resident size of this process."""
    src = os.path.dirname(os.path.dirname(groupchar.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, kib = map(int, out.split())
    assert code == 0, argv
    return kib


def _count_tables(monkeypatch):
    """Patch the ``character_tables`` that ``verify`` calls to list the
    groups it builds tables of."""
    calls = []
    original = gvz.character_tables

    def spy(hs):
        calls.extend(hs)
        return original(hs)

    monkeypatch.setattr(gvz, "character_tables", spy)
    return calls


def test_reused_nested_tables_equal_fresh_ones(wider, monkeypatch):
    # A table reused for another quotient or centre is rebound onto the
    # asking group and equals that group's own table row for row.
    seen = []
    nested_tables = gvz._Ctx.nested_tables

    def spy(self, hs):
        out = nested_tables(self, hs)
        seen.extend(zip(hs, out))
        return out

    monkeypatch.setattr(gvz._Ctx, "nested_tables", spy)
    calls = _count_tables(monkeypatch)
    for name in ("gn32", "gn(7,1)", "heis3xc3"):
        seen.clear()
        calls.clear()
        verify_all(wider[name][1])
        assert len(calls) < len(seen), name  # some tables were reused
        for h, t in seen:
            fresh = character_table(h)
            assert t.group is h and all(ch.group is h for ch in t.irreducibles)
            assert ([(ch.degree, ch.coeffs.tolist()) for ch in t.irreducibles]
                    == [(ch.degree, ch.coeffs.tolist()) for ch in fresh.irreducibles])
            assert t.field_prime == fresh.field_prime and t.classes == fresh.classes


def test_each_verify_all_builds_its_own_nested_tables(wider, monkeypatch):
    calls = _count_tables(monkeypatch)
    t = wider["gn32"][1]
    verify_all(t)
    first = len(calls)
    verify_all(t)
    assert first > 0 and len(calls) == 2 * first


def test_batched_nested_tables_equal_their_own_tables(monkeypatch):
    # Every group verify_all builds a table of, split in its batch, gets the
    # table it gets alone: the same rows, classes and prime.
    batches = []
    original = gvz.character_tables

    def spy(hs):
        out = original(hs)
        batches.append((hs, out))
        return out

    monkeypatch.setattr(gvz, "character_tables", spy)
    for g in (gn(3, 2), gn(7, 1), gn(3, 3)):
        verify_all(character_table(g))
    shared = [len({len(h.conjugacy_classes()) for h in hs if not h.is_abelian()})
              < sum(not h.is_abelian() for h in hs) for hs, _ in batches]
    assert any(shared)  # some batches split several groups together
    for hs, out in batches:
        for h, t in zip(hs, out):
            fresh = character_table(h)
            assert t.group is h
            assert ([(ch.degree, ch.coeffs.tolist()) for ch in t.irreducibles]
                    == [(ch.degree, ch.coeffs.tolist()) for ch in fresh.irreducibles])
            assert t.classes == fresh.classes and t.field_prime == fresh.field_prime


def test_a_failed_split_in_a_batch_exits_5(monkeypatch, capsys):
    # The nested tables of order 27 of gn(3,2) split in one batch; the
    # second of them gets no split matrices.
    seen = []
    original = chartable._split_matrices

    def broken(g, *rest):
        if g.order == 27:
            seen.append(g)
            if len(seen) == 2:
                return iter([])
        return original(g, *rest)

    monkeypatch.setattr(chartable, "_split_matrices", broken)
    spec = '{"type": "gn", "p": 3, "n": 2}'
    assert cli.main(["verify", "all", "--group", spec, "--format", "json"]) == 5
    assert capsys.readouterr().out == "" and len(seen) > 2


def test_verify_fiber_theorem_lets_go_of_each_centre_group(wider):
    g, t = wider["gn32"]
    ctx = gvz._Ctx(t)
    verify_fiber_theorem(t, _ctx=ctx)
    centres = set(ctx.centre_ids[ctx.nonlinear].tolist())
    assert len(centres) > 1
    assert all(ctx.subgroup(z)._group is None for z in centres)


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs VmHWM from /proc")
def test_verify_all_peaks_within_half_again_its_table():
    spec = '{"type": "gn", "p": 23, "n": 1}'
    table = _peak_kib("table", "--group", spec, "--format", "json")
    verify = _peak_kib("verify", "all", "--group", spec, "--format", "json")
    assert verify <= 1.5 * table, (verify, table)
