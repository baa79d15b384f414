"""Vanishing-off-centre analysis: verdicts, fibres and the claim verifiers.

Expected counts for the order-27 extraspecial group are classical: two
nonlinear characters of degree three, both with centre Z(G) of order three,
each induced from one of the two nontrivial characters of the centre with
multiplicity three.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from groupchar import (
    HypothesisNotMet,
    InputError,
    TheoremViolation,
    centre_census,
    character_table,
    direct_product,
    fiber_count,
    irr_star,
    is_gcp,
    is_gvz,
    cyclic,
    unique_nonlinear_constituent,
    verify_all,
    verify_claim,
    verify_coset_criterion,
    verify_fiber_theorem,
    verify_identity_suite,
    verify_p4_criterion,
)
from groupchar import char_center, gvz, kernel
from groupchar.groups import Subgroup, generated_by

import old_verify


def test_is_gvz_verdicts(tables):
    for name in ("d4", "q8", "heis3", "heis5", "gn32"):
        rep = is_gvz(tables[name])
        assert rep.holds and rep.witness is None
        for r in rep.records:
            assert r.degree_matches_index and r.vanishes_off_centre
    for name in ("s3", "d5"):
        rep = is_gvz(tables[name])
        assert not rep.holds
        w = rep.witness
        assert w is not None
        assert w["degree"] > 1 and w["value"] != "0"
        assert w["degree_squared"] < w["centre_index"]
        # the two formulations agree character by character
        for r in rep.records:
            assert r.degree_matches_index == r.vanishes_off_centre


def test_is_gvz_requires_nonabelian(tables):
    with pytest.raises(HypothesisNotMet):
        is_gvz(tables["c6"])


def test_is_gcp_verdicts(tables):
    g = tables["heis3"].group
    res = is_gcp(tables["heis3"], g.center())
    assert res.holds and res.witness is None and res.normal_order == 3

    s3 = tables["s3"].group
    res = is_gcp(tables["s3"], s3.derived_subgroup())
    assert res.holds  # the degree-2 character vanishes on all transpositions

    w = tables["c3wrc3"].group
    res = is_gcp(tables["c3wrc3"], w.center())
    assert not res.holds
    assert set(res.witness) == {"element", "class_size", "coset_size",
                                "nonvanishing_degree", "value"}
    assert res.witness["class_size"] < res.witness["coset_size"]


def test_is_gcp_input_validation(tables):
    s3 = tables["s3"].group
    with pytest.raises(InputError):
        is_gcp(tables["s3"], tables["heis3"].group.center())
    reflection = next(x for x in range(s3.order) if s3.element_orders()[x] == 2)
    with pytest.raises(InputError):
        is_gcp(tables["s3"], generated_by(s3, [reflection]))


def test_fiber_count_heis3(tables):
    t = tables["heis3"]
    chi = t.nonlinear()[0]
    fc = fiber_count(t, chi)
    assert fc.count == 2
    assert fc.formula == Fraction(2)
    assert fc.hypothesis_met and fc.passed
    with pytest.raises(InputError):
        fiber_count(t, t.linear()[0])


def test_fiber_count_without_hypotheses(tables):
    t = tables["s3"]
    fc = fiber_count(t, t.nonlinear()[0])
    assert fc.count == 1
    assert fc.formula is None and not fc.hypothesis_met and fc.passed is None


def test_irr_star_heis3(tables):
    t = tables["heis3"]
    star = irr_star(t, t.nonlinear()[0])
    assert star.centre.order == 3
    assert star.commutator.order == 1
    assert star.derived_in_centre
    assert len(star.lambdas) == 2
    for lam in star.lambdas:
        assert lam.degree == 1
        assert not all(v.equals_rational(1) for v in lam.values)


def test_irr_star_requires_two_degree_vanishing(tables):
    with pytest.raises(HypothesisNotMet):
        irr_star(tables["s3"], tables["s3"].nonlinear()[0])
    with pytest.raises(InputError):
        irr_star(tables["heis3"], tables["heis3"].linear()[0])


def test_unique_nonlinear_constituent(tables):
    t = tables["heis3"]
    star = irr_star(t, t.nonlinear()[0])
    seen = set()
    for lam in star.lambdas:
        con = unique_nonlinear_constituent(t, lam, star.centre)
        assert con.multiplicity == 3
        assert con.theta.degree == 3
        assert con.formula_holds, con.checks
        seen.add(con.theta_position)
    assert len(seen) == 2  # distinct inducing characters, distinct constituents


def test_context_interns_subgroups_by_value(tables):
    t = tables["gn32"]
    g = t.group
    k = len(t.irreducibles)
    ctx = gvz._Ctx(t)
    # one id per distinct class mask, each with one subgroup, built once
    assert len(np.unique(ctx.masks, axis=0)) == len(ctx.masks)
    assert len(set(ctx.centre_ids.tolist())) < k  # some centres are shared
    for i in range(k):
        assert ctx.subgroup(ctx.kernel_ids[i]) == kernel(t.irreducibles[i])
        assert ctx.subgroup(ctx.centre_ids[i]) == char_center(t.irreducibles[i])
    for i in range(len(ctx.masks)):
        sub = ctx.subgroup(i)
        assert ctx.subgroup(i) is sub
        assert ctx.ids_of([Subgroup(g, sub.members)]) == [i]
        assert ctx.subgroup(i) is sub  # an equal subgroup does not replace it
        assert ctx.orders[i] == sub.order

    # a centre from another context is equal, not identical, and serves as well
    other = gvz._Ctx(t)
    for i in range(k):
        mine, theirs = ctx.subgroup(ctx.centre_ids[i]), other.subgroup(other.centre_ids[i])
        assert mine == theirs and mine is not theirs
    pos = ctx.nonlinear[0]
    star = irr_star(t, t.irreducibles[pos], _ctx=other)
    for lam in star.lambdas:
        con = unique_nonlinear_constituent(t, lam, star.centre, _ctx=ctx)
        assert con.formula_holds, con.checks

    # the same lambda as the per-character route's, as coefficient sets,
    # for every nonlinear character
    for pos in ctx.nonlinear.tolist():
        chi = t.irreducibles[pos]
        lams = [irr_star(t, chi, _ctx=ctx).lambdas, old_verify.irr_star(t, chi).lambdas]
        assert len({tuple(sorted(lam.coeffs.tobytes() for lam in ls)) for ls in lams}) == 1


def test_trivial_inducing_character_violates_uniqueness(tables):
    t = tables["heis3"]
    star = irr_star(t, t.nonlinear()[0])
    trivial = next(lam for lam in star.lifts
                   if all(v.equals_rational(1) for v in lam.values))
    with pytest.raises(TheoremViolation) as exc:
        unique_nonlinear_constituent(t, trivial, star.centre)
    assert "multiplicities" in exc.value.evidence


def test_verify_fiber_theorem(tables):
    rep = verify_fiber_theorem(tables["heis3"])
    assert rep.claim == "thm1.1" and rep.passed
    counts = [c for c in rep.checks if "fibre count" in c.label]
    assert len(counts) == 1 and counts[0].lhs == 2 and counts[0].rhs == Fraction(2)
    with pytest.raises(HypothesisNotMet):
        verify_fiber_theorem(tables["s3"])


def test_verify_coset_criterion_both_directions(tables):
    rep = verify_coset_criterion(tables["s3"])
    assert rep.claim == "thm1.2" and rep.passed
    evaluated = [c for c in rep.checks if c.label.startswith("evaluated:")]
    assert [c.lhs for c in evaluated] == [False, False]
    assert all(c.witness is not None for c in evaluated)
    final = rep.checks[-1]
    assert final.status == "pass" and final.lhs is False and final.rhs is False

    rep = verify_coset_criterion(tables["d4"])
    assert rep.passed
    assert [c.lhs for c in rep.checks] == [True, True, True]

    with pytest.raises(HypothesisNotMet):
        verify_coset_criterion(tables["c6"])
    with pytest.raises(HypothesisNotMet):
        verify_coset_criterion(tables["trivial"])


def test_identity_suite_on_abelian_group(tables):
    rep = verify_identity_suite(tables["c6"])
    assert rep.passed
    statuses = {c.label: c.status for c in rep.checks}
    assert statuses["for a Camina-type pair with the centre, the degrees are "
                    "{1, sqrt(|G:Z|)} and the nonlinear count is "
                    "|Z(G)| - |Z(G)|/|G'|"] == "pass"
    assert sum(1 for c in rep.checks if c.status == "skip") == 3


def test_identity_suite_statuses(tables):
    rep = verify_identity_suite(tables["heis3"])
    assert rep.passed and all(c.status == "pass" for c in rep.checks)
    rep = verify_identity_suite(tables["s3"])
    assert rep.passed
    assert any(c.status == "skip" for c in rep.checks)


def _copied_last_row(t):
    """The last row (nonlinear, if any row is) replaced by the trivial row."""
    order = [*range(len(t) - 1), 0]
    return np.take(t.values, order, axis=1), t.degrees[order]


def _extra_row(t):
    """An appended row, the sum of the first and last, which is no irreducible."""
    extra = t.values[:, [0]] + t.values[:, [-1]]
    return (np.concatenate([t.values, extra], axis=1),
            np.append(t.degrees, t.degrees[0] + t.degrees[-1]))


@pytest.mark.parametrize("doctor", [_copied_last_row, _extra_row])
def test_bijection_checks_catch_a_wrong_quotient_table(tables, monkeypatch, doctor):
    lifts = "the characters with N inside the kernel are exactly the lifts from G/N"
    deflations = ("constituents deflate onto the quotient's nonlinear "
                  "characters exactly")

    def expect(status):
        for name in ("heis3", "gn32"):
            t = tables[name]
            lemmas = {c.label: c.status for c in verify_identity_suite(t).checks}
            fibres = {c.status for c in verify_fiber_theorem(t).checks
                      if c.label.endswith(deflations)}
            assert lemmas[lifts] == status and fibres == {status}, name

    original = gvz._Ctx.quotient_table

    def doctored(self, qm):
        t = original(self, qm)
        values, degrees = doctor(t)
        return dataclasses.replace(t, values=values, degrees=degrees)

    expect("pass")
    monkeypatch.setattr(gvz._Ctx, "quotient_table", doctored)
    expect("fail")


def test_p4_criterion_both_classes(zoo, tables):
    d4xc2 = direct_product(zoo["d4"], cyclic(2))
    rep = verify_p4_criterion(character_table(d4xc2))
    assert rep.passed
    assert rep.checks[0].lhs == 2 and rep.checks[1].lhs is True

    rep = verify_p4_criterion(tables["c3wrc3"])
    assert rep.passed
    assert rep.checks[0].lhs == 3 and rep.checks[1].lhs is False
    assert rep.checks[1].witness is not None

    rep = verify_p4_criterion(tables["heis3xc3"])
    assert rep.passed
    assert rep.checks[0].lhs == 2 and rep.checks[1].lhs is True

    with pytest.raises(HypothesisNotMet):
        verify_p4_criterion(tables["s3"])
    with pytest.raises(HypothesisNotMet):
        verify_p4_criterion(tables["heis3"])


def test_centre_census_heis3(tables):
    rep = centre_census(tables["heis3"])
    assert rep.passed and rep.nonlinear_total == 2
    assert len(rep.entries) == 1
    entry = rep.entries[0]
    assert entry.order == 3 and entry.count == 2 and entry.listed is True
    assert rep.all_predicted_present is True and rep.unlisted_present is False


def test_centre_census_without_prediction(tables):
    rep = centre_census(tables["d4"])
    assert rep.passed
    assert [e.listed for e in rep.entries] == [None]
    assert rep.all_predicted_present is None and rep.unlisted_present is None
    with pytest.raises(HypothesisNotMet):
        centre_census(tables["c6"])


def test_verify_all_with_inapplicable_claims(tables):
    reports = verify_all(tables["s3"])
    assert [r.claim for r in reports] == ["thm1.1", "thm1.2", "lemmas",
                                          "prop2.11", "centres"]
    assert all(r.passed for r in reports)
    skipped = {r.claim for r in reports
               if getattr(r, "checks", None)
               and r.checks[0].label == "hypotheses"
               and r.checks[0].status == "skip"}
    assert skipped == {"thm1.1", "prop2.11"}


def test_verify_claim_rejects_unknown(tables):
    with pytest.raises(InputError):
        verify_claim(tables["heis3"], "thm9.9")
