"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
comparison is exact (Fractions and cyclotomic integers; no tolerances).
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from groupchar import (
    Cyclotomic,
    centre_census,
    character_table,
    degree_set,
    gn,
    inner_product,
    is_gcp,
    is_gvz,
    verify_coset_criterion,
    verify_fiber_theorem,
    verify_identity_suite,
    verify_p4_criterion,
)
from groupchar.chartable import char_center
from groupchar.cli import main
from groupchar.groups import generated_by, nilpotency_class


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_table_oracles(tables):
    start = time.perf_counter()
    for name, t in tables.items():
        g = t.group
        for i, chi in enumerate(t.irreducibles):
            for j, psi in enumerate(t.irreducibles):
                assert inner_product(chi, psi) == (1 if i == j else 0), \
                    f"{name}: row orthogonality fails at ({i},{j})"
        sizes = [len(m) for m in t.classes.members]
        for a in range(len(t.classes)):
            for b in range(len(t.classes)):
                acc = Cyclotomic.zero(t.exponent)
                for ch in t.irreducibles:
                    acc = acc + ch.values[a] * ch.values[b].conj()
                want = Fraction(g.order, sizes[a]) if a == b else Fraction(0)
                assert acc.equals_rational(want), \
                    f"{name}: column orthogonality fails at ({a},{b})"
        assert sum(ch.degree ** 2 for ch in t.irreducibles) == g.order, name
        assert len(t.linear()) == g.order // g.derived_subgroup().order, name
    fresh_start = time.perf_counter()
    character_table(gn(3, 2))
    fresh = time.perf_counter() - fresh_start
    assert fresh < 60, f"gn(3,2) table took {fresh:.1f}s"
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 120,
            f"orthogonality, degree sums and linear counts exact on "
            f"{len(tables)} groups in {elapsed:.1f}s "
            f"(gn(3,2) table in {fresh:.2f}s)")


def test_criterion_2_gvz_verdicts(tables):
    for name in ("d4", "q8", "heis3", "heis5", "gn32"):
        rep = is_gvz(tables[name])
        assert rep.holds and rep.witness is None, name
        assert all(r.degree_matches_index and r.vanishes_off_centre
                   for r in rep.records), name
    witnesses = {}
    for name in ("s3", "d5"):
        rep = is_gvz(tables[name])
        assert not rep.holds and rep.witness is not None, name
        assert all(r.degree_matches_index == r.vanishes_off_centre
                   for r in rep.records), name
        witnesses[name] = rep.witness
    _report(2, True,
            "vanishing holds on d4, q8, heis3, heis5, gn(3,2); fails on "
            f"s3 at {witnesses['s3']['class_rep']} and d5 at "
            f"{witnesses['d5']['class_rep']}; both criteria agree per character")


def test_criterion_3_family_structure():
    for p, n in ((3, 1), (3, 2), (5, 1)):
        g = gn(p, n)
        t = character_table(g)
        assert g.order == p ** (2 * n + 1)
        assert degree_set(t) == (1, p)
        assert is_gvz(t).holds
        betas = generated_by(g, g.meta["betas"])
        assert betas.order == p ** n
        assert g.derived_subgroup().members == betas.members
        assert g.center().members == betas.members
    _report(3, True, "gn(p,n) for (3,1), (3,2), (5,1): order p^(2n+1), "
                     "degrees {1,p}, vanishing holds, G' = Z(G) of order p^n")


def test_criterion_4_fiber_theorem():
    expected_rhs = {(3, 1): [Fraction(2)], (3, 2): [Fraction(6)] * 4,
                    (5, 1): [Fraction(4)]}
    for (p, n), rhs in expected_rhs.items():
        rep = verify_fiber_theorem(character_table(gn(p, n)))
        assert rep.passed, f"gn({p},{n}): {[c.label for c in rep.checks if c.status == 'fail']}"
        counts = [c for c in rep.checks if "fibre count" in c.label]
        assert [c.rhs for c in counts] == rhs, f"gn({p},{n})"
        assert [c.lhs for c in counts] == [int(r) for r in rhs], f"gn({p},{n})"
    _report(4, True, "fibre counts 2 / 6,6,6,6 / 4 on gn(3,1), gn(3,2), "
                     "gn(5,1); constituent formulas and both bijections hold")


def test_criterion_5_coset_criterion(tables):
    for key in ((3, 1), (3, 2)):
        rep = verify_coset_criterion(character_table(gn(*key)))
        assert rep.passed
        evaluated = [c for c in rep.checks if c.label.startswith("evaluated:")]
        assert [c.lhs for c in evaluated] == [True, True], key
    reverse = {}
    for name in ("s3", "d5"):
        rep = verify_coset_criterion(tables[name])
        assert rep.passed, name
        evaluated = [c for c in rep.checks if c.label.startswith("evaluated:")]
        assert [c.lhs for c in evaluated] == [False, False], name
        coset_witness = evaluated[1].witness
        assert coset_witness is not None, name
        assert "character" in coset_witness and "element" in coset_witness, name
        reverse[name] = coset_witness
    _report(5, True,
            "coset condition holds on gn(3,1) and gn(3,2); on s3 and d5 both "
            "sides fail with witnesses "
            f"(chi {reverse['s3']['character']}, x = {reverse['s3']['element']}) "
            f"and (chi {reverse['d5']['character']}, x = {reverse['d5']['element']})")


def test_criterion_6_identity_suite(tables):
    for name, t in tables.items():
        if t.group.order == 1:
            continue  # no centre structure to speak of, but run it anyway
        rep = verify_identity_suite(t)
        assert rep.passed, f"{name}: {[c.label for c in rep.checks if c.status == 'fail']}"
    t32 = tables["gn32"]
    nl = t32.nonlinear()
    derived = t32.group.derived_subgroup()
    for chi in nl:
        z = char_center(chi)
        assert z.order == 27 and derived.order == 9
        assert len(nl) == z.order - z.order // derived.order == 27 - 3
    rep = verify_identity_suite(t32)
    count_checks = [c for c in rep.checks
                    if "|Z(chi)| - |Z(chi)|/|G'|" in c.label]
    assert len(count_checks) == 1 and count_checks[0].status == "pass"
    _report(6, True, "all supporting identities hold across the corpus; on "
                     "gn(3,2) the nonlinear count is 24 = 27 - 27/9")


def test_criterion_7_p4_equivalence(tables):
    class2 = verify_p4_criterion(tables["heis3xc3"])
    assert class2.passed
    assert class2.checks[0].lhs == 2 and class2.checks[1].lhs is True
    class3 = verify_p4_criterion(tables["c3wrc3"])
    assert class3.passed
    assert class3.checks[0].lhs == 3 and class3.checks[1].lhs is False
    # cross-check the raw ingredients, not just the reports
    g2, g3 = tables["heis3xc3"].group, tables["c3wrc3"].group
    assert nilpotency_class(g2) == 2 and is_gcp(tables["heis3xc3"], g2.center()).holds
    assert nilpotency_class(g3) == 3 and not is_gcp(tables["c3wrc3"], g3.center()).holds
    _report(7, True, "order-81 groups: class 2 gives a Camina-type pair with "
                     "the centre, class 3 does not; equivalence verified in "
                     "both directions")


def test_criterion_8_centre_census(tables):
    rep = centre_census(tables["gn32"])
    assert rep.passed
    assert rep.nonlinear_total == 24
    assert sum(e.count for e in rep.entries) == 24
    listed = [e for e in rep.entries if e.listed]
    unlisted = [e for e in rep.entries if e.listed is False]
    assert len(listed) == 2 and all(e.count == 6 and e.order == 27 for e in listed)
    assert rep.all_predicted_present is True
    assert isinstance(rep.unlisted_present, bool)  # stated explicitly either way
    if rep.unlisted_present:
        assert unlisted and all(e.order == 27 for e in unlisted)
    _report(8, True,
            f"gn(3,2) census: 2 listed centres with 6 characters each, "
            f"{len(unlisted)} unlisted centres "
            f"({sum(e.count for e in unlisted)} characters), total 24; "
            f"unlisted centres present: {rep.unlisted_present}")


def test_criterion_9_determinism(capsys, tables):
    argv = ["verify", "all", "--group", '{"type":"gn","p":3,"n":2}',
            "--format", "json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second and first
    json.loads(first)  # well-formed
    for name in ("s3", "heis3"):
        base = tables[name]
        k = len(base.classes)
        again = character_table(base.group, split_order=list(range(k - 1, 0, -1)))
        assert ([(c.degree, c.coeffs.tolist()) for c in base.irreducibles]
                == [(c.degree, c.coeffs.tolist()) for c in again.irreducibles]), name
    with capsys.disabled():
        _report(9, True, "verify-all JSON on gn(3,2) is byte-identical across "
                         "runs; table rows are independent of the splitting "
                         "order on s3 and heis3")
