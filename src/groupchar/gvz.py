"""Structure analysis for groups whose irreducible characters vanish off
their centres.

A non-Abelian group is a *GVZ-group* when every irreducible character
vanishes outside its own centre Z(chi) = {g : |chi(g)| = chi(1)};
equivalently chi(1)^2 = |G : Z(chi)| for every chi.  A pair (G, N) with N
normal is a *generalised Camina pair* (GCP) when every nonlinear
irreducible vanishes outside N; equivalently the class of every g outside
N is the full coset g*G'.  Both formulations are always computed and
cross-checked; they can only disagree if this package is wrong, never
because of the input.

The ``verify_*`` functions check the counting identities, bijections and
coset criteria that hold in the two-character-degree GVZ setting, entirely
by exact computation, and return structured reports.  Reports carry a
claim token (``thm1.1``, ``thm1.2``, ``lemmas``, ``prop2.11``,
``centres``) naming the claim catalogue entry they verify; the catalogue
is documented in the README.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter
from typing import Callable

import numpy as np

from .chartable import (BLOCK, Character, CharacterTable, char_center,
                        character_table, decompose, decompose_batch, deflate,
                        degree_set, induce, induce_batch, kernel, lift_batch,
                        weighted_norms)
from .constructions import predicted_centres
from .cyclotomic import euler_phi
from .errors import (ConsistencyError, HypothesisNotMet, InputError,
                     TheoremViolation)
from .groups import (Group, QuotientMap, Subgroup, commutator_subgroup, coset,
                     is_normal, nilpotency_class, quotient)
from .modular import prime_factors


def _j(value):
    """Coerce a value into something JSON-serialisable for reports."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, tuple):
        return [_j(v) for v in value]
    return value


@dataclass
class CheckRecord:
    label: str
    status: str  # "pass" | "fail" | "skip"
    lhs: object = None
    rhs: object = None
    witness: object = None

    def to_dict(self) -> dict:
        return {"label": self.label, "status": self.status,
                "lhs": _j(self.lhs), "rhs": _j(self.rhs),
                "witness": _j(self.witness)}


@dataclass
class TheoremReport:
    claim: str
    group: str
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, label, status, lhs=None, rhs=None, witness=None) -> None:
        self.checks.append(CheckRecord(label, status, lhs, rhs, witness))

    def add_failures(self, label, bad: list, limit: int | None = None) -> None:
        """A check that passes when ``bad`` lists no counterexample."""
        self.add(label, "fail" if bad else "pass", lhs=len(bad),
                 witness=bad[:limit] or None)

    def to_dict(self) -> dict:
        return {"claim": self.claim, "group": self.group,
                "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# shared computation context

class _Ctx:
    """What the claim verifiers share on one table, each computed once.

    One dict, ``_memo``, holds it all under keys tagged by kind: the centre
    and kernel of each irreducible, [N,G], G/N with its table and lifted
    rows, the nonlinear positions, the two-degree hypothesis, the classes
    inside each centre, the vanishing flag of each irreducible, the image
    test of a subgroup in G/N, the coset condition per centre and the
    norms of all irreducibles.  Claims are checked in passes over whole
    tables: the norms come from one weighted Gram pass, the lifts of
    Irr(G/N) from one class-index gather, and ``thm1.1`` induces and
    decomposes all of Irr*(Z) at once per centre.

    Subgroups are interned by value: ``canonical`` returns the first equal
    subgroup seen, so each centre, kernel and commutator is one object that
    builds ``as_group()`` once.  Compare subgroups with ``==``, never
    ``is``: one built elsewhere is equal to the interned one but is another
    object.

    G/1 is G itself: the quotient by the trivial subgroup is the identity
    map onto G, and its table is ``table``, so no relabelled copy of G and
    its table is built.  Every G/N with N != 1 is a group of its own whose
    table comes from its own Dixon split, never from the deflations of
    Irr(G): otherwise the bijections that ``lemmas`` and ``thm1.1`` check
    between Irr(G/N) and characters of G would hold by construction.

    Quotients and centres reuse the table of an earlier quotient with an
    equal Cayley table (``nested_table``, keyed by order and a digest of the
    squares): the Dixon table of that exact multiplication table, never a
    deflation of Irr(G), so the rule above holds.  The tables live in the
    context, so every ``verify_all`` builds its own.
    """

    def __init__(self, table: CharacterTable):
        self.table = table
        self.g = table.group
        self.reps = np.array(table.classes.reps)
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, make: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def canonical(self, sub: Subgroup) -> Subgroup:
        return self._once(("subgroup", sub), lambda: sub)

    def centre(self, pos: int) -> Subgroup:
        return self._once(("centre", pos), lambda: self.canonical(
            char_center(self.table.irreducibles[pos])))

    def kernel_of(self, pos: int) -> Subgroup:
        return self._once(("kernel", pos), lambda: self.canonical(
            kernel(self.table.irreducibles[pos])))

    def derived(self) -> Subgroup:
        return self.canonical(self.g.derived_subgroup())

    def commutator_with_group(self, sub: Subgroup) -> Subgroup:
        return self._once(("commutator", sub), lambda: self.canonical(
            commutator_subgroup(sub, self.g.full_subgroup())))

    def quotient_by(self, sub: Subgroup) -> QuotientMap:
        return self._once(("quotient", sub), lambda: self._quotient(sub))

    def _quotient(self, sub: Subgroup) -> QuotientMap:
        if sub.order > 1:
            return quotient(self.g, sub)
        same = tuple(range(self.g.order))
        return QuotientMap(self.g, sub, self.g, same, same)

    def quotient_table(self, qm: QuotientMap) -> CharacterTable:
        if qm.target is self.g:
            return self.table
        return self._once(("quotient_table", qm.kernel),
                          lambda: self.nested_table(qm.target, keep=True))

    def subgroup_table(self, sub: Subgroup) -> CharacterTable:
        # not kept: asked once per centre, which can take hundreds of MB
        return self.nested_table(sub.as_group(), keep=False)

    def nested_table(self, h: Group, keep: bool) -> CharacterTable:
        """The table of ``h``: a kept one with an equal Cayley table, its rows
        as new characters of ``h``, or else a fresh one, kept if ``keep``."""
        squares = hash(h.table.diagonal().tobytes())
        built = self._memo.setdefault(("nested_table", h.order, squares), [])
        for t in built:
            if np.array_equal(t.group.table, h.table):
                return replace(t, group=h, classes=h.conjugacy_classes(), irreducibles=tuple(
                    replace(ch, group=h) for ch in t.irreducibles))
        t = character_table(h)
        if keep:
            built.append(t)
        return t

    def lifted_rows(self, qm: QuotientMap) -> frozenset:
        """Rows of the table holding the lifts of Irr(G/N); a lift that
        matches no row adds None."""
        return self._once(("lifted_rows", qm.kernel), lambda: self._lifted_rows(qm))

    def _lifted_rows(self, qm: QuotientMap) -> frozenset:
        chars = self.quotient_table(qm).irreducibles
        e = self.g.exponent
        step = max(1, BLOCK // (len(self.reps) * euler_phi(e)))
        rows = []
        for lo in range(0, len(chars), step):
            block = chars[lo:lo + step]
            rows += self.table.rows_of([ch.degree for ch in block],
                                       lift_batch(block, qm), e)
        return frozenset(rows)

    def centre_classes(self, centre: Subgroup) -> tuple[np.ndarray, np.ndarray]:
        """Which classes of G lie inside ``centre``, a normal subgroup, and
        the class of ``centre.as_group()`` holding each of them."""
        return self._once(("centre_classes", centre), lambda: self._centre_classes(centre))

    def _centre_classes(self, centre: Subgroup) -> tuple[np.ndarray, np.ndarray]:
        inside = np.isin(self.reps, centre.members)
        z_classes = centre.as_group().conjugacy_classes().class_array[
            np.searchsorted(centre.members, self.reps[inside])]
        return inside, z_classes

    def norms(self) -> tuple[np.ndarray, np.ndarray]:
        """|Z(chi)| [chi_Z, chi_Z] on Z = Z(chi), and |G| [chi, chi], for
        every irreducible chi, from one weighted Gram pass over the table."""
        return self._once(("norms",), self._norms)

    def _norms(self) -> tuple[np.ndarray, np.ndarray]:
        sizes = np.array(self.table.classes.sizes, dtype=np.int64)
        k, e = len(self.table), self.table.exponent
        weights = np.zeros((k, 2, len(sizes)), dtype=np.int64)
        weights[:, 1] = sizes
        for pos in range(k):
            weights[pos, 0] = sizes * self.centre_classes(self.centre(pos))[0]
        coeffs = self.table.operand(e)[0].reshape(len(sizes), k, -1)
        totals = weighted_norms(coeffs, weights, e)
        return totals[:, 0], totals[:, 1]

    # -- frequently needed flags ------------------------------------------

    def degrees(self) -> np.ndarray:
        return self._once(("degrees",), lambda: np.array(
            [ch.degree for ch in self.table.irreducibles]))

    def nonlinear_positions(self) -> tuple[int, ...]:
        return self._once(("nonlinear",), lambda: tuple(
            i for i, ch in enumerate(self.table.irreducibles) if ch.degree > 1))

    def vanishes_off_centre(self, pos: int) -> tuple[bool, int | None]:
        """Whether chi is zero on every class outside Z(chi); witness class."""
        return self._once(("vanishes", pos), lambda: self._vanishes_off_centre(pos))

    def _vanishes_off_centre(self, pos: int) -> tuple[bool, int | None]:
        inside, _ = self.centre_classes(self.centre(pos))
        outside = self.table.irreducibles[pos].coeffs.any(axis=1) & ~inside
        if outside.any():
            return False, int(outside.argmax())
        return True, None

    def maps_onto_centre(self, sub: Subgroup, qm: QuotientMap) -> bool:
        """Whether the image of ``sub`` in G/N is the centre of G/N."""
        return self._once(("maps_onto_centre", sub, qm.kernel),
                          lambda: _maps_onto_centre(sub, qm))

    def gvz_flags(self, pos: int) -> tuple[bool, bool, int | None]:
        """(degree criterion, vanishing criterion, witness class); must agree."""
        chi = self.table.irreducibles[pos]
        centre = self.centre(pos)
        by_degree = chi.degree ** 2 * centre.order == self.g.order
        vanishes, witness = self.vanishes_off_centre(pos)
        if by_degree != vanishes:
            raise ConsistencyError(
                "degree-square and vanishing criteria disagree; "
                "this is a bug, the two are provably equivalent")
        return by_degree, vanishes, witness

    def is_gvz_bool(self) -> tuple[bool, int | None, int | None]:
        for pos in self.nonlinear_positions():
            _, vanishes, witness = self.gvz_flags(pos)
            if not vanishes:
                return False, pos, witness
        return True, None, None

    def coset_condition(self, centre: Subgroup) -> tuple[bool, dict | None]:
        """Whether x[Z,G] is the class of x for every x in the centre Z that
        lies in no other nonlinear centre; a witness element if not."""
        return self._once(("coset_condition", centre),
                          lambda: self._coset_condition(centre))

    def _coset_condition(self, centre: Subgroup) -> tuple[bool, dict | None]:
        classes = self.table.classes
        m = self.commutator_with_group(centre)
        others = np.zeros(self.g.order, dtype=bool)  # the other nonlinear centres
        for other in {self.centre(pos) for pos in self.nonlinear_positions()}:
            if other != centre:
                others[list(other.members)] = True
        members = np.array(centre.members)
        for x in members[~others[members]].tolist():
            cls = classes.members[classes.class_of[x]]
            cos = coset(x, m)
            if cls != cos:
                return False, {"element": self.g.words[x],
                               "coset_size": len(cos), "class_size": len(cls)}
        return True, None

    @property
    def two_degree_gvz(self) -> tuple[bool, str]:
        return self._once(("two_degree_gvz",), self._two_degree_gvz)

    def _two_degree_gvz(self) -> tuple[bool, str]:
        if self.g.is_abelian():
            return False, "the group is abelian"
        ds = degree_set(self.table)
        if len(ds) != 2:
            return False, f"the degree set {list(ds)} does not have exactly two members"
        ok, pos, _ = self.is_gvz_bool()
        if not ok:
            return False, (f"irreducible #{pos} does not vanish off its centre")
        return True, ""


# ---------------------------------------------------------------------------
# predicates

@dataclass(frozen=True)
class GvzCharRecord:
    position: int
    degree: int
    centre_order: int
    degree_matches_index: bool
    vanishes_off_centre: bool


@dataclass(frozen=True)
class GvzReport:
    group: str
    order: int
    degrees: tuple[int, ...]
    holds: bool
    records: tuple[GvzCharRecord, ...]
    witness: dict | None

    def to_dict(self) -> dict:
        return {
            "group": self.group, "order": self.order,
            "degrees": list(self.degrees), "holds": self.holds,
            "characters": [{
                "position": r.position, "degree": r.degree,
                "centre_order": r.centre_order,
                "degree_squared_equals_index": r.degree_matches_index,
                "vanishes_off_centre": r.vanishes_off_centre,
            } for r in self.records],
            "witness": _j(self.witness),
        }


def is_gvz(table: CharacterTable, *, _ctx: _Ctx | None = None) -> GvzReport:
    """Does every irreducible character vanish outside its own centre?

    Raises HypothesisNotMet for Abelian groups, where the question is void.
    """
    ctx = _ctx or _Ctx(table)
    if ctx.g.is_abelian():
        raise HypothesisNotMet(
            f"{ctx.g.name} is abelian; the vanishing property is about "
            "non-abelian groups")
    records = []
    witness = None
    holds = True
    for pos, chi in enumerate(table.irreducibles):
        by_degree, vanishes, wclass = ctx.gvz_flags(pos)
        centre = ctx.centre(pos)
        records.append(GvzCharRecord(pos, chi.degree, centre.order,
                                     by_degree, vanishes))
        if not vanishes and witness is None:
            holds = False
            rep = table.classes.reps[wclass]
            witness = {
                "character": pos, "degree": chi.degree,
                "degree_squared": chi.degree ** 2,
                "centre_index": ctx.g.order // centre.order,
                "class": wclass, "class_rep": ctx.g.words[rep],
                "value": chi.value(wclass).render(),
            }
    return GvzReport(ctx.g.name, ctx.g.order, degree_set(table), holds,
                     tuple(records), witness)


@dataclass(frozen=True)
class GcpResult:
    holds: bool
    normal_order: int
    witness: dict | None

    def to_dict(self) -> dict:
        return {"holds": self.holds, "normal_order": self.normal_order,
                "witness": _j(self.witness)}


def is_gcp(table: CharacterTable, n: Subgroup, *, _ctx: _Ctx | None = None) -> GcpResult:
    """Is (G, N) a pair where all nonlinear irreducibles vanish outside N?

    Both the character formulation and the class-coset formulation
    (Cl(g) = g*G' for g outside N) are evaluated; they must agree.
    """
    ctx = _ctx or _Ctx(table)
    g = ctx.g
    if n.parent is not g:
        raise InputError("the normal subgroup lives in a different group")
    if not is_normal(g, n):
        raise InputError(f"{n.describe()} is not normal in {g.name}")
    derived = ctx.derived()
    nl = [table.irreducibles[i] for i in ctx.nonlinear_positions()]
    witness = None
    holds = True
    for c, rep in enumerate(table.classes.reps):
        if rep in n:
            continue
        vanishing = not any(ch.coeffs[c].any() for ch in nl)
        class_is_coset = table.classes.members[c] == coset(rep, derived)
        if vanishing != class_is_coset:
            raise ConsistencyError(
                "character and class-coset formulations of the Camina "
                "condition disagree; this is a bug")
        if not vanishing and witness is None:
            holds = False
            bad = next(ch for ch in nl if ch.coeffs[c].any())
            witness = {
                "element": g.words[rep], "class_size": len(table.classes.members[c]),
                "coset_size": derived.order,
                "nonvanishing_degree": bad.degree,
                "value": bad.value(c).render(),
            }
    return GcpResult(holds, n.order, witness)


# ---------------------------------------------------------------------------
# fibres over centres

@dataclass(frozen=True)
class FiberCount:
    count: int
    formula: Fraction | None
    hypothesis_met: bool
    passed: bool | None


def fiber_count(table: CharacterTable, chi: Character, *,
                _ctx: _Ctx | None = None) -> FiberCount:
    """Number of nonlinear irreducibles sharing chi's centre, checked against
    |Z| * (1/|[Z,G]| - 1/|G'|) when the two-degree vanishing hypotheses hold."""
    ctx = _ctx or _Ctx(table)
    pos = _position_of(table, chi)
    if chi.degree == 1:
        raise InputError("fibres are counted over nonlinear characters")
    centre = ctx.centre(pos)
    count = sum(1 for i in ctx.nonlinear_positions() if ctx.centre(i) == centre)
    met, _ = ctx.two_degree_gvz
    if not met:
        return FiberCount(count, None, False, None)
    m = ctx.commutator_with_group(centre)
    derived = ctx.derived()
    if m == derived:
        raise TheoremViolation(
            "[Z(chi), G] equals the derived subgroup for a nonlinear "
            "character; that forces a zero fibre and contradicts the "
            "linearity criterion", evidence={"character": pos})
    formula = Fraction(centre.order, m.order) - Fraction(centre.order, derived.order)
    return FiberCount(count, formula, True,
                      formula.denominator == 1 and int(formula) == count)


def _position_of(table: CharacterTable, chi: Character) -> int:
    pos = table.row_of(chi)
    if pos is None:
        raise InputError("character is not a row of the given table")
    return pos


@dataclass(frozen=True)
class IrrStar:
    centre: Subgroup
    commutator: Subgroup
    centre_table: CharacterTable
    lambdas: tuple[Character, ...]
    derived_in_centre: bool


def irr_star(table: CharacterTable, chi: Character, *,
             _ctx: _Ctx | None = None) -> IrrStar:
    """Characters of Z(chi) that kill [Z(chi),G] but not all of G'."""
    ctx = _ctx or _Ctx(table)
    met, why = ctx.two_degree_gvz
    if not met:
        raise HypothesisNotMet(why)
    pos = _position_of(table, chi)
    if chi.degree == 1:
        raise InputError("the star set is defined over nonlinear characters")
    centre = ctx.centre(pos)
    m = ctx.commutator_with_group(centre)
    derived = ctx.derived()
    ctable = ctx.subgroup_table(centre)
    # the class of Z holding each element of G, -1 outside Z
    z_class = np.full(ctx.g.order, -1)
    z_class[list(centre.members)] = ctable.classes.class_of
    m_classes = np.unique(z_class[list(m.members)])
    d_classes = np.unique(z_class[list(derived.members)])
    lambdas = tuple(lam for lam in ctable.irreducibles
                    if _kills(lam, m_classes) and not _kills(lam, d_classes))
    return IrrStar(centre, m, ctable, lambdas, centre.contains_set(derived))


def _kills(lam: Character, classes: np.ndarray) -> bool:
    """Whether ``lam`` equals its degree on every class listed, that is, the
    elements of those classes lie in its kernel; a -1 (an element outside
    lam's group) makes the answer no."""
    if classes[0] < 0:  # np.unique sorts -1 first
        return False
    values = lam.coeffs[classes]
    return bool((values[:, 0] == lam.degree).all() and not values[:, 1:].any())


@dataclass(frozen=True)
class Constituent:
    theta: Character
    theta_position: int
    multiplicity: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def formula_holds(self) -> bool:
        return all(ok for _, ok in self.checks)


def unique_nonlinear_constituent(table: CharacterTable, lam: Character,
                                 centre: Subgroup, *,
                                 _ctx: _Ctx | None = None) -> Constituent:
    """The single nonlinear constituent of lam^G, with its value-formula checks.

    Raises TheoremViolation (with the full decomposition attached) if the
    induced character does not have exactly one nonlinear constituent.
    """
    ctx = _ctx or _Ctx(table)
    return _constituent(ctx, lam, centre, decompose(induce(lam, centre, ctx.g), table))


def _constituent(ctx: _Ctx, lam: Character, centre: Subgroup,
                 mults) -> Constituent:
    """``unique_nonlinear_constituent`` from the multiplicities ``mults`` of
    lam^G against the table's irreducibles."""
    table, g = ctx.table, ctx.g
    mults = np.asarray(mults)
    nonlin = np.flatnonzero((mults > 0) & (ctx.degrees() > 1))
    if len(nonlin) != 1:
        raise TheoremViolation(
            f"induction from the centre has {len(nonlin)} nonlinear "
            "constituents instead of exactly one",
            evidence={"multiplicities": mults.tolist()})
    theta_pos = int(nonlin[0])
    mult = int(mults[theta_pos])
    theta = table.irreducibles[theta_pos]

    index = g.order // centre.order
    root = math.isqrt(index)
    checks = [("the index of the centre is a perfect square", root * root == index)]

    e = g.exponent
    theta_e = theta.at(e)
    inside, z_classes = ctx.centre_classes(centre)
    vanishes = not theta_e[~inside].any()
    lam_e = lam.at(e)[z_classes]
    value_formula = np.array_equal(theta_e[inside] * lam.degree, root * lam_e)
    checks.append(("theta vanishes outside the centre", vanishes))
    checks.append(("theta agrees with sqrt(index)/lambda(1) * lambda on the centre",
                   value_formula))
    checks.append(("the multiplicity equals sqrt(index)/lambda(1)",
                   mult * lam.degree == root))
    checks.append(("theta's centre is the inducing centre",
                   ctx.centre(theta_pos) == centre))
    return Constituent(theta, theta_pos, mult, tuple(checks))


# ---------------------------------------------------------------------------
# claim verifiers

def verify_fiber_theorem(table: CharacterTable, *,
                         _ctx: _Ctx | None = None) -> TheoremReport:
    """Claim ``thm1.1``: per-centre fibre counts, induced constituents and the
    bijections with the nonlinear characters of G/[Z(chi),G]."""
    ctx = _ctx or _Ctx(table)
    met, why = ctx.two_degree_gvz
    if not met:
        raise HypothesisNotMet(why)
    report = TheoremReport("thm1.1", ctx.g.name)

    nl = ctx.nonlinear_positions()
    fibres: dict[Subgroup, list[int]] = {}
    for pos in nl:
        fibres.setdefault(ctx.centre(pos), []).append(pos)

    total = 0
    for centre in sorted(fibres, key=attrgetter("members")):
        fibre = fibres[centre]
        total += len(fibre)
        tag = f"centre {centre.describe()} (order {centre.order})"
        chi = table.irreducibles[fibre[0]]

        report.add(f"{tag}: derived subgroup lies inside the centre",
                   "pass" if centre.contains_set(ctx.derived()) else "fail",
                   lhs=centre.contains_set(ctx.derived()))

        try:
            fc = fiber_count(table, chi, _ctx=ctx)
            report.add(f"{tag}: fibre count matches |Z|(1/|[Z,G]| - 1/|G'|)",
                       "pass" if fc.passed else "fail",
                       lhs=fc.count, rhs=fc.formula)
        except TheoremViolation as exc:
            report.add(f"{tag}: fibre count matches |Z|(1/|[Z,G]| - 1/|G'|)",
                       "fail", witness={"reason": str(exc),
                                        "evidence": _j(exc.evidence)})

        star = irr_star(table, chi, _ctx=ctx)
        # one induction matrix and one Gram product for all of Irr*(Z)
        mults = decompose_batch(induce_batch(star.lambdas, centre, ctx.g),
                                ctx.g.exponent, table)
        constituents = []
        failures = []
        for li, lam in enumerate(star.lambdas):
            try:
                con = _constituent(ctx, lam, centre, mults[li])
            except TheoremViolation as exc:
                failures.append({"lambda": li, "reason": str(exc),
                                 "evidence": _j(exc.evidence)})
                continue
            if not con.formula_holds:
                failures.append({"lambda": li,
                                 "failed": [lbl for lbl, ok in con.checks if not ok]})
            constituents.append(con)
        report.add(f"{tag}: each induced character has one nonlinear "
                   "constituent obeying the value formula",
                   "pass" if not failures else "fail",
                   lhs=len(star.lambdas), witness=failures or None)

        qm = ctx.quotient_by(star.commutator)
        qtable = ctx.quotient_table(qm)
        q_nl = {i for i, ch in enumerate(qtable.irreducibles) if ch.degree > 1}
        report.add(f"{tag}: star set size equals the quotient's nonlinear count",
                   "pass" if len(star.lambdas) == len(q_nl) else "fail",
                   lhs=len(star.lambdas), rhs=len(q_nl))

        thetas = [c.theta_position for c in constituents]
        report.add(f"{tag}: distinct inducing characters give distinct constituents",
                   "pass" if len(set(thetas)) == len(thetas) else "fail",
                   lhs=len(set(thetas)), rhs=len(thetas))

        downs = [deflate(c.theta, qm) for c in constituents]
        deflated = {None if d is None else qtable.row_of(d) for d in downs}
        report.add(f"{tag}: constituents deflate onto the quotient's nonlinear "
                   "characters exactly", "pass" if deflated == q_nl else "fail",
                   lhs=len(deflated), rhs=len(q_nl))

        report.add(f"{tag}: constituent set equals the fibre over this centre",
                   "pass" if set(thetas) == set(fibre) else "fail",
                   lhs=len(set(thetas)), rhs=len(fibre))

    report.add("fibres partition the nonlinear characters",
               "pass" if total == len(nl) else "fail",
               lhs=total, rhs=len(nl))
    return report


def verify_coset_criterion(table: CharacterTable, *,
                           _ctx: _Ctx | None = None) -> TheoremReport:
    """Claim ``thm1.2``: with two degrees, the group is GVZ exactly when
    x[Z(chi),G] = Cl(x) for every chi and every admissible x."""
    ctx = _ctx or _Ctx(table)
    if len(degree_set(table)) != 2:
        raise HypothesisNotMet(
            f"the degree set {list(degree_set(table))} does not have exactly "
            "two members")
    report = TheoremReport("thm1.2", ctx.g.name)

    gvz_holds, bad_pos, bad_class = ctx.is_gvz_bool()
    report.add("evaluated: every nonlinear character vanishes off its centre",
               "pass", lhs=gvz_holds,
               witness=None if gvz_holds else {
                   "character": bad_pos, "class": bad_class})

    condition = True
    witness = None
    for pos in range(len(table.irreducibles)):
        holds_here, wit = ctx.coset_condition(ctx.centre(pos))
        if not holds_here and witness is None:
            condition = False
            witness = dict(wit, character=pos)
    report.add("evaluated: x[Z(chi),G] equals the class of x for every "
               "admissible pair", "pass", lhs=condition, witness=witness)
    report.add("vanishing off centres holds exactly when the coset condition does",
               "pass" if gvz_holds == condition else "fail",
               lhs=gvz_holds, rhs=condition)
    return report


def _maps_onto_centre(sub: Subgroup, qm: QuotientMap) -> bool:
    """Whether the image of ``sub`` in G/N is the centre of G/N."""
    image = np.unique(np.asarray(qm.projection)[list(sub.members)])
    return image.tolist() == list(qm.target.center().members)


def _curated_normals(ctx: _Ctx) -> list[Subgroup]:
    g = ctx.g
    subs = {Subgroup(g, [0]), g.full_subgroup(), ctx.derived(), g.center()}
    for pos in range(len(ctx.table.irreducibles)):
        subs.add(ctx.kernel_of(pos))
        subs.add(ctx.commutator_with_group(ctx.centre(pos)))
    return sorted(map(ctx.canonical, subs), key=attrgetter("members"))


def verify_identity_suite(table: CharacterTable, *,
                          _ctx: _Ctx | None = None) -> TheoremReport:
    """Claim ``lemmas``: the supporting biconditionals and counting identities,
    each tested exhaustively over the irreducible characters."""
    ctx = _ctx or _Ctx(table)
    report = TheoremReport("lemmas", ctx.g.name)
    g = ctx.g
    k = len(table.irreducibles)
    derived = ctx.derived()
    centre_of_g = ctx.canonical(g.center())

    # linearity <-> [Z(chi),G] = G'
    bad = [pos for pos in range(k)
           if (table.irreducibles[pos].degree == 1)
           != (ctx.commutator_with_group(ctx.centre(pos)) == derived)]
    report.add_failures("a character is linear exactly when [Z(chi),G] is "
                        "the whole derived subgroup", bad)

    # Z(G/[Z(chi),G]) = Z(chi)/[Z(chi),G]
    bad = [pos for pos in range(k) if not ctx.maps_onto_centre(
        ctx.centre(pos), ctx.quotient_by(ctx.commutator_with_group(ctx.centre(pos))))]
    report.add_failures("the centre of G/[Z(chi),G] is the image of Z(chi)", bad)

    # restriction norm: [chi_H, chi_H] = [G:H] [chi,chi] iff vanishing off H
    bad = []
    restricted, full = ctx.norms()
    for pos in range(k):
        centre = ctx.centre(pos)
        lhs = Fraction(int(restricted[pos]), centre.order)
        rhs = Fraction(g.order, centre.order) * Fraction(int(full[pos]), g.order)
        vanishes, _ = ctx.vanishes_off_centre(pos)
        if lhs > rhs or (lhs == rhs) != vanishes:
            bad.append(pos)
    report.add_failures("the restricted norm meets [G:H][chi,chi] exactly "
                        "for characters vanishing off H (H = Z(chi))", bad)

    # degree bound chi(1)^2 <= |G:Z(chi)| with equality iff vanishing
    bad = []
    for pos in range(k):
        chi = table.irreducibles[pos]
        index = g.order // ctx.centre(pos).order
        vanishes, _ = ctx.vanishes_off_centre(pos)
        if chi.degree ** 2 > index or (chi.degree ** 2 == index) != vanishes:
            bad.append(pos)
    report.add_failures("chi(1)^2 is bounded by |G:Z(chi)| with equality "
                        "exactly at vanishing off the centre", bad)

    # abelian central quotient forces the extreme degree
    bad = [pos for pos in range(k)
           if ctx.centre(pos).contains_set(derived)
           and table.irreducibles[pos].degree ** 2
           * ctx.centre(pos).order != g.order]
    report.add_failures("when G/Z(chi) is abelian, chi(1)^2 equals |G:Z(chi)|",
                        bad)

    # Z(chi)/ker chi = Z(G/ker chi)
    bad = [pos for pos in range(k) if not ctx.maps_onto_centre(
        ctx.centre(pos), ctx.quotient_by(ctx.kernel_of(pos)))]
    report.add_failures("the centre of chi maps onto the centre of G/ker(chi)",
                        bad)

    # \{chi with N <= ker chi\} is exactly the lifted Irr(G/N), over a
    # curated family of normal subgroups
    bad_n = []
    for n in _curated_normals(ctx):
        over = {pos for pos in range(k) if ctx.kernel_of(pos).contains_set(n)}
        if over != ctx.lifted_rows(ctx.quotient_by(n)):
            bad_n.append(n.describe())
    report.add_failures("the characters with N inside the kernel are exactly "
                        "the lifts from G/N", bad_n)

    # [Z(chi),G] <= ker chi
    bad = [pos for pos in range(k)
           if not ctx.kernel_of(pos).contains_set(
               ctx.commutator_with_group(ctx.centre(pos)))]
    report.add_failures("[Z(chi),G] lies inside the kernel of chi", bad)

    # Z(chi) <= Z(phi) iff phi factors through G/[Z(chi),G]
    nl = ctx.nonlinear_positions()
    bad_pairs = []
    seen_centres = set()
    for pos in nl:
        centre = ctx.centre(pos)
        if centre in seen_centres:
            continue
        seen_centres.add(centre)
        qm = ctx.quotient_by(ctx.commutator_with_group(centre))
        lifted = ctx.lifted_rows(qm)
        for other in range(k):
            contained = ctx.centre(other).contains_set(centre)
            factors = other in lifted
            if contained != factors:
                bad_pairs.append((pos, other))
    report.add_failures("Z(chi) is contained in Z(phi) exactly when phi "
                        "factors through G/[Z(chi),G]", bad_pairs, 5)

    met, why = ctx.two_degree_gvz

    # equal centres <-> nonlinear on the quotient by [Z(chi),G]
    label = ("two nonlinear characters share a centre exactly when one lives "
             "on the other's quotient")
    if met:
        bad_pairs = []
        for pos in nl:
            centre = ctx.centre(pos)
            qm = ctx.quotient_by(ctx.commutator_with_group(centre))
            lifted = ctx.lifted_rows(qm)
            for other in nl:
                same_centre = ctx.centre(other) == centre
                in_quotient_nl = other in lifted
                if same_centre != in_quotient_nl:
                    bad_pairs.append((pos, other))
        report.add_failures(label, bad_pairs, 5)
    else:
        report.add(label, "skip", witness=why)

    # nonlinear count = |Z(chi)| - |Z(chi)|/|G'| for every nonlinear chi,
    # and the degree set is {1, sqrt(|G:Z(chi)|)}
    label = ("the nonlinear count is |Z(chi)| - |Z(chi)|/|G'| and the degrees "
             "are {1, sqrt(|G:Z(chi)|)}")
    if met:
        bad = []
        ds = degree_set(table)
        for pos in nl:
            centre = ctx.centre(pos)
            expected = centre.order - Fraction(centre.order, derived.order)
            root = math.isqrt(g.order // centre.order)
            if len(nl) != expected or ds != (1, root):
                bad.append((pos, f"count {len(nl)} vs {expected}, "
                                 f"degrees {list(ds)} vs [1, {root}]"))
        report.add_failures(label, bad, 5)
    else:
        report.add(label, "skip", witness=why)

    # with all centres equal: they equal Z(G) and count from the group centre
    label = ("with all nonlinear centres equal, they are Z(G) and the "
             "nonlinear count is |Z(G)| - |Z(G)|/|G'|")
    if met:
        if len({ctx.centre(p) for p in nl}) == 1:
            common = ctx.centre(nl[0])
            expected = centre_of_g.order - Fraction(centre_of_g.order,
                                                    derived.order)
            ok = common == centre_of_g and len(nl) == expected
            report.add(label, "pass" if ok else "fail",
                       lhs=len(nl), rhs=expected)
        else:
            report.add(label, "skip",
                       witness="the nonlinear centres are not all equal")
    else:
        report.add(label, "skip", witness=why)

    # Camina-type pair with the centre: degrees and nonlinear count
    label = ("for a Camina-type pair with the centre, the degrees are "
             "{1, sqrt(|G:Z|)} and the nonlinear count is |Z(G)| - |Z(G)|/|G'|")
    gcp = is_gcp(table, centre_of_g, _ctx=ctx)
    if gcp.holds:
        index = g.order // centre_of_g.order
        root = math.isqrt(index)
        ds = degree_set(table)
        expected_ds = tuple(sorted({1, root}))
        expected_nl = centre_of_g.order - Fraction(centre_of_g.order,
                                                   derived.order)
        ok = (root * root == index and ds == expected_ds
              and len(nl) == expected_nl)
        report.add(label, "pass" if ok else "fail",
                   lhs={"degrees": list(ds), "nonlinear": len(nl)},
                   rhs={"degrees": list(expected_ds),
                        "nonlinear": _j(expected_nl)})
    else:
        report.add(label, "skip", witness="(G, Z(G)) is not such a pair")
    return report


def verify_p4_criterion(table: CharacterTable, *,
                        _ctx: _Ctx | None = None) -> TheoremReport:
    """Claim ``prop2.11``: for non-abelian groups of order p^4, (G, Z(G)) is a
    Camina-type pair exactly when the nilpotency class is two."""
    ctx = _ctx or _Ctx(table)
    g = ctx.g
    order = g.order
    p = (prime_factors(order) or [1])[0]  # order 1 = 1^4 is refused as abelian
    if order != p ** 4:
        raise HypothesisNotMet(f"|{g.name}| = {order} is not the fourth power "
                               "of a prime")
    if g.is_abelian():
        raise HypothesisNotMet(f"{g.name} is abelian")
    report = TheoremReport("prop2.11", g.name)
    gcp = is_gcp(table, ctx.canonical(g.center()), _ctx=ctx)
    cls = nilpotency_class(g)
    report.add("nilpotency class", "pass", lhs=cls)
    report.add("(G, Z(G)) is a Camina-type pair", "pass", lhs=gcp.holds,
               witness=gcp.witness)
    report.add("the pair condition holds exactly at class two",
               "pass" if gcp.holds == (cls == 2) else "fail",
               lhs=gcp.holds, rhs=cls == 2)
    return report


# ---------------------------------------------------------------------------
# centre census

@dataclass(frozen=True)
class CensusEntry:
    members: tuple[int, ...]
    order: int
    generators: tuple[str, ...]
    count: int
    listed: bool | None


@dataclass(frozen=True)
class CensusReport:
    claim: str
    group: str
    entries: tuple[CensusEntry, ...]
    nonlinear_total: int
    predicted: tuple[tuple[int, ...], ...]
    all_predicted_present: bool | None
    unlisted_present: bool | None

    @property
    def passed(self) -> bool:
        total_ok = sum(e.count for e in self.entries) == self.nonlinear_total
        predicted_ok = self.all_predicted_present is not False
        return total_ok and predicted_ok

    def to_dict(self) -> dict:
        return {
            "claim": self.claim, "group": self.group, "passed": self.passed,
            "nonlinear_total": self.nonlinear_total,
            "centres": [{
                "order": e.order, "generators": list(e.generators),
                "count": e.count, "listed": e.listed,
            } for e in self.entries],
            "all_predicted_present": self.all_predicted_present,
            "unlisted_present": self.unlisted_present,
        }


def centre_census(table: CharacterTable, *,
                  _ctx: _Ctx | None = None) -> CensusReport:
    """Census of the centres Z(chi) over the nonlinear irreducibles.

    For the gn family the census is compared against the construction's
    predicted centre list; the report states explicitly whether centres
    outside that list occur.
    """
    ctx = _ctx or _Ctx(table)
    g = ctx.g
    if g.is_abelian():
        raise HypothesisNotMet(f"{g.name} is abelian; there are no nonlinear "
                               "characters to survey")
    counts = Counter(ctx.centre(pos) for pos in ctx.nonlinear_positions())
    predicted = tuple(predicted_centres(g))
    listed = {Subgroup(g, members) for members in predicted}
    entries = tuple(CensusEntry(
        sub.members, sub.order, tuple(g.words[i] for i in sub.small_generators()),
        counts[sub], (sub in listed) if predicted else None)
        for sub in sorted(counts, key=attrgetter("members")))
    all_present = listed <= counts.keys() if predicted else None
    unlisted = not counts.keys() <= listed if predicted else None
    return CensusReport("centres", g.name, entries,
                        len(ctx.nonlinear_positions()), predicted,
                        all_present, unlisted)


# ---------------------------------------------------------------------------
# one-shot driver

_CLAIMS = ("thm1.1", "thm1.2", "lemmas", "prop2.11", "centres")


def verify_claim(table: CharacterTable, claim: str, *,
                 _ctx: _Ctx | None = None):
    """Run one claim verifier; HypothesisNotMet propagates to the caller."""
    ctx = _ctx or _Ctx(table)
    if claim == "thm1.1":
        return verify_fiber_theorem(table, _ctx=ctx)
    if claim == "thm1.2":
        return verify_coset_criterion(table, _ctx=ctx)
    if claim == "lemmas":
        return verify_identity_suite(table, _ctx=ctx)
    if claim == "prop2.11":
        return verify_p4_criterion(table, _ctx=ctx)
    if claim == "centres":
        return centre_census(table, _ctx=ctx)
    raise InputError(f"unknown claim {claim!r}; expected one of "
                     f"{', '.join(_CLAIMS)} or all")


def verify_all(table: CharacterTable) -> list:
    """All claim verifiers; hypothesis failures become skipped sections."""
    ctx = _Ctx(table)
    out = []
    for claim in _CLAIMS:
        try:
            out.append(verify_claim(table, claim, _ctx=ctx))
        except HypothesisNotMet as exc:
            skipped = TheoremReport(claim, ctx.g.name)
            skipped.add("hypotheses", "skip", witness=str(exc))
            out.append(skipped)
    return out
