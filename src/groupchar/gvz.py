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
from functools import wraps

import numpy as np

from .chartable import (BLOCK, Character, CharacterTable, _class_masks, _embed,
                        _fusion, _rational_rows, character_tables, decompose,
                        decompose_batch, degree_set, induce, weighted_norms)
from .constructions import predicted_centres
from .cyclotomic import euler_phi
from .errors import (ConsistencyError, HypothesisNotMet, InputError,
                     TheoremViolation)
from .groups import (Group, Subgroup, _cosets, _unique_sorted,
                     commutator_subgroup, nilpotency_class)
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

    def add_failures(self, label, bad, limit: int | None = None) -> None:
        """A check that passes when ``bad`` lists no counterexample; a boolean
        array lists the positions where it is set."""
        bad = np.flatnonzero(bad).tolist() if isinstance(bad, np.ndarray) else bad
        self.add(label, "fail" if bad else "pass", lhs=len(bad),
                 witness=bad[:limit] or None)

    def to_dict(self) -> dict:
        return {"claim": self.claim, "group": self.group,
                "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# shared computation context

def _kept(method):
    """A method of ``_Ctx`` run once per tuple of arguments, its result kept
    in ``_memo`` under its name and those arguments."""
    @wraps(method)
    def kept(self, *args):
        key = (method.__name__, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return kept


class _Ctx:
    """What the claim verifiers share on one table, each computed once.

    Every subgroup the claims compare is normal, so a union of classes
    (Isaacs, Lemmas 2.22 and 2.27), held exactly as a mask over the k
    classes, as by GAP's ``ClassPositionsOfKernel``.  One blocked pass gives
    the centre, kernel and support masks of all irreducibles
    (``_class_masks``).  Each distinct mask is interned as an id, a row of
    ``masks``: ``centre_ids`` and ``kernel_ids`` by position, 1, G, G', Z(G)
    and each [Z(chi),G].  Every relation a claim checks is an array pass
    over ids and positions, and ``_memo`` is keyed by ids.  A ``Subgroup``
    is built at most once per id, where a group is needed: a quotient, a
    commutator, a ``describe()``.  The cross-checks stay two computations:
    degree against vanishing, the two formulations of the Camina condition,
    and the coset condition on elements.

    G/1 is G itself: the quotient by the trivial subgroup is the identity
    map onto G, and its table is ``table``.  Every G/N with N != 1 is a
    group of its own whose table comes from its own Dixon split, never from
    the deflations of Irr(G): otherwise the bijections that ``lemmas`` and
    ``thm1.1`` check between Irr(G/N) and characters of G would hold by
    construction.  A quotient reuses the table of an earlier one with an
    equal Cayley table (``nested_tables``): the Dixon table of that exact
    multiplication table, so the rule holds.  A claim asks for the
    quotients it reads at once (``quotient_tables``), so their fresh
    tables split in batches (``chartable.character_tables``), each still
    from its own class matrices.  The tables live in the context, so every
    ``verify_all`` builds its own.
    """

    def __init__(self, table: CharacterTable):
        self.table, self.g = table, table.group
        self.reps, self.class_of = np.array(table.classes.reps), table.classes.class_array
        self.sizes = np.array(table.classes.sizes, dtype=np.int64)
        self.degrees = table.degrees
        self.nonlinear = np.flatnonzero(self.degrees > 1)
        self._memo: dict[tuple, object] = {}
        self._ids: dict[bytes, int] = {}  # a mask's packed bytes -> its id
        self.masks = np.zeros((0, len(self.sizes)), dtype=bool)  # row i: the mask of id i
        self.orders = np.zeros(0, dtype=np.int64)  # entry i: the order of id i
        centres, kernels, self.support = _class_masks(table)
        self.centre_ids, self.kernel_ids = self.intern(centres), self.intern(kernels)
        ends = np.arange(len(self.sizes)) <= [[0], [len(self.sizes)]]  # 1 and G
        self.trivial, self.whole = self.intern(ends).tolist()
        self._memo["quotient table", self.trivial] = table  # G/1 is G
        self.derived, self.centre_of_g = self.ids_of([self.g.derived_subgroup(), self.g.center()])

    # -- ids and masks ----------------------------------------------------

    def intern(self, masks: np.ndarray) -> np.ndarray:
        """The ids of the class masks in the rows of ``masks``; each distinct
        mask gets one id, the first time it is seen."""
        ids, new = [], []
        for key, row in zip(map(bytes, np.packbits(masks, axis=1)), masks):
            if key not in self._ids:
                self._ids[key] = len(self._ids)
                new.append(row)
            ids.append(self._ids[key])
        if new:
            self.masks = np.concatenate([self.masks, new])
            self.orders = self.masks @ self.sizes
        return np.array(ids, dtype=np.intp)

    def ids_of(self, subs: list[Subgroup]) -> list[int]:
        """The ids of normal subgroups of G, the subgroups that are unions of
        classes, or InputError; each is kept as the subgroup of its id unless
        that id has one."""
        masks = np.zeros((len(subs), len(self.sizes)), dtype=bool)
        for mask, sub in zip(masks, subs):
            if sub.parent is not self.g:
                raise InputError("the normal subgroup lives in a different group")
            mask[self.class_of[np.array(sub.members)]] = True
            if self.sizes[mask].sum() != sub.order:
                raise InputError(f"{sub.describe()} is not normal in {self.g.name}")
        ids = self.intern(masks).tolist()
        for i, sub in zip(ids, subs):
            self._memo.setdefault(("subgroup", i), sub)
        return ids

    @_kept
    def subgroup(self, i: int) -> Subgroup:
        """The normal subgroup of id ``i``, built on the first call."""
        return Subgroup(self.g, np.flatnonzero(self.masks[i][self.class_of]))

    def contains(self, a, b) -> np.ndarray:
        """Whether N_a contains N_b, for ids or arrays of ids that broadcast."""
        return ~(self.masks[b] & ~self.masks[a]).any(axis=-1)

    @_kept
    def commutators(self) -> np.ndarray:
        """The id of [Z(chi), G] for every irreducible chi."""
        centres, at = np.unique(self.centre_ids, return_inverse=True)
        whole = self.subgroup(self.whole)
        return np.array(self.ids_of([commutator_subgroup(self.subgroup(z), whole)
                                     for z in centres.tolist()]))[at]

    def commutator(self, z: int) -> int:
        """The id of [Z, G] for the id ``z`` of a centre Z(chi)."""
        return int(self.commutators()[np.argmax(self.centre_ids == z)])

    # -- quotients and nested tables --------------------------------------

    @_kept
    def quotient(self, i: int) -> tuple[Group, np.ndarray, np.ndarray]:
        """G/N for the id ``i`` of N, the class of G/N holding the image of
        each class of G, and the section of G/N (``groups._cosets``)."""
        if i == self.trivial:
            return self.g, np.arange(len(self.reps)), np.arange(self.g.order)
        target, projection, section = _cosets(self.g, self.subgroup(i))
        return target, target.conjugacy_classes().class_array[projection[self.reps]], section

    def quotient_table(self, i: int) -> CharacterTable:
        return self.quotient_tables([i])[0]

    def quotient_tables(self, ids: list[int]) -> list[CharacterTable]:
        """The tables of G/N for the ids of N in ``ids``; those not kept yet
        come from one ``nested_tables`` call, so they split together."""
        todo = [i for i in dict.fromkeys(ids) if ("quotient table", i) not in self._memo]
        for i, t in zip(todo, self.nested_tables([self.quotient(i)[0] for i in todo])):
            self._memo["quotient table", i] = t
        return [self._memo["quotient table", i] for i in ids]

    def nested_table(self, h: Group) -> CharacterTable:
        return self.nested_tables([h])[0]

    def nested_tables(self, hs: list[Group]) -> list[CharacterTable]:
        """The tables of ``hs``: for each, a kept one with an equal Cayley
        table, its values on the group, or else a fresh one; the fresh ones
        come from one ``character_tables`` call and are kept."""
        found, fresh = [self._kept_table(h) for h in hs], []
        for h, t in zip(hs, found):
            if t is None and not any(np.array_equal(f.table, h.table) for f in fresh):
                fresh.append(h)
        for t in character_tables(fresh):
            self._kept_tables(t.group).append(t)
        return [self._kept_table(h) if t is None else t for h, t in zip(hs, found)]

    def _kept_tables(self, h: Group) -> list[CharacterTable]:
        """The kept tables that may share the Cayley table of ``h``."""
        squares = hash(h.table.diagonal().tobytes())
        return self._memo.setdefault(("nested tables", h.order, squares), [])

    def _kept_table(self, h: Group) -> CharacterTable | None:
        """The kept table with the Cayley table of ``h``, on ``h``, or None."""
        for t in self._kept_tables(h):
            if t.group is h:
                return t
            if np.array_equal(t.group.table, h.table):
                return replace(t, group=h, classes=h.conjugacy_classes())
        return None

    @_kept
    def lifted(self, i: int) -> np.ndarray:
        """Which rows of the table are lifts of Irr(G/N), N of id ``i``, as a
        mask with one more entry, set when a lift matches no row."""
        _, classes, _ = self.quotient(i)
        qtable, e = self.quotient_table(i), self.g.exponent
        step = max(1, BLOCK // (len(self.reps) * euler_phi(e)))
        hit = np.zeros(len(self.table) + 1, dtype=bool)
        for lo in range(0, len(qtable), step):  # lifted as by ``lift_batch``
            block = _embed(qtable.values[classes, lo:lo + step], qtable.exponent, e)
            rows = self.table.rows_of(qtable.degrees[lo:lo + step].tolist(),
                                      block.transpose(1, 0, 2), e)
            hit[[len(self.table) if r is None else r for r in rows]] = True
        return hit

    def deflated(self, positions: list[int], i: int) -> set:
        """The rows of the table of G/N, N of id ``i``, holding the deflations
        of the irreducibles at ``positions``; None stands for one whose kernel
        misses N or whose deflation matches no row."""
        qtable, e = self.quotient_table(i), self.table.exponent
        pos = np.array(positions, dtype=np.intp)
        over = self.contains(self.kernel_ids[pos], i)
        sections = self.class_of[self.quotient(i)[2][list(qtable.classes.reps)]]
        rows = qtable.rows_of(self.degrees[pos[over]].tolist(), self.table.values[
            np.ix_(sections, pos[over])].transpose(1, 0, 2), e)
        return set(rows) | ({None} if not over.all() else set())

    # -- the claims' shared facts -----------------------------------------

    def star(self, z: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """Irr(Z/[Z,G]) for the centre Z of id ``z``, read off the image pi(Z)
        of Z in G/[Z,G], where pi(Z) is central, so each element is a class:
        the mask of G's classes inside Z, lambda(pi(rep)) on those classes
        from pi(Z)'s own table (shape (classes, |pi(Z)|, phi)), that table's
        exponent, and which lambda kill G'.  Not kept: one claim reads it."""
        inside = self.masks[z]
        target, classes, _ = self.quotient(self.commutator(z))
        images = np.array(target.conjugacy_classes().reps)[classes[inside]]
        image = Subgroup(target, images)
        ptable = self.nested_table(image.as_group())
        values = ptable.values[ptable.classes.class_array[np.searchsorted(image.members, images)]]
        kills = self.contains(z, self.derived) & _rational_rows(  # 1 on G' inside Z
            values[self.masks[self.derived][inside]], 1).all(axis=0)
        return inside, values, ptable.exponent, kills

    @_kept
    def norms(self) -> tuple[np.ndarray, np.ndarray]:
        """|Z(chi)| [chi_Z, chi_Z] on Z = Z(chi), and |G| [chi, chi], for
        every irreducible chi, from one weighted Gram pass over the table."""
        k, e = len(self.table), self.table.exponent
        weights = np.stack([self.masks[self.centre_ids] * self.sizes,
                            np.tile(self.sizes, (k, 1))], axis=1)
        totals = weighted_norms(self.table.values, weights, e)
        return totals[:, 0], totals[:, 1]

    @_kept
    def vanishing(self) -> tuple[np.ndarray, np.ndarray]:
        """Whether each irreducible is zero on every class outside its centre,
        and the first class where it is not (0 where it is)."""
        outside = self.support & ~self.masks[self.centre_ids]
        return ~outside.any(axis=1), outside.argmax(axis=1)

    def gvz_flags(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(degree criterion, vanishing criterion, witness class) for every
        irreducible; the two criteria must agree."""
        by_degree = self.degrees ** 2 * self.orders[self.centre_ids] == self.g.order
        vanishes, witness = self.vanishing()
        if (by_degree != vanishes).any():
            raise ConsistencyError(
                "degree-square and vanishing criteria disagree; "
                "this is a bug, the two are provably equivalent")
        return by_degree, vanishes, witness

    def is_gvz_bool(self) -> tuple[bool, int | None, int | None]:
        _, vanishes, witness = self.gvz_flags()
        bad = self.nonlinear[~vanishes[self.nonlinear]].tolist()
        return (False, bad[0], int(witness[bad[0]])) if bad else (True, None, None)

    @_kept
    def maps_onto_centre(self, z: int, n: int) -> bool:
        """Whether the image of N_z in G/N, N of id ``n``, is the centre of
        G/N: the classes of G/N meeting the image are those of size one."""
        target, classes, _ = self.quotient(n)
        image = _unique_sorted(classes[self.masks[z]])
        sizes = np.array(target.conjugacy_classes().sizes)
        return np.array_equal(image, np.flatnonzero(sizes == 1))

    def cosets_are_classes(self, xs: np.ndarray, m: Subgroup) -> np.ndarray:
        """For each element x of ``xs``, whether its class is the coset x M:
        as large as M and holding every x m, in blocks of about ``BLOCK``
        products."""
        members, step = np.array(m.members), max(1, BLOCK // m.order)
        out = []
        for x in np.array_split(xs, range(step, len(xs), step)):
            c = self.class_of[x]
            products = self.class_of[self.g.table[np.ix_(x, members)]]
            out.append((self.sizes[c] == m.order) & (products == c[:, None]).all(axis=1))
        return np.concatenate(out)

    @_kept
    def coset_condition(self, z: int) -> tuple[bool, dict | None]:
        """Whether x[Z,G] is the class of x for every x in the centre Z of id
        ``z`` that lies in no other nonlinear centre; a witness element if
        not."""
        others = _unique_sorted(self.centre_ids[self.nonlinear])
        others = self.masks[others[others != z]].any(axis=0)
        xs = np.flatnonzero((self.masks[z] & ~others)[self.class_of])
        m = self.subgroup(self.commutator(z))
        ok = self.cosets_are_classes(xs, m)
        if ok.all():
            return True, None
        x = int(xs[ok.argmin()])
        return False, {"element": self.g.words[x], "coset_size": m.order,
                       "class_size": int(self.sizes[self.class_of[x]])}

    @property
    @_kept
    def two_degree_gvz(self) -> tuple[bool, str]:
        if self.g.is_abelian():
            return False, "the group is abelian"
        ds = degree_set(self.table)
        if len(ds) != 2:
            return False, f"the degree set {list(ds)} does not have exactly two members"
        ok, pos, _ = self.is_gvz_bool()
        return (True, "") if ok else (False, f"irreducible #{pos} does not vanish off its centre")


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
    by_degree, vanishes, wclass = ctx.gvz_flags()
    orders = ctx.orders[ctx.centre_ids]
    records = tuple(GvzCharRecord(*row) for row in zip(
        range(len(table)), ctx.degrees.tolist(), orders.tolist(),
        by_degree.tolist(), vanishes.tolist()))
    witness = None
    if not vanishes.all():
        pos = int(vanishes.argmin())
        c = int(wclass[pos])
        chi = table.irreducibles[pos]
        witness = {
            "character": pos, "degree": chi.degree,
            "degree_squared": chi.degree ** 2,
            "centre_index": ctx.g.order // int(orders[pos]),
            "class": c, "class_rep": ctx.g.words[table.classes.reps[c]],
            "value": chi.value(c).render(),
        }
    return GvzReport(ctx.g.name, ctx.g.order, degree_set(table), witness is None,
                     records, witness)


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
    (i,) = ctx.ids_of([n])  # InputError unless n, a subgroup of G, is a union of classes
    outside = np.flatnonzero(~ctx.masks[i])
    derived = ctx.subgroup(ctx.derived)
    support = ctx.support[ctx.nonlinear][:, outside]
    vanishing = ~support.any(axis=0)
    if (vanishing != ctx.cosets_are_classes(ctx.reps[outside], derived)).any():
        raise ConsistencyError(
            "character and class-coset formulations of the Camina "
            "condition disagree; this is a bug")
    if vanishing.all():
        return GcpResult(True, n.order, None)
    at = int(vanishing.argmin())
    c = int(outside[at])
    bad = table.irreducibles[ctx.nonlinear[support[:, at].argmax()]]
    return GcpResult(False, n.order, {
        "element": g.words[ctx.reps[c]], "class_size": int(ctx.sizes[c]),
        "coset_size": derived.order, "nonvanishing_degree": bad.degree,
        "value": bad.value(c).render(),
    })


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
    z = ctx.centre_ids[pos]
    count = int((ctx.centre_ids[ctx.nonlinear] == z).sum())
    met, _ = ctx.two_degree_gvz
    if not met:
        return FiberCount(count, None, False, None)
    m = ctx.commutator(z)
    if m == ctx.derived:
        raise TheoremViolation(
            "[Z(chi), G] equals the derived subgroup for a nonlinear "
            "character; that forces a zero fibre and contradicts the "
            "linearity criterion", evidence={"character": pos})
    zo, mo, do = ctx.orders[[z, m, ctx.derived]].tolist()
    formula = Fraction(zo, mo) - Fraction(zo, do)
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
    lifts: tuple[Character, ...]
    lambdas: tuple[Character, ...]
    derived_in_centre: bool


def irr_star(table: CharacterTable, chi: Character, *,
             _ctx: _Ctx | None = None) -> IrrStar:
    """Characters of Z = Z(chi) that kill [Z,G] but not all of G'.

    By Lemma 2.22 (Isaacs) applied to Z, the characters of Z with [Z,G] in
    their kernel are exactly the lifts of Irr(Z/[Z,G]), and Z/[Z,G] is the
    image pi(Z) of Z in G/[Z,G].  So no table of Z is built: ``lifts`` are
    the rows of the table of the abelian group pi(Z), by cyclic extension
    (``_Ctx.star``), read through pi on the classes of ``Z.as_group()``, and
    ``lambdas`` those of them that do not kill G'.  The ``thm1.1`` count
    check compares their number with the nonlinear count of the Dixon table
    of G/[Z,G], which is no deflation of Irr(G) (see ``_Ctx``).
    """
    ctx = _ctx or _Ctx(table)
    met, why = ctx.two_degree_gvz
    if not met:
        raise HypothesisNotMet(why)
    pos = _position_of(table, chi)
    if chi.degree == 1:
        raise InputError("the star set is defined over nonlinear characters")
    z = int(ctx.centre_ids[pos])
    centre, m = ctx.subgroup(z), ctx.subgroup(ctx.commutator(z))
    inside, values, e, kills = ctx.star(z)
    zg = centre.as_group()
    at = np.searchsorted(np.flatnonzero(inside), _fusion(centre))  # Z's classes in G's
    coeffs = _embed(values, e, zg.exponent)[at]
    coeffs.flags.writeable = False  # so the lifts are views of it
    lifts = tuple(Character(zg, 1, zg.exponent, coeffs[:, i], True)
                  for i in range(coeffs.shape[1]))
    return IrrStar(centre, m, lifts, tuple(lam for lam, k in zip(lifts, kills) if not k),
                   bool(ctx.contains(z, ctx.derived)))


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
    (z,) = ctx.ids_of([centre])
    mults = decompose(induce(lam, centre, ctx.g), table)
    at = centre.as_group().conjugacy_classes().class_array[  # Z's class of each rep in Z
        np.searchsorted(centre.members, ctx.reps[ctx.masks[z]])]
    return _constituent(ctx, lam.at(ctx.g.exponent)[at], lam.degree, z, mults)


def _constituent(ctx: _Ctx, lam: np.ndarray, degree: int, z: int, mults) -> Constituent:
    """``unique_nonlinear_constituent`` from the multiplicities ``mults`` of
    lam^G against the table's irreducibles, for the centre of id ``z``, with lam
    given by its values on G's classes inside the centre, at G's exponent."""
    table, g = ctx.table, ctx.g
    mults = np.asarray(mults)
    nonlin = np.flatnonzero((mults > 0) & (ctx.degrees > 1))
    if len(nonlin) != 1:
        raise TheoremViolation(
            f"induction from the centre has {len(nonlin)} nonlinear "
            "constituents instead of exactly one",
            evidence={"multiplicities": mults.tolist()})
    theta_pos = int(nonlin[0])
    mult = int(mults[theta_pos])
    theta = table.irreducibles[theta_pos]
    index = g.order // int(ctx.orders[z])
    root = math.isqrt(index)
    theta_e = theta.at(g.exponent)
    return Constituent(theta, theta_pos, mult, (
        ("the index of the centre is a perfect square", root * root == index),
        ("theta vanishes outside the centre", not theta_e[~ctx.masks[z]].any()),
        ("theta agrees with sqrt(index)/lambda(1) * lambda on the centre",
         np.array_equal(theta_e[ctx.masks[z]] * degree, root * lam)),
        ("the multiplicity equals sqrt(index)/lambda(1)", mult * degree == root),
        ("theta's centre is the inducing centre", bool(ctx.centre_ids[theta_pos] == z))))


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

    nl = ctx.nonlinear.tolist()
    fibres: dict[int, list[int]] = {}
    for pos, z in zip(nl, ctx.centre_ids[nl].tolist()):
        fibres.setdefault(z, []).append(pos)
    ctx.quotient_tables([ctx.commutator(z) for z in fibres])  # split together

    total = 0
    for z in sorted(fibres, key=lambda i: ctx.subgroup(i).members):
        fibre, centre = fibres[z], ctx.subgroup(z)
        total += len(fibre)
        tag = f"centre {centre.describe()} (order {centre.order})"
        chi = table.irreducibles[fibre[0]]

        derived_inside = bool(ctx.contains(z, ctx.derived))
        report.add(f"{tag}: derived subgroup lies inside the centre",
                   "pass" if derived_inside else "fail", lhs=derived_inside)

        label = f"{tag}: fibre count matches |Z|(1/|[Z,G]| - 1/|G'|)"
        try:
            fc = fiber_count(table, chi, _ctx=ctx)
            report.add(label, "pass" if fc.passed else "fail", lhs=fc.count, rhs=fc.formula)
        except TheoremViolation as exc:
            report.add(label, "fail", witness={"reason": str(exc), "evidence": _j(exc.evidence)})

        inside, values, e, kills = ctx.star(z)
        lams = _embed(values[:, ~kills], e, ctx.g.exponent)  # Irr*(Z) on G's classes in Z
        # lambda kills [Z,G], so it is constant on G's classes, and lambda^G
        # is [G:Z] lambda on Z and 0 off Z (Isaacs, Definition 5.1)
        induced = np.zeros((len(inside), *lams.shape[1:]), dtype=np.int64)
        induced[inside] = ctx.g.order // centre.order * lams
        mults = decompose_batch(induced, ctx.g.exponent, table)  # one Gram product
        constituents, failures = [], []
        for li in range(lams.shape[1]):
            try:
                con = _constituent(ctx, lams[:, li], 1, z, mults[li])
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
                   lhs=lams.shape[1], witness=failures or None)

        m = ctx.commutator(z)
        q_nl = set(np.flatnonzero(ctx.quotient_table(m).degrees > 1).tolist())
        report.add(f"{tag}: star set size equals the quotient's nonlinear count",
                   "pass" if lams.shape[1] == len(q_nl) else "fail",
                   lhs=lams.shape[1], rhs=len(q_nl))

        thetas = [c.theta_position for c in constituents]
        report.add(f"{tag}: distinct inducing characters give distinct constituents",
                   "pass" if len(set(thetas)) == len(thetas) else "fail",
                   lhs=len(set(thetas)), rhs=len(thetas))

        deflated = ctx.deflated(thetas, m)
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

    holds = np.array([ctx.coset_condition(z)[0] for z in ctx.centre_ids.tolist()])
    condition, pos = bool(holds.all()), int(holds.argmin())
    witness = None if condition else dict(
        ctx.coset_condition(int(ctx.centre_ids[pos]))[1], character=pos)
    report.add("evaluated: x[Z(chi),G] equals the class of x for every "
               "admissible pair", "pass", lhs=condition, witness=witness)
    report.add("vanishing off centres holds exactly when the coset condition does",
               "pass" if gvz_holds == condition else "fail",
               lhs=gvz_holds, rhs=condition)
    return report


def _curated_normals(ctx: _Ctx) -> list[int]:
    """The ids of 1, G, G', Z(G), every kernel and every [Z(chi),G], in the
    order of their members."""
    ids = {ctx.trivial, ctx.whole, ctx.derived, ctx.centre_of_g,
           *ctx.kernel_ids.tolist(), *ctx.commutators().tolist()}
    return sorted(ids, key=lambda i: ctx.subgroup(i).members)


def _subsets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j]: whether class mask a[i] lies inside b[j], from one product
    counting the classes of a[i] outside b[j] (exact in float32: k < 2**24)."""
    return (a.astype(np.float32) @ (~b).T.astype(np.float32)) == 0


def verify_identity_suite(table: CharacterTable, *,
                          _ctx: _Ctx | None = None) -> TheoremReport:
    """Claim ``lemmas``: the supporting biconditionals and counting identities,
    each tested exhaustively over the irreducible characters."""
    ctx = _ctx or _Ctx(table)
    report = TheoremReport("lemmas", ctx.g.name)
    g = ctx.g
    normals = _curated_normals(ctx)
    ctx.quotient_tables(normals)  # split together
    zs, ks, comms = ctx.centre_ids, ctx.kernel_ids, ctx.commutators()
    squares = ctx.degrees ** 2
    z_orders = ctx.orders[zs]
    vanishes, _ = ctx.vanishing()
    d_order, c_order = ctx.orders[[ctx.derived, ctx.centre_of_g]].tolist()

    report.add_failures("a character is linear exactly when [Z(chi),G] is "
                        "the whole derived subgroup",
                        (ctx.degrees == 1) != (comms == ctx.derived))
    report.add_failures("the centre of G/[Z(chi),G] is the image of Z(chi)",
                        ~np.array(list(map(ctx.maps_onto_centre, zs.tolist(), comms.tolist()))))
    # [chi_Z, chi_Z] = [G:Z] [chi,chi] scales both sides by |Z|
    restricted, full = ctx.norms()
    report.add_failures("the restricted norm meets [G:H][chi,chi] exactly "
                        "for characters vanishing off H (H = Z(chi))",
                        (restricted > full) | ((restricted == full) != vanishes))
    index = g.order // z_orders
    report.add_failures("chi(1)^2 is bounded by |G:Z(chi)| with equality "
                        "exactly at vanishing off the centre",
                        (squares > index) | ((squares == index) != vanishes))
    report.add_failures("when G/Z(chi) is abelian, chi(1)^2 equals |G:Z(chi)|",
                        ctx.contains(zs, ctx.derived) & (squares * z_orders != g.order))
    report.add_failures("the centre of chi maps onto the centre of G/ker(chi)",
                        ~np.array(list(map(ctx.maps_onto_centre, zs.tolist(), ks.tolist()))))

    # \{chi with N <= ker chi\} is exactly the lifted Irr(G/N), over a
    # curated family of normal subgroups
    kernels, at = np.unique(ks, return_inverse=True)
    over = _subsets(ctx.masks[normals], ctx.masks[kernels])[:, at.reshape(-1)]
    report.add_failures("the characters with N inside the kernel are exactly "
                        "the lifts from G/N", [
                            ctx.subgroup(n).describe() for n, row in zip(normals, over)
                            if not np.array_equal(np.append(row, False), ctx.lifted(n))])
    report.add_failures("[Z(chi),G] lies inside the kernel of chi", ~ctx.contains(ks, comms))

    # Z(chi) <= Z(phi) iff phi factors through G/[Z(chi),G], for the first
    # nonlinear chi with each centre
    nl = ctx.nonlinear
    firsts = np.sort(nl[np.unique(zs[nl], return_index=True)[1]])
    contained = _subsets(ctx.masks[zs[firsts]], ctx.masks[zs])
    bad_pairs = [(pos, other) for pos, row in zip(firsts.tolist(), contained)
                 for other in np.flatnonzero(row != ctx.lifted(comms[pos])[:-1]).tolist()]
    report.add_failures("Z(chi) is contained in Z(phi) exactly when phi "
                        "factors through G/[Z(chi),G]", bad_pairs, 5)

    met, why = ctx.two_degree_gvz

    # equal centres <-> nonlinear on the quotient by [Z(chi),G]
    label = ("two nonlinear characters share a centre exactly when one lives "
             "on the other's quotient")
    if met:
        bad_pairs = [(pos, other) for pos in nl.tolist() for other in nl[
            (zs[nl] == zs[pos]) != ctx.lifted(comms[pos])[nl]].tolist()]
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
        for pos, order in zip(nl.tolist(), z_orders[nl].tolist()):
            expected = order - Fraction(order, d_order)
            root = math.isqrt(g.order // order)
            if len(nl) != expected or ds != (1, root):
                bad.append((pos, f"count {len(nl)} vs {expected}, "
                                 f"degrees {list(ds)} vs [1, {root}]"))
        report.add_failures(label, bad, 5)
    else:
        report.add(label, "skip", witness=why)

    # with all nonlinear centres equal: they equal Z(G) and count from the group centre
    label = ("with all nonlinear centres equal, they are Z(G) and the "
             "nonlinear count is |Z(G)| - |Z(G)|/|G'|")
    if met:
        if len(_unique_sorted(zs[nl])) == 1:
            expected = c_order - Fraction(c_order, d_order)
            ok = zs[nl[0]] == ctx.centre_of_g and len(nl) == expected
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
    gcp = is_gcp(table, ctx.subgroup(ctx.centre_of_g), _ctx=ctx)
    if gcp.holds:
        index = g.order // c_order
        root = math.isqrt(index)
        ds = degree_set(table)
        expected_ds = tuple(sorted({1, root}))
        expected_nl = c_order - Fraction(c_order, d_order)
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
    gcp = is_gcp(table, ctx.subgroup(ctx.centre_of_g), _ctx=ctx)
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
    counts = Counter(ctx.centre_ids[ctx.nonlinear].tolist())
    predicted = tuple(predicted_centres(g))
    listed, present = set(predicted), {ctx.subgroup(z).members: z for z in counts}
    entries = tuple(CensusEntry(
        members, len(members), tuple(g.words[i] for i in ctx.subgroup(z).small_generators()),
        counts[z], (members in listed) if predicted else None)
        for members, z in sorted(present.items()))
    all_present = listed <= present.keys() if predicted else None
    unlisted = not present.keys() <= listed if predicted else None
    return CensusReport("centres", g.name, entries, len(ctx.nonlinear),
                        predicted, all_present, unlisted)


# ---------------------------------------------------------------------------
# one-shot driver

# verifiers by name, looked up per call, so a rebound name (a tracer's) runs
_VERIFIERS = {"thm1.1": "verify_fiber_theorem", "thm1.2": "verify_coset_criterion",
              "lemmas": "verify_identity_suite", "prop2.11": "verify_p4_criterion",
              "centres": "centre_census"}
_CLAIMS = tuple(_VERIFIERS)


def verify_claim(table: CharacterTable, claim: str, *,
                 _ctx: _Ctx | None = None):
    """Run one claim verifier; HypothesisNotMet propagates to the caller."""
    if claim not in _VERIFIERS:
        raise InputError(f"unknown claim {claim!r}; expected one of "
                         f"{', '.join(_CLAIMS)} or all")
    return globals()[_VERIFIERS[claim]](table, _ctx=_ctx or _Ctx(table))


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
