"""Finite groups with indexed elements: enumeration, subgroups, quotients.

Elements of a group are the integers 0..order-1 in a canonical order: the
identity is index 0 and the rest follow in breadth-first discovery order from
the generators (taken in input order).  Every group holds its Cayley table as
one dense ``uint16`` array, ``table[a, b]`` being the index of a*b, and the
algorithms downstream (orders, classes, centre, commutators, cosets,
quotients) are array operations on that table, so permutation groups,
collected presentations, direct products, subgroups and quotient groups all
share one code path.  Orders are admitted up to ``ORDER_CAP``, where the
table takes 800 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import ConsistencyError, InputError, NotNilpotent, ResourceError

ORDER_CAP = 20000  # a uint16 table of this order takes 800 MB

Label = Hashable

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _default_gen_names(count: int) -> list[str]:
    return [_LETTERS[i] if i < len(_LETTERS) else f"g{i}" for i in range(count)]


def admit(order: int, cap: int = ORDER_CAP) -> None:
    """Raise ResourceError if a group of this order is over the cap."""
    limit = min(cap, ORDER_CAP)
    if order > limit:
        raise ResourceError(f"order {order} exceeds the cap ({limit})")


def _shared_ints(values: np.ndarray, n: int) -> tuple[int, ...]:
    """``values``, integers in [0, n), as a tuple holding one int object per
    distinct value rather than one per entry."""
    ints = list(range(n))
    return tuple(map(ints.__getitem__, values.tolist()))


@dataclass(frozen=True)
class ConjugacyClasses:
    """Conjugacy classes of a group, in discovery order (identity class first).

    ``reps[c]`` is the smallest element index of class ``c``, ``members[c]``
    the sorted member indices, and ``class_of[x]`` the class index of x;
    ``class_array`` holds ``class_of`` once as a read-only intp array, the
    form every gather reads.
    """

    reps: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.reps)

    @cached_property
    def class_array(self) -> np.ndarray:
        arr = np.array(self.class_of, dtype=np.intp)
        arr.flags.writeable = False
        return arr

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.members)


class Group:
    """A concrete finite group on indices 0..order-1; index 0 is the identity.

    ``table`` is the (order, order) ``uint16`` Cayley table and ``inverse[a]``
    the index of a^-1.  ``name`` may be given as a function returning it,
    which is then called on the first read of ``name`` only.
    """

    __slots__ = (
        "_name", "order", "elements", "words", "generators", "meta",
        "table", "inverse", "_index",
        "_orders", "_exponent", "_classes", "_center", "_derived",
    )

    def __init__(self, name: str | Callable[[], str], elements: Sequence[Label],
                 words: Sequence[str], generators: Sequence[int], table, *,
                 meta: dict | None = None):
        self._name = name
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self.words = tuple(words)
        self.generators = tuple(generators)
        self.meta = dict(meta) if meta else {}
        self._index = {lab: i for i, lab in enumerate(self.elements)}
        if len(self._index) != self.order:
            raise InputError("duplicate element labels")
        admit(self.order)
        self.table = np.asarray(table, dtype=np.uint16)
        if self.table.shape != (self.order, self.order):
            raise InputError("the multiplication table must be order x order")
        self.inverse = np.argmin(self.table, axis=1)  # where each row hits 0
        self._orders = None
        self._exponent = None
        self._classes = None
        self._center = None
        self._derived = None

    @property
    def name(self) -> str:
        if callable(self._name):
            self._name = self._name()
        return self._name

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order})"

    # -- multiplication --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        result, base = 0, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def index_of(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"label {label!r} is not an element of {self.name}") from None

    # -- cached element data ---------------------------------------------

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            todo = np.arange(1, n)  # elements whose power has not hit 1 yet
            powers = todo.copy()
            for k in range(2, n + 1):
                if not todo.size:
                    break
                powers = self.table[powers, todo]
                done = powers == 0
                orders[todo[done]] = k
                todo, powers = todo[~done], powers[~done]
            if todo.size:
                raise InputError(
                    f"powers of {self.words[todo[0]]!r} never reach the "
                    "identity; the multiplication is not a group law")
            self._orders = tuple(orders.tolist())
        return self._orders

    @property
    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = math.lcm(*self.element_orders())
        return self._exponent

    def _distinct_generators(self) -> np.ndarray:
        return np.array(list(dict.fromkeys(self.generators)), dtype=np.intp)

    def is_abelian(self) -> bool:
        gens = self._distinct_generators()
        block = self.table[np.ix_(gens, gens)]
        return bool((block == block.T).all())

    def conjugacy_classes(self) -> ConjugacyClasses:
        if self._classes is None:
            t, inv = self.table, self.inverse
            # conjugation by each generator and by its inverse, as permutations
            gens = self._distinct_generators()
            perms = [t[t[inv[g]], g] for g in gens] + [t[t[g], inv[g]] for g in gens]
            # Each label falls to the smallest index reachable along the
            # permutations, with pointer jumping; at the fixed point every
            # element is labelled by the smallest member of its class.
            label = np.arange(self.order)
            while True:
                low = label.copy()
                for p in perms:
                    np.minimum(low, label[p], out=low)
                low = low[low]
                if np.array_equal(low, label):
                    break
                label = low
            reps, class_of = np.unique(label, return_inverse=True)
            by_class = np.argsort(class_of, kind="stable")
            bounds = np.cumsum(np.bincount(class_of))[:-1]
            members = tuple(tuple(m.tolist()) for m in np.split(by_class, bounds))
            self._classes = ConjugacyClasses(tuple(reps.tolist()), members,
                                             _shared_ints(class_of, len(reps)))
        return self._classes

    def center(self) -> "Subgroup":
        if self._center is None:
            gens = self._distinct_generators()
            t = self.table
            self._center = Subgroup(
                self, np.flatnonzero((t[:, gens] == t[gens].T).all(axis=1)))
        return self._center

    def derived_subgroup(self) -> "Subgroup":
        if self._derived is None:
            whole = self.full_subgroup()
            self._derived = commutator_subgroup(whole, whole)
        return self._derived

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))


def _named(name: str | Callable[[], str]) -> str:
    return name() if callable(name) else name


def build_group(name: str | Callable[[], str], gen_labels: Sequence[Label],
                compose: Callable[[Label, Label], Label], identity: Label, *,
                gen_names: Sequence[str] | None = None,
                cap: int = ORDER_CAP,
                word_fn: Callable[[Label], str] | None = None,
                meta: dict | None = None) -> Group:
    """Enumerate the closure of ``gen_labels`` under ``compose``.

    The element order is canonical: identity first, then breadth-first
    discovery multiplying on the right by the generators in input order.
    Raises ResourceError once the closure exceeds ``min(cap, ORDER_CAP)``
    elements.  ``name`` may be a function, as for ``Group``.
    """
    gens: list[Label] = []
    for lab in gen_labels:
        if lab not in gens:
            gens.append(lab)
    if gen_names is None:
        gen_names = _default_gen_names(len(gens))
    elif len(gen_names) < len(gens):
        raise InputError("fewer generator names than generators")
    limit = min(cap, ORDER_CAP)

    elements: list[Label] = [identity]
    index: dict[Label, int] = {identity: 0}
    parents: list[tuple[int, int]] = [(-1, -1)]  # (parent index, generator slot)
    i = 0
    while i < len(elements):
        base = elements[i]
        for gpos, glab in enumerate(gens):
            y = compose(base, glab)
            if y not in index:
                if len(elements) >= limit:
                    raise ResourceError(
                        f"closure of {_named(name)} exceeds the order cap ({limit})")
                index[y] = len(elements)
                elements.append(y)
                parents.append((i, gpos))
        i += 1
    n = len(elements)

    if word_fn is not None:
        words = [word_fn(lab) for lab in elements]
    else:
        words = [""] * n
        words[0] = "1"
        for j in range(1, n):
            par, gpos = parents[j]
            words[j] = gen_names[gpos] if par == 0 else words[par] + "*" + gen_names[gpos]

    # row j is x -> w_j x; with w_j = w_par g it is row par read at g x
    left = [np.fromiter((index.get(compose(glab, el), -1) for el in elements),
                        dtype=np.intp, count=n) for glab in gens]
    if any((col < 0).any() for col in left):
        raise InputError(f"left products escape the closure of {_named(name)}; "
                         "the multiplication is not a group law")
    table = np.empty((n, n), dtype=np.uint16)
    table[0] = np.arange(n)
    for j in range(1, n):
        par, gpos = parents[j]
        table[j] = table[par, left[gpos]]

    return Group(name, elements, words, [index[g] for g in gens], table, meta=meta)


def enumerate_from_permutations(degree: int, perms: Sequence[Sequence[int]], *,
                                name: str | None = None,
                                gen_names: Sequence[str] | None = None,
                                cap: int = ORDER_CAP) -> Group:
    """Group generated by permutations of {0..degree-1} given as image tuples."""
    if degree < 1:
        raise InputError("degree must be at least 1")
    labels = []
    for p in perms:
        t = tuple(p)
        if sorted(t) != list(range(degree)):
            raise InputError(f"not a bijection on 0..{degree - 1}: {t}")
        labels.append(t)

    def compose(p, r):  # p∘r: apply r first
        return tuple(p[r[i]] for i in range(degree))

    return build_group(name or f"perm({degree})", labels, compose,
                       tuple(range(degree)), gen_names=gen_names, cap=cap)


def perm_from_cycles(degree: int, cycles: Sequence[Sequence[int]],
                     support: Sequence[int] | None = None) -> tuple[int, ...]:
    """Image tuple of a product of disjoint cycles on 1-based points.

    Each cycle is checked against ``degree``.  The tuple covers every point,
    or with ``support`` (ascending 1-based points that include every point
    of the cycles) those points only, position i standing for support[i].
    """
    where = None if support is None else {p: i for i, p in enumerate(support)}
    images = list(range(degree if where is None else len(where)))
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        if any(p < 0 or p >= degree for p in pts) or len(set(pts)) != len(pts):
            raise InputError(f"bad cycle {list(cyc)} for degree {degree}")
        if where is not None:
            pts = [where[c] for c in cyc]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


class Subgroup:
    """A subgroup of a parent group, held as a sorted tuple of member indices."""

    __slots__ = ("parent", "members", "_member_set", "_group", "_small_gens", "_hash")

    def __init__(self, parent: Group, members: Iterable[int]):
        arr = (members if isinstance(members, np.ndarray)
               else np.fromiter(members, dtype=np.intp))
        if not (arr[1:] > arr[:-1]).all():  # an index array is often sorted already
            arr = np.unique(arr)
        mt = tuple(arr.tolist())
        if not mt or mt[0] != 0:
            raise InputError("a subgroup must contain the identity (index 0)")
        if mt[-1] >= parent.order:
            raise InputError("member index out of range")
        self.parent = parent
        self.members = mt
        self._member_set = frozenset(mt)
        self._group = None
        self._small_gens = None
        self._hash = None

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Subgroup) and other.parent is self.parent
            and other.members == self.members)

    def __hash__(self) -> int:
        if self._hash is None:  # members never change, so neither does this
            self._hash = hash((id(self.parent), self.members))
        return self._hash

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"

    def contains_set(self, other: "Subgroup") -> bool:
        return self._member_set.issuperset(other.members)

    def small_generators(self) -> tuple[int, ...]:
        """A short generating list, chosen greedily over ascending indices."""
        if self._small_gens is None:
            gens: list[int] = []
            have = {0}
            for m in self.members:
                if m not in have:
                    gens.append(m)
                    have = set(generated_by(self.parent, gens).members)
                    if len(have) == self.order:
                        break
            self._small_gens = tuple(gens)
        return self._small_gens

    def describe(self) -> str:
        words = self.parent.words
        return "<" + (",".join(words[g] for g in self.small_generators()) or "1") + ">"

    def as_group(self) -> Group:
        """The subgroup as a Group of its own; labels are parent indices."""
        if self._group is None:
            par = self.parent
            m = np.array(self.members, dtype=np.intp)
            outside = np.iinfo(np.uint16).max  # above every admitted index
            lookup = np.full(par.order, outside, dtype=np.uint16)
            lookup[m] = np.arange(len(m))
            if self.order == par.order:  # the whole group: indices agree
                table = par.table
            else:
                table = lookup[par.table[np.ix_(m, m)]]
                escapes = np.argwhere(table == outside)
                if escapes.size:
                    a, b = m[escapes[0]]
                    raise InputError(
                        f"not closed under multiplication: "
                        f"{par.words[a]} * {par.words[b]} escapes")
            gens = [int(lookup[g]) for g in self.small_generators()]
            self._group = Group(f"{self.parent.name}|{self.describe()}",
                                self.members,
                                [par.words[x] for x in self.members],
                                gens, table)
        return self._group

    def to_parent(self, sub_index: int) -> int:
        return self.members[sub_index]


@dataclass(frozen=True)
class QuotientMap:
    """Surjection G -> G/N with an index-level projection and a section."""

    source: Group
    kernel: Subgroup
    target: Group
    projection: tuple[int, ...]
    section: tuple[int, ...]


def _closure(g: Group, seeds: Iterable[int]) -> np.ndarray:
    """Membership mask of the subgroup generated by the given indices."""
    seeds = np.array(list(dict.fromkeys(int(s) for s in seeds)), dtype=np.intp)
    reached = np.zeros(g.order, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    step = max(1, 2 ** 20 // max(1, seeds.size))  # bounds each block
    while frontier.size:
        new = []
        for lo in range(0, frontier.size, step):
            ys = g.table[np.ix_(frontier[lo:lo + step], seeds)].ravel()
            ys = np.unique(ys[~reached[ys]])
            reached[ys] = True
            new.append(ys)
        frontier = np.concatenate(new)
    return reached


def generated_by(g: Group, seeds: Iterable[int]) -> Subgroup:
    """Subgroup generated by the given element indices."""
    return Subgroup(g, np.flatnonzero(_closure(g, seeds)))


def centralizer(g: Group, x: int) -> Subgroup:
    return Subgroup(g, np.flatnonzero(g.table[:, x] == g.table[x]))


def _normal_closure(g: Group, seeds: np.ndarray) -> Subgroup:
    """The smallest normal subgroup of ``g`` containing ``seeds``.

    Generators are added one at a time, each a seed or a conjugate of an
    earlier generator by a generator of ``g`` that lies outside the closure
    so far; every addition at least doubles it, so there are at most
    log2 |g| of them.  The closure is normal once it holds every such
    conjugate.
    """
    t, inv, xs = g.table, g.inverse, g._distinct_generators()
    gens: list[int] = []
    reached = np.zeros(g.order, dtype=bool)
    reached[0] = True
    while True:
        missing = seeds[~reached[seeds]]
        if not missing.size and gens:
            conj = t[t[np.ix_(inv[xs], gens)], xs[:, None]]  # x^-1 c x
            missing = conj[~reached[conj]]
        if not missing.size:
            return Subgroup(g, np.flatnonzero(reached))
        gens.append(int(missing.flat[0]))
        reached = _closure(g, gens)


def commutator_subgroup(h: Subgroup, k: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [a,b] = a^-1 b^-1 a b, a in H, b in K.

    When K is the whole group, [H, G] is the normal closure of the
    [h, x] with x a generator of G (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory): [h, xy] = [h, y] [h, x]^y.  Other pairs
    take every commutator, in blocks of table lookups.
    """
    if h.parent is not k.parent:
        raise InputError("subgroups live in different parent groups")
    g = h.parent
    t, inv = g.table, g.inverse
    a = np.array(h.members, dtype=np.intp)
    if k.order == g.order:
        xs = g._distinct_generators()
        return _normal_closure(
            g, t[t[np.ix_(inv[a], inv[xs])], t[np.ix_(a, xs)]].ravel())
    b = np.array(k.members, dtype=np.intp)
    hit = np.zeros(g.order, dtype=bool)
    step = max(1, 2 ** 20 // b.size)  # rows of a per block
    for lo in range(0, a.size, step):
        blk = a[lo:lo + step]
        hit[t[t[np.ix_(inv[blk], inv[b])], t[np.ix_(blk, b)]]] = True
    return generated_by(g, np.flatnonzero(hit))


def _normality_witness(g: Group, h: Subgroup) -> tuple[int, int, int] | None:
    """The first (member m, generator x, x^-1 m x) with the conjugate
    outside ``h``, or None when ``h`` is normal."""
    if h.parent is not g:
        raise InputError("subgroup of a different group")
    m = np.array(h.members, dtype=np.intp)
    inside = np.zeros(g.order, dtype=bool)
    inside[m] = True
    for x in g._distinct_generators():
        conj = g.table[g.table[g.inverse[x], m], x]
        out = np.flatnonzero(~inside[conj])
        if out.size:
            return int(m[out[0]]), int(x), int(conj[out[0]])
    return None


def is_normal(g: Group, h: Subgroup) -> bool:
    return _normality_witness(g, h) is None


def coset(x: int, n: Subgroup) -> tuple[int, ...]:
    """The left coset x·N as a sorted tuple of element indices."""
    return tuple(np.sort(n.parent.table[x, list(n.members)]).tolist())


def right_coset_minima(h: Subgroup) -> np.ndarray:
    """For every element x, the smallest element of the right coset H x."""
    t = h.parent.table
    low = np.arange(h.parent.order)
    for m in h.members[1:]:
        np.minimum(low, t[m], out=low)
    return low


def quotient(g: Group, n: Subgroup) -> QuotientMap:
    """Quotient by a normal subgroup; raises InputError naming a witness if not normal.

    Each coset is labelled by its smallest element, which is also the section.
    The target is named ``G/<generators of N>`` on the first read of its name,
    so a quotient nobody names never looks for small generators of N.
    """
    witness = _normality_witness(g, n)
    if witness is not None:
        m, x, c = witness
        raise InputError(
            f"subgroup is not normal in {g.name}: conjugating "
            f"{g.words[m]} by {g.words[x]} gives {g.words[c]}, "
            "which is outside the subgroup")

    low = right_coset_minima(n)  # N is normal, so x N = N x
    gens: dict[int, str] = {}  # coset of each generator, named by the first
    for x in g.generators:
        gens.setdefault(int(low[x]), g.words[x])
    target = build_group(lambda: f"{g.name}/{n.describe()}", list(gens),
                         lambda a, b: int(low[g.table[a, b]]), 0,
                         gen_names=list(gens.values()))
    if target.order * n.order != g.order:
        raise ConsistencyError("coset count does not match the index")
    section = target.elements
    position = np.zeros(g.order, dtype=np.intp)
    position[list(section)] = np.arange(target.order)
    return QuotientMap(g, n, target, _shared_ints(position[low], target.order),
                       section)


def nilpotency_class(g: Group) -> int:
    """Length of the lower central series; raises NotNilpotent if it stabilises."""
    whole = g.full_subgroup()
    cur = whole
    c = 0
    while cur.order > 1:
        nxt = commutator_subgroup(cur, whole)
        if nxt.members == cur.members:
            raise NotNilpotent(
                f"{g.name} is not nilpotent: the lower central series "
                f"stabilises at order {cur.order}")
        cur = nxt
        c += 1
    return c
