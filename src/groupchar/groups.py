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

Enumeration works on whole arrays too.  ``build_group`` takes a batched
product of label arrays and discovers one breadth-first level per call,
in exactly the order a queue taking one element at a time would give; it
fills the table level by level from the products by each generator on the
left.  Groups whose products are already tables (direct products,
quotients) are ordered the same way by ``enumerate_gathered`` and gather
their table in blocks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse, repeat
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
            label = np.arange(self.order)
            while not np.array_equal(low := _lower(label, perms), label):
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


def _lower(label: np.ndarray, perms: Sequence[np.ndarray]) -> np.ndarray:
    """One round of minimum-label propagation along ``perms``.

    ``label[x]`` must lie in the orbit of x and be at most x.  Each label
    falls to the smallest label of its images, then jumps to its own
    label's label; repeated until nothing changes, every element is
    labelled by the smallest member of its orbit.
    """
    low = label.copy()
    for p in perms:
        np.minimum(low, label[p], out=low)
    return low[low]


def _named(name: str | Callable[[], str]) -> str:
    return name() if callable(name) else name


def _unique_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array in ascending order, as
    ``np.unique(a)`` gives them: numpy 2's plain ``np.unique`` asks
    ``np.ma.is_masked`` and so imports ``numpy.ma``."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One exact, hashable key per label once ``tolist`` is applied: the
    label itself for integer labels, the row's bytes for tuple labels (a
    mixed radix can overflow int64, as for a permutation of 20 points)."""
    if rows.ndim == 1:
        return rows
    if not rows.shape[1]:  # the empty tuple, the one label of width 0
        return np.zeros(len(rows), dtype=np.int64)
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _bfs(name: str | Callable[[], str], start: np.ndarray, k: int,
         expand: Callable[[np.ndarray], np.ndarray], limit: int):
    """Breadth-first enumeration from the label array ``start`` (one row),
    one level at a time.

    ``expand(frontier)`` returns every frontier label times each of the
    ``k`` generators, frontier-major: row i*k + j is frontier[i] times
    generator j.  New labels of a level keep the order of their first
    appearance there, which is exactly the order in which a queue taking
    one element at a time would discover them.  Raises ResourceError
    before more than ``limit`` elements are held.

    Returns the labels in order, each element's parent index and
    generator slot, the bounds of the levels, and a dict from each
    label's key (see ``_row_keys``) to its index.
    """
    levels, parents, slots = [start], [np.full(1, -1)], [np.full(1, -1)]
    bounds = [0, 1]
    index = dict.fromkeys(_row_keys(start).tolist(), 0)
    while k:
        lo, hi = bounds[-2], bounds[-1]
        cand = np.asarray(expand(levels[-1]), dtype=np.int64)
        keys = _row_keys(cand).tolist()
        # each key's first position: of repeated keys, the last write wins
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        pos = sorted(map(first.__getitem__, filterfalse(index.__contains__, first)))
        if not pos:
            break
        total = hi + len(pos)
        if total > limit:
            raise ResourceError(
                f"closure of {_named(name)} exceeds the order cap ({limit})")
        index.update(zip(map(keys.__getitem__, pos), range(hi, total)))
        pos = np.array(pos, dtype=np.intp)  # rows of ``cand``, in discovery order
        levels.append(cand[pos])
        parents.append(lo + pos // k)
        slots.append(pos % k)
        bounds.append(total)
    return (np.concatenate(levels), np.concatenate(parents),
            np.concatenate(slots), bounds, index)


def _indices(index: dict, rows: np.ndarray) -> np.ndarray:
    """The element index of each label row, or -1 where it has none."""
    keys = _row_keys(np.asarray(rows, dtype=np.int64)).tolist()
    return np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.intp,
                       count=len(keys))


def _bfs_words(parents: np.ndarray, slots: np.ndarray,
               gen_names: Sequence[str]) -> list[str]:
    """Each element's word: its parent's word times its generator."""
    par, slot = parents.tolist(), slots.tolist()
    words = ["1"] * len(par)
    for j in range(1, len(par)):
        name = gen_names[slot[j]]
        words[j] = name if par[j] == 0 else words[par[j]] + "*" + name
    return words


_FILL_BLOCK = 2 ** 18  # table entries gathered per block of rows


def build_group(name: str | Callable[[], str], gen_labels: Sequence[Label],
                compose: Callable[[np.ndarray, np.ndarray], np.ndarray],
                identity: Label, *,
                gen_names: Sequence[str] | None = None,
                cap: int = ORDER_CAP,
                words_fn: Callable[[np.ndarray], list[str]] | None = None,
                meta: dict | None = None) -> Group:
    """Enumerate the closure of ``gen_labels`` under ``compose``.

    Labels are ints or tuples of ints.  ``compose`` is batched: it takes
    two arrays holding equally many labels, one per row (int labels as a
    1-D array, tuples of width w as an (m, w) array), and returns the
    array of their products, row by row.  The element order is canonical:
    identity first, then breadth-first discovery multiplying on the right
    by the generators in input order.  Discovery runs one level at a time,
    and its order is exactly that of a queue working through the elements
    one by one.  Raises ResourceError once the closure exceeds
    ``min(cap, ORDER_CAP)`` elements, and InputError when a product of a
    generator on the left leaves the closure.  ``name`` may be a function,
    as for ``Group``.  ``words_fn`` maps the array of all labels, in order,
    to their words; by default a word is its parent's times a generator.
    """
    gens = list(dict.fromkeys(gen_labels))
    k = len(gens)
    if gen_names is None:
        gen_names = _default_gen_names(k)
    elif len(gen_names) < k:
        raise InputError("fewer generator names than generators")
    start = np.array([identity], dtype=np.int64)
    garr = np.array(gens, dtype=np.int64).reshape((k,) + start.shape[1:])

    def expand(frontier):
        return compose(np.repeat(frontier, k, axis=0),
                       garr[np.tile(np.arange(k), len(frontier))])

    rows, parents, slots, bounds, index = _bfs(
        name, start, k, expand, min(cap, ORDER_CAP))
    n = len(rows)

    # row j is x -> w_j x; with w_j = w_par g it is row par read at g x
    left = np.empty((k, n), dtype=np.intp)
    for j in range(k):
        left[j] = _indices(index, compose(garr[np.full(n, j)], rows))
    if (left < 0).any():
        raise InputError(f"left products escape the closure of {_named(name)}; "
                         "the multiplication is not a group law")
    table = np.empty((n, n), dtype=np.uint16)
    table[0] = np.arange(n)
    step = max(1, _FILL_BLOCK // n)
    rows_in, rows_out = np.empty((2, step, n), dtype=np.uint16)  # reused blocks
    for lo, hi in zip(bounds[1:], bounds[2:]):  # a level's parents are done
        for j in range(k):
            kids = lo + np.flatnonzero(slots[lo:hi] == j)
            for b in range(0, kids.size, step):
                rws = kids[b:b + step]
                m = rws.size
                np.take(table, parents[rws], axis=0, out=rows_in[:m])
                table[rws] = np.take(rows_in[:m], left[j], axis=1, out=rows_out[:m])

    labels = rows.tolist()
    elements = labels if rows.ndim == 1 else list(map(tuple, labels))
    words = (words_fn(rows) if words_fn is not None
             else _bfs_words(parents, slots, gen_names))
    return Group(name, elements, words, _indices(index, garr).tolist(), table,
                 meta=meta)


def enumerate_gathered(name: str | Callable[[], str], m: int,
                       product: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       gens: Sequence[int], *, cap: int = ORDER_CAP):
    """Canonical order and table of the group generated by ``gens`` among
    labels 0..m-1 whose products are gathered from known tables:
    ``product(rows, cols)`` is the block of products rows[i] * cols[j].

    The order is that of ``build_group`` for the same generators, which
    must be distinct.  The table is gathered in blocks of rows, in that
    order.  Returns the labels in order, each element's parent index and
    generator slot, the table, and each label's index (``rank``).
    """
    gens = np.array(gens, dtype=np.intp)
    right = product(np.arange(m), gens)  # every label times each generator
    order, parents, slots, _, _ = _bfs(
        name, np.zeros(1, dtype=np.int64), gens.size,
        lambda frontier: right[frontier].ravel(), min(cap, ORDER_CAP))
    n = order.size
    rank = np.zeros(m, dtype=np.uint16)
    rank[order] = np.arange(n)
    table = np.empty((n, n), dtype=np.uint16)
    step = max(1, _FILL_BLOCK // n)  # bounds the gathered temporaries
    for lo in range(0, n, step):
        table[lo:lo + step] = rank[product(order[lo:lo + step], order)]
    return order, parents, slots, table, rank


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

    def compose(p, r):  # p∘r, row by row: apply r first
        return np.take_along_axis(p, r, axis=1)

    return build_group(name or f"perm({degree})", labels, compose,
                       tuple(range(degree)), gen_names=gen_names, cap=cap)


def perm_from_cycles(degree: int, cycles: Sequence[Sequence[int]],
                     support: Sequence[int] | None = None) -> tuple[int, ...]:
    """Image tuple of a product of disjoint cycles on 1-based points.

    Each cycle is checked against ``degree``, and a point in two cycles is
    refused.  The tuple covers every point, or with ``support`` (ascending
    1-based points that include every point of the cycles) those points
    only, position i standing for support[i].
    """
    where = None if support is None else {p: i for i, p in enumerate(support)}
    images = list(range(degree if where is None else len(where)))
    moved: set[int] = set()
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        if any(p < 0 or p >= degree for p in pts) or len(set(pts)) != len(pts):
            raise InputError(f"bad cycle {list(cyc)} for degree {degree}")
        again = [c for c in cyc if c in moved]
        if again:
            raise InputError(f"point {again[0]} lies in more than one cycle "
                             "of a generator; the cycles must be disjoint")
        moved.update(cyc)
        if where is not None:
            pts = [where[c] for c in cyc]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


class Subgroup:
    """A subgroup of a parent group, held as a sorted tuple of member indices."""

    __slots__ = ("parent", "members", "_group", "_small_gens", "_hash")

    def __init__(self, parent: Group, members: Iterable[int]):
        arr = (members if isinstance(members, np.ndarray)
               else np.fromiter(members, dtype=np.intp))
        if not (arr[1:] > arr[:-1]).all():  # an index array is often sorted already
            arr = _unique_sorted(arr)
        mt = tuple(arr.tolist())
        if not mt or mt[0] != 0:
            raise InputError("a subgroup must contain the identity (index 0)")
        if mt[-1] >= parent.order:
            raise InputError("member index out of range")
        self.parent = parent
        self.members = mt
        self._group = None
        self._small_gens = None
        self._hash = None

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        at = bisect_left(self.members, x)
        return at < self.order and self.members[at] == x

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
        return set(self.members).issuperset(other.members)

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
            ys = _unique_sorted(ys[~reached[ys]])
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
    """For every element x, the smallest element of the right coset H x.

    Labels are propagated (``_lower``) along left multiplication by a few
    members of H: those at positions 1, 2, 4, ... of ``h.members``, and,
    whenever the labels settle while the identity's label class (the
    subgroup the chosen members generate) is smaller than H, the first
    member outside it.  The labels are final once they are their own
    labels and take exactly |G|/|H| values: the orbits, right cosets of a
    subgroup of H, are then no more than the cosets H x, so each is one
    such coset and holds exactly one label, its smallest element.
    """
    g = h.parent
    everything = np.arange(g.order)
    if h.order == 1:
        return everything
    members = np.array(h.members, dtype=np.intp)
    at = 1 << np.arange((h.order - 1).bit_length())
    picks = [g.table[m].astype(np.intp) for m in members[at]]  # no gather casts again
    label, cosets = everything, g.order // h.order
    while True:
        low = _lower(label, picks)
        if (np.count_nonzero(low == everything) == cosets
                and np.array_equal(low[low], low)):
            return low
        if np.array_equal(low, label):
            picks.append(g.table[members[np.argmax(low[members] != 0)]].astype(np.intp))
        label = low


def quotient(g: Group, n: Subgroup) -> QuotientMap:
    """Quotient by a normal subgroup; raises InputError naming a witness if not normal.

    Each coset is labelled by its smallest element, which is also the section.
    The target is named ``G/<generators of N>`` on the first read of its name,
    so a quotient nobody names never looks for small generators of N.
    """
    target, projection, section = _cosets(g, n)
    return QuotientMap(g, n, target, _shared_ints(projection, target.order),
                       tuple(section.tolist()))


def _cosets(g: Group, n: Subgroup) -> tuple:
    """(G/N, projection, section) as ``quotient`` builds them, the last two arrays."""
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
