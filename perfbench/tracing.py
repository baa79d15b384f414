"""Per-layer spans and counters, recorded from outside the package.

Nothing under ``src/`` knows about tracing.  A ``Tracer`` replaces every
binding of a public function (module globals, ``from x import y`` copies in
other modules, and class attributes such as ``Cyclotomic.__rmul__``) with a
wrapper, and puts the originals back when it is uninstalled.  Wrapping every
binding matters: ``gvz`` and ``cli`` import names directly, and ``decompose``
reaches ``inner_product`` through the ``chartable`` module global.

A span's self time is its duration minus the time covered by the spans it
directly encloses.  A name's inclusive time counts only its outermost call,
so a recursive ``from_spec`` on a product spec is not counted twice.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# The claim verifiers, keyed by the claim token the report uses.
VERIFIERS = {
    "thm1.1": "verify_fiber_theorem",
    "thm1.2": "verify_coset_criterion",
    "lemmas": "verify_identity_suite",
    "prop2.11": "verify_p4_criterion",
    "centres": "centre_census",
}


class Tracer:
    """Nested wall-clock spans and call counters over one traced round."""

    def __init__(self):
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _in_verifier(self) -> bool:
        return any(self._depth["gvz." + claim] for claim in VERIFIERS)

    def span(self, name: str, fn):
        stack, depth = self._stack, self._depth
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        nested_table = name == "chartable.table"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if nested_table and self._in_verifier():
                calls["gvz.nested_tables"] += 1
            depth[name] += 1
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - frame[0]
                stack.pop()
                self_time[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                depth[name] -= 1
                if not depth[name]:
                    inclusive[name] += took

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, owners, original, wrapper) -> None:
        bound = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding of {original!r} found to wrap")

    def install(self) -> None:
        """Wrap the public entry points of every layer of ``groupchar``."""
        import groupchar
        from groupchar import (chartable, cli, constructions, cyclotomic,
                               groups, gvz, modular)

        modules = (groupchar, chartable, cli, constructions, cyclotomic,
                   groups, gvz, modular)
        spans = [
            ("cli", cli.main),
            ("groups.build", constructions.from_spec),
            ("groups.quotient", groups.quotient),
            ("groups.commutator", groups.commutator_subgroup),
            ("modular.nullspace", modular.nullspace),
            ("modular.rref", modular.rref),
            ("chartable.class_matrix", chartable.class_matrix),
            ("chartable.table", chartable.character_table),
            ("chartable.inner_product", chartable.inner_product),
            ("chartable.decompose", chartable.decompose),
            ("chartable.induce", chartable.induce),
            ("chartable.restrict", chartable.restrict),
            ("chartable.char_center", chartable.char_center),
        ]
        spans += [("gvz." + claim, getattr(gvz, fn))
                  for claim, fn in VERIFIERS.items()]
        for name, fn in spans:
            self._rebind(modules, fn, self.span(name, fn))

        group_cls = groups.Group
        for meth in ("conjugacy_classes", "element_orders"):
            fn = vars(group_cls)[meth]
            self._rebind([group_cls], fn, self.span("groups.classes", fn))
        cyc = cyclotomic.Cyclotomic
        mul = vars(cyc)["__mul__"]  # also bound as __rmul__
        self._rebind([cyc], mul, self.counter("cyclotomic.mul", mul))
        init = vars(cyc)["__init__"]
        self._rebind([cyc], init, self.counter("cyclotomic.values_made", init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the traced round, keyed by metric name."""
        inc, calls = self.inclusive, self.calls
        out = {
            "groups.build_s": inc["groups.build"],
            "groups.classes_s": inc["groups.classes"],
            "groups.quotient_s": inc["groups.quotient"],
            "groups.quotient_calls": calls["groups.quotient"],
            "groups.commutator_s": inc["groups.commutator"],
            "modular.nullspace_s": inc["modular.nullspace"],
            "modular.nullspace_calls": calls["modular.nullspace"],
            "modular.rref_s": inc["modular.rref"],
            "modular.rref_calls": calls["modular.rref"],
            "chartable.class_matrix_s": inc["chartable.class_matrix"],
            "chartable.class_matrix_calls": calls["chartable.class_matrix"],
            "chartable.table_s": inc["chartable.table"],
            "chartable.table_calls": calls["chartable.table"],
            "chartable.table_self_s": self.self_time["chartable.table"],
            "chartable.inner_product_s": inc["chartable.inner_product"],
            "chartable.inner_product_calls": calls["chartable.inner_product"],
            "chartable.decompose_s": inc["chartable.decompose"],
            "chartable.decompose_calls": calls["chartable.decompose"],
            "chartable.induce_s": inc["chartable.induce"],
            "chartable.restrict_s": inc["chartable.restrict"],
            "chartable.char_center_s": inc["chartable.char_center"],
            "cyclotomic.mul_calls": calls["cyclotomic.mul"],
            "cyclotomic.values_made": calls["cyclotomic.values_made"],
        }
        for claim in VERIFIERS:
            out[f"gvz.{claim}_s"] = inc["gvz." + claim]
        out["gvz.nested_tables"] = calls["gvz.nested_tables"]
        out["cli.self_s"] = self.self_time["cli"]
        return out
