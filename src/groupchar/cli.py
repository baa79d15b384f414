"""Command-line surface: build groups from JSON specs, print exact character
tables, run property checks and claim verifications.

Exit codes: 0 = pass, 1 = property or verification failed, 2 = invalid
input, 3 = resource limit hit, 4 = hypotheses not met, 5 = internal error
(two computations that must agree did not, or any other unexpected
exception; the message and traceback go to stderr and nothing is written
to stdout).
Output is fully deterministic: identical invocations produce byte-identical
bytes (JSON is emitted with sorted keys and fixed separators, and nothing in
the payload depends on time or process state).
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from typing import Callable

import numpy as np

from .chartable import CharacterTable, character_table, degree_set
from .constructions import from_spec, gn_order, is_integer
from .cyclotomic import Cyclotomic
from .errors import (ConsistencyError, HypothesisNotMet, InputError,
                     ResourceError)
from .groups import ORDER_CAP, Group, generated_by
from .gvz import _CLAIMS, is_gcp, is_gvz, verify_all, verify_claim

SCHEMA = "report-v1"


# ---------------------------------------------------------------------------
# group-spec plumbing

def _load_spec(text: str) -> dict:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read group spec file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"group spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("group spec must be a JSON object")
    return doc


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _build_group(args) -> tuple[Group, dict]:
    if not getattr(args, "group", None):
        raise InputError("missing --group <json|@file>")
    if args.max_order < 1:
        raise InputError(f"--max-order {args.max_order} must be positive")
    doc = _load_spec(args.group)
    g = from_spec(doc, cap=args.max_order)
    if g.order > args.max_order:
        raise ResourceError(
            f"|{g.name}| = {g.order} exceeds --max-order {args.max_order}")
    return g, doc


def _envelope(command: str, g: Group, doc: dict, payload: dict,
              passed: bool) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "group": {"name": g.name, "order": g.order, "spec": _canonical(doc)},
        "passed": passed,
        "payload": payload,
    }


def _emit(args, envelope: Callable[[], dict], text: Callable[[], str]) -> None:
    """Write the JSON envelope or the text rendering, building only the one
    that ``--format`` asks for."""
    if args.format == "json":
        sys.stdout.write(_canonical(envelope()) + "\n")
    else:
        out = text()
        sys.stdout.write(out if out.endswith("\n") else out + "\n")


# ---------------------------------------------------------------------------
# table

def _approx(value) -> str:
    z = cmath.exp(2j * cmath.pi / value.conductor)
    c = sum(float(a) * z ** t for t, a in enumerate(value.coeffs))
    return f"{c.real:+.4f}{c.imag:+.4f}i"


def _per_entry(t: CharacterTable, show: Callable[[Cyclotomic], str]) -> list[list[str]]:
    """``show(value)`` for every entry of the table, one list per irreducible.

    A table holds few distinct values (cyclic(60): 60 among 3,600 entries),
    so the coefficient rows of all irreducibles at ``t.exponent`` are
    compared as bytes through a 1-D void view, and ``show`` runs once per
    distinct row, on one ``Cyclotomic``.
    """
    e = t.exponent
    rows = np.concatenate([ch.at(e) for ch in t.irreducibles])
    keys = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    shown = np.array([show(Cyclotomic(e, row)) for row in rows[first].tolist()],
                     dtype=object)
    return shown[inverse.reshape(len(t.irreducibles), -1)].tolist()


def _table_payload(t: CharacterTable) -> dict:
    g = t.group
    orders = g.element_orders()
    return {
        "exponent": t.exponent,
        "field_prime": t.field_prime,
        "classes": [
            {"rep": g.words[r], "size": len(m), "element_order": orders[r]}
            for r, m in zip(t.classes.reps, t.classes.members)
        ],
        "irreducibles": [
            {"degree": ch.degree, "values": values}
            for ch, values in zip(t.irreducibles,
                                  _per_entry(t, Cyclotomic.render))
        ],
    }


def _rendered_with_decimal(v: Cyclotomic) -> str:
    return f"{v.render()}   ~ {_approx(v)} (approximate)"


def _table_text(t: CharacterTable, decimal: bool) -> str:
    g = t.group
    orders = g.element_orders()
    lines = [f"group {g.name}: order {g.order}, exponent {t.exponent}, "
             f"{len(t.classes)} classes",
             f"values lie in Q(zeta_{t.exponent}); "
             f"z denotes a primitive {t.exponent}-th root of unity"]
    lines.append("classes:")
    for i, (r, m) in enumerate(zip(t.classes.reps, t.classes.members)):
        lines.append(f"  C{i}: rep {g.words[r]}  size {len(m)}  "
                     f"element order {orders[r]}")
    lines.append("irreducibles:")
    cells = _per_entry(t, _rendered_with_decimal if decimal else Cyclotomic.render)
    for i, (ch, row) in enumerate(zip(t.irreducibles, cells)):
        lines.append(f"  chi{i} (degree {ch.degree}):")
        lines.extend(f"    C{j}: {cell}" for j, cell in enumerate(row))
    return "\n".join(lines)


def cmd_table(args) -> int:
    g, doc = _build_group(args)
    t = character_table(g)
    _emit(args, lambda: _envelope("table", g, doc, _table_payload(t), True),
          lambda: _table_text(t, args.decimal))
    return 0


# ---------------------------------------------------------------------------
# check

def _resolve_normal(g: Group, option: str):
    if option == "center":
        return g.center()
    if option == "derived":
        return g.derived_subgroup()
    try:
        seeds = json.loads(option)
    except json.JSONDecodeError:
        raise InputError("--normal must be 'center', 'derived', or a JSON "
                         "list of generator indices") from None
    if (not isinstance(seeds, list)
            or not all(map(is_integer, seeds))):
        raise InputError("--normal generator list must contain integers")
    for s in seeds:
        if not 0 <= s < g.order:
            raise InputError(f"generator index {s} is outside 0..{g.order - 1}")
    return generated_by(g, seeds)


def cmd_check(args) -> int:
    g, doc = _build_group(args)
    t = character_table(g)
    if args.kind == "gvz":
        rep = is_gvz(t)
        payload = {"kind": "gvz", "result": rep.to_dict()}
        holds = rep.holds
        text = [f"check gvz on {g.name}: {'PASS' if holds else 'FAIL'}"]
        text.append(f"  degrees: {list(rep.degrees)}")
        if rep.witness:
            text.append(f"  witness: character #{rep.witness['character']} "
                        f"(degree {rep.witness['degree']}) takes value "
                        f"{rep.witness['value']} at {rep.witness['class_rep']} "
                        "outside its centre")
    elif args.kind == "gcp":
        n = _resolve_normal(g, args.normal)
        rep = is_gcp(t, n)
        payload = {"kind": "gcp",
                   "normal": {"description": n.describe(), "order": n.order},
                   "result": rep.to_dict()}
        holds = rep.holds
        text = [f"check gcp on ({g.name}, {n.describe()}): "
                f"{'PASS' if holds else 'FAIL'}"]
        if rep.witness:
            text.append(f"  witness: element {rep.witness['element']} outside "
                        f"the subgroup has class size "
                        f"{rep.witness['class_size']} but coset size "
                        f"{rep.witness['coset_size']}")
    else:  # two-degree
        ds = degree_set(t)
        holds = len(ds) == 2
        payload = {"kind": "two-degree", "degrees": list(ds), "holds": holds}
        text = [f"check two-degree on {g.name}: {'PASS' if holds else 'FAIL'}",
                f"  degrees: {list(ds)}"]
    _emit(args, lambda: _envelope("check", g, doc, payload, holds),
          lambda: "\n".join(text))
    return 0 if holds else 1


# ---------------------------------------------------------------------------
# verify

def _verify_text(reports) -> str:
    lines = []
    for d in reports:
        lines.append(f"claim {d['claim']} on {d['group']}: "
                     f"{'PASS' if d['passed'] else 'FAIL'}")
        for c in d.get("checks", []):
            row = f"  [{c['status']:4}] {c['label']}"
            if c.get("rhs") is not None:
                row += f" | lhs={c['lhs']} rhs={c['rhs']}"
            elif c.get("lhs") is not None:
                row += f" | {c['lhs']}"
            if c.get("witness") is not None:
                row += f" | witness: {c['witness']}"
            lines.append(row)
        if "centres" in d:
            for entry in d["centres"]:
                tag = {True: "listed", False: "unlisted", None: ""}[entry["listed"]]
                lines.append(f"  centre <{','.join(entry['generators'])}> "
                             f"order {entry['order']}: {entry['count']} "
                             f"characters {tag}".rstrip())
            lines.append(f"  nonlinear total: {d['nonlinear_total']}")
            if d["all_predicted_present"] is not None:
                lines.append("  all predicted centres occur: "
                             f"{d['all_predicted_present']}")
                lines.append("  centres outside the predicted family occur: "
                             f"{d['unlisted_present']}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    g, doc = _build_group(args)
    t = character_table(g)
    if args.target == "all":
        reports = [r.to_dict() for r in verify_all(t)]
    else:
        reports = [verify_claim(t, args.target).to_dict()]
    passed = all(d["passed"] for d in reports)
    payload = {"target": args.target, "reports": reports}
    _emit(args, lambda: _envelope("verify", g, doc, payload, passed),
          lambda: _verify_text(reports))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    if args.family != "gn":
        raise InputError(f"unknown family {args.family!r}; only 'gn' is supported")
    gn_order(args.p, args.n)
    doc = {"type": "gn", "p": args.p, "n": args.n}
    out = _canonical(doc) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise InputError(f"cannot write --out file: {exc}") from None
        sys.stdout.write(f"wrote {args.out}\n")
    else:
        sys.stdout.write(out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="groupchar",
        description="Exact character tables and centre-structure checks for "
                    "finite groups.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--group", required=False,
                       help="group spec as JSON, or @file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-order", type=int, default=ORDER_CAP,
                       metavar="N", help="refuse groups larger than N "
                                         f"(at most {ORDER_CAP})")

    p = sub.add_parser("table", help="print the exact character table")
    common(p)
    p.add_argument("--decimal", action="store_true",
                   help="add approximate decimal values to the text rendering")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("check", help="evaluate a single property")
    p.add_argument("kind", choices=("gvz", "gcp", "two-degree"))
    common(p)
    p.add_argument("--normal", default="center",
                   help="for gcp: center, derived, or a JSON list of "
                        "generator indices")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify", help="run a claim verifier")
    p.add_argument("target", choices=_CLAIMS + ("all",))
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit a group spec for a built-in family")
    p.add_argument("family", choices=("gn",))
    p.add_argument("-p", type=int, required=True, help="odd prime")
    p.add_argument("-n", type=int, required=True, help="number of generator pairs")
    p.add_argument("--out", help="write the group spec to this file")
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except HypothesisNotMet as exc:
        sys.stderr.write(f"hypothesis not met: {exc}\n")
        return 4
    except ConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 5
    except Exception as exc:  # anything else is a bug, not a failed property
        import traceback

        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return 5


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
