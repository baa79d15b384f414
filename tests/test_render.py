"""The table output renders each distinct value once, from the coefficient
rows, and must say exactly what the per-entry route through
``Character.values`` says.

The reference below is that route, kept verbatim: one ``Cyclotomic`` per
entry, rendered on its own.  Cost is checked by counting the scalars built,
not by a clock.
"""

from __future__ import annotations

import pytest

from groupchar import Cyclotomic, character_table, cli, from_spec

LIFT_SPECS = {
    "cyclic(60)": {"type": "cyclic", "n": 60},
    "d5 x C12": {"type": "product",
                 "factors": [{"type": "named", "name": "d5"},
                             {"type": "cyclic", "n": 12}]},
    "S6": {"type": "perm", "points": 6,
           "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]},
}


@pytest.fixture(scope="module")
def lift_tables():
    return {name: character_table(from_spec(spec))
            for name, spec in LIFT_SPECS.items()}


def _all_tables(tables, lift_tables):
    return {**tables, **lift_tables}


def _reference_text(t, decimal):
    """The irreducibles part of ``table`` text output, entry by entry."""
    lines = []
    for i, ch in enumerate(t.irreducibles):
        lines.append(f"  chi{i} (degree {ch.degree}):")
        for j, v in enumerate(ch.values):
            row = f"    C{j}: {v.render()}"
            if decimal:
                row += f"   ~ {cli._approx(v)} (approximate)"
            lines.append(row)
    return lines


def test_json_values_match_per_entry_rendering(tables, lift_tables):
    for name, t in _all_tables(tables, lift_tables).items():
        payload = cli._table_payload(t)
        assert [ch["values"] for ch in payload["irreducibles"]] == [
            [v.render() for v in ch.values] for ch in t.irreducibles], name
        assert [ch["degree"] for ch in payload["irreducibles"]] == [
            ch.degree for ch in t.irreducibles]


@pytest.mark.parametrize("decimal", [False, True])
def test_text_lines_match_per_entry_rendering(tables, lift_tables, decimal):
    for name, t in _all_tables(tables, lift_tables).items():
        lines = cli._table_text(t, decimal).split("\n")
        start = lines.index("irreducibles:") + 1
        assert lines[start:] == _reference_text(t, decimal), name


def _count_values_made(monkeypatch):
    made = []
    init = Cyclotomic.__init__

    def spy(self, conductor, coeffs):
        made.append(conductor)
        init(self, conductor, coeffs)

    monkeypatch.setattr(Cyclotomic, "__init__", spy)
    return made


def test_json_payload_builds_one_value_per_distinct_entry(lift_tables,
                                                          monkeypatch):
    t = lift_tables["cyclic(60)"]
    made = _count_values_made(monkeypatch)
    payload = cli._table_payload(t)
    entries = sum(len(ch["values"]) for ch in payload["irreducibles"])
    assert entries == 3600
    assert 0 < len(made) <= 60
    assert set(made) == {60}


def test_text_builds_one_value_per_distinct_entry(lift_tables, monkeypatch):
    made = _count_values_made(monkeypatch)
    for decimal in (False, True):
        made.clear()
        cli._table_text(lift_tables["d5 x C12"], decimal)
        assert 0 < len(made) <= 49
