"""Command-line interface: exit codes, JSON schema conformance, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import groupchar
from groupchar import ConsistencyError, cli
from groupchar.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-v1.schema.json")
    .read_text())

HEIS3 = '{"type":"gn","p":3,"n":1}'
S3 = '{"type":"named","name":"s3"}'
C6 = '{"type":"cyclic","n":6}'


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_text_output(capsys):
    code, out, err = _run(capsys, "table", "--group", S3)
    assert code == 0 and err == ""
    assert "s3" in out and "classes" in out
    assert "primitive" in out  # legend for the root-of-unity symbol


def test_table_decimal_annotation(capsys):
    code, out, _ = _run(capsys, "table", "--group", HEIS3, "--decimal")
    assert code == 0
    assert "approximate" in out


def test_table_json_is_schema_valid(capsys):
    code, out, _ = _run(capsys, "table", "--group", S3, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["schema"] == "report-v1"
    assert doc["command"] == "table"
    assert doc["group"]["order"] == 6
    degrees = sorted(ch["degree"] for ch in doc["payload"]["irreducibles"])
    assert degrees == [1, 1, 2]


def test_check_exit_codes(capsys):
    assert _run(capsys, "check", "gvz", "--group", HEIS3)[0] == 0
    code, out, _ = _run(capsys, "check", "gvz", "--group", S3)
    assert code == 1
    assert "witness" in out
    assert _run(capsys, "check", "two-degree", "--group", S3)[0] == 0
    assert _run(capsys, "check", "two-degree", "--group", C6)[0] == 1
    assert _run(capsys, "check", "gcp", "--group", HEIS3,
                "--normal", "center")[0] == 0
    assert _run(capsys, "check", "gcp", "--group",
                '{"type":"named","name":"c3wrc3"}', "--normal", "center")[0] == 1


def test_check_json_schema_and_normal_options(capsys):
    for normal in ("center", "derived", "[3]"):  # element 3 generates the centre
        code, out, _ = _run(capsys, "check", "gcp", "--group", HEIS3,
                            "--normal", normal, "--format", "json")
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["payload"]["kind"] == "gcp"
        assert doc["payload"]["result"]["holds"] is (code == 0)
        assert doc["passed"] is (code == 0)


def test_bad_normal_subgroup_option(capsys):
    assert _run(capsys, "check", "gcp", "--group", HEIS3,
                "--normal", "not json")[0] == 2
    assert _run(capsys, "check", "gcp", "--group", HEIS3,
                "--normal", "[999]")[0] == 2
    # a non-normal subgroup (a transposition in s3) is an input error too
    code, _, err = _run(capsys, "check", "gcp", "--group", S3, "--normal", "[2]")
    assert code == 2 and "error:" in err


def test_verify_exit_codes(capsys):
    assert _run(capsys, "verify", "thm1.1", "--group", HEIS3)[0] == 0
    assert _run(capsys, "verify", "thm1.2", "--group", S3)[0] == 0
    assert _run(capsys, "verify", "all", "--group", HEIS3)[0] == 0
    code, _, err = _run(capsys, "verify", "prop2.11", "--group", HEIS3)
    assert code == 4 and "hypothesis not met" in err
    code, _, err = _run(capsys, "verify", "thm1.1", "--group", C6)
    assert code == 4


def test_verify_json_is_schema_valid(capsys):
    code, out, _ = _run(capsys, "verify", "all", "--group", HEIS3,
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    claims = [r["claim"] for r in doc["payload"]["reports"]]
    assert claims == ["thm1.1", "thm1.2", "lemmas", "prop2.11", "centres"]
    census = doc["payload"]["reports"][-1]
    assert census["nonlinear_total"] == 2


def test_verify_text_mentions_statuses(capsys):
    code, out, _ = _run(capsys, "verify", "lemmas", "--group", S3)
    assert code == 0
    assert "[pass]" in out and "[skip]" in out


def test_invalid_group_specs(capsys):
    assert _run(capsys, "table", "--group", "{not json")[0] == 2
    assert _run(capsys, "table", "--group", '{"type":"nope"}')[0] == 2
    assert _run(capsys, "table", "--group", "@/no/such/file.json")[0] == 2
    code, _, err = _run(capsys, "table")
    assert code == 2 and "error:" in err


def test_max_order_resource_limit(capsys):
    code, _, err = _run(capsys, "table", "--group", HEIS3, "--max-order", "10")
    assert code == 3 and "resource limit" in err


def test_json_booleans_are_not_integers(capsys):
    # JSON true parses to a Python bool, which isinstance(_, int) accepts
    for spec in ('{"type":"cyclic","n":true}', '{"type":"gn","p":3,"n":true}',
                 '{"type":"gn","p":true,"n":1}',
                 '{"type":"perm","points":true,"generators":[[[1]]]}',
                 '{"type":"perm","points":3,"generators":[[[1,true]]]}',
                 '{"type":"perm","points":3,"generators":[[1,2]]}'):
        code, out, err = _run(capsys, "table", "--group", spec)
        assert code == 2 and out == "" and "error:" in err, spec
    code, out, err = _run(capsys, "check", "gcp", "--group", HEIS3,
                          "--normal", "[true]")
    assert code == 2 and out == "" and "error:" in err


def test_perm_cycles_must_be_disjoint(capsys):
    code, out, err = _run(capsys, "table", "--group",
                          '{"type":"perm","points":4,"generators":[[[1,2],[2,3]]]}')
    assert code == 2 and out == ""
    assert "point 2 lies in more than one cycle" in err


def test_max_order_must_be_positive(capsys):
    for bound in ("0", "-5"):
        code, out, err = _run(capsys, "table", "--group", S3,
                              "--max-order", bound)
        assert code == 2 and out == "" and "error:" in err


def test_abelian_gvz_is_hypothesis_failure(capsys):
    code, _, err = _run(capsys, "check", "gvz", "--group", C6)
    assert code == 4 and "hypothesis" in err


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(g):
        raise ConsistencyError("class matrices failed to separate all characters")

    monkeypatch.setattr(cli, "character_table", broken)
    for argv in (("table",), ("verify", "all"), ("check", "gvz")):
        code, out, err = _run(capsys, *argv, "--group", S3, "--format", "json")
        assert code == 5 and out == ""
        assert "internal error" in err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(g):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "character_table", broken)
    for argv in (("table",), ("verify", "all"), ("check", "gvz")):
        for fmt in ("json", "text"):
            code, out, err = _run(capsys, *argv, "--group", S3, "--format", fmt)
            assert code == 5 and out == ""
            assert "internal error: RuntimeError: simulated fault" in err
            assert "Traceback" in err


def test_argparse_rejects_unknown_claim(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm7.7", "--group", HEIS3])
    assert exc.value.code == 2


def test_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "spec.json"
    code, _, _ = _run(capsys, "gen", "gn", "-p", "3", "-n", "1",
                      "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text()) == {"type": "gn", "p": 3, "n": 1}
    code, out, _ = _run(capsys, "check", "gvz", "--group", f"@{out_file}")
    assert code == 0
    # stdout when no --out is given
    code, out, _ = _run(capsys, "gen", "gn", "-p", "5", "-n", "1")
    assert code == 0 and json.loads(out) == {"type": "gn", "p": 5, "n": 1}
    assert _run(capsys, "gen", "gn", "-p", "4", "-n", "1")[0] == 2
    assert _run(capsys, "gen", "gn", "-p", "3", "-n", "0")[0] == 2


@pytest.mark.parametrize("where", ["missing/spec.json", "."],
                         ids=["missing-directory", "directory"])
def test_gen_to_an_unwritable_path_is_bad_input(tmp_path, capsys, where):
    code, out, err = _run(capsys, "gen", "gn", "-p", "3", "-n", "1",
                          "--out", str(tmp_path / where))
    assert code == 2 and out == ""
    assert "cannot write --out file" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("table", "--group", '{"type":"gn","p":1000000000000000000000000000057,"n":1}'),
    ("gen", "gn", "-p", "1000000000000000000000000000057", "-n", "1"),
    ("table", "--group", '{"type":"gn","p":3,"n":1000000000000}'),
    ("gen", "gn", "-p", "101", "-n", "1"),
])
def test_gn_over_the_cap_is_refused_before_it_is_built(capsys, argv):
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == "" and "exceeds the cap" in err


def test_json_output_is_deterministic(capsys):
    first = _run(capsys, "verify", "all", "--group", HEIS3, "--format", "json")
    second = _run(capsys, "verify", "all", "--group", HEIS3, "--format", "json")
    assert first == second
    one = _run(capsys, "table", "--group", S3, "--format", "json")
    two = _run(capsys, "table", "--group", S3, "--format", "json")
    assert one == two


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["table", "--group", '{"type":"cyclic","n":3}', "--format", "json"]
    src = str(Path(groupchar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "groupchar", *argv],
                          capture_output=True, env=env, timeout=120)
    code, out, _ = _run(capsys, *argv)
    assert done.returncode == 0 == code
    assert done.stdout == out.encode() and out


_MA_CHILD = """
import contextlib, os, sys
from groupchar.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--group", '{"type":"gn","p":3,"n":2}'),
    ("table", "--group", '{"type":"cyclic","n":60}'),
])
def test_cli_runs_without_importing_numpy_ma(argv):
    # numpy 2's plain np.unique imports numpy.ma, about 1.3 MB and tens of
    # milliseconds that no command needs.
    src = str(Path(groupchar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _MA_CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr
