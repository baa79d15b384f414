"""The benchmark's per-layer tracer must find every function it wraps.

``perfbench/tracing.py`` rebinds public functions of ``groupchar`` by
identity and raises when one is missing, so renaming a traced function
breaks ``perfbench/run.py --trace 1``; this test makes that a test failure.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from groupchar import chartable, cli, cyclotomic

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(capsys):
    originals = (cli.main, chartable.character_table,
                 vars(cyclotomic.Cyclotomic)["__init__"])
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[0]
        assert cli.main(["table", "--group", '{"type":"named","name":"s3"}',
                         "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (cli.main, chartable.character_table,
            vars(cyclotomic.Cyclotomic)["__init__"]) == originals
    metrics = tracer.metrics()
    assert metrics["chartable.table_calls"] == 1
    assert metrics["cyclotomic.values_made"] > 0  # the rendered table
