"""Benchmark for the groupchar CLI: wall and CPU time (in units of a
reference loop timed alongside them), peak memory and set-up time of fixed
workloads, with every output checked.

    python3 perfbench/run.py --workload table-lift --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each run starts one fresh child (``worker.py``) that runs the workload's
commands in a closed loop, single-threaded.  This process then checks every
distinct stdout with ``oracles`` and against the hashes earlier runs in this
checkout recorded, runs the checker self-test on a corrupted copy, and
prints one JSON object as its last line.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
The seed picks only the oracle prime; the inputs are fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASHES = HERE / ".hashes"
DEADLINE_S = 170   # per workload; the child is killed when it runs over
SETUP_PROBES = 7   # children that only import groupchar, before and after


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run a worker to completion; return its report and its spawn time."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {argv} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1]), spawned


def _declared_units(key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _schema_validator():
    from jsonschema import Draft7Validator
    with open(ROOT / "docs" / "report-v1.schema.json", encoding="utf-8") as fh:
        return Draft7Validator(json.load(fh))


def _check(commands, report: dict, seed: int, stored: dict) -> tuple[int, int, bool]:
    """Count attempted and failed operations; run the checker self-test."""
    validator = _schema_validator()
    facts = [cmd.facts() for cmd in commands]
    outputs = report["outputs"]
    verdicts: dict[tuple[int, str], list[str]] = {}

    def verdict(i: int, digest: str) -> list[str]:
        if (i, digest) not in verdicts:
            try:
                verdicts[i, digest] = oracles.check_output(
                    commands[i], outputs[digest], facts[i], seed, validator)
            except Exception as exc:  # a malformed output must not stop the run
                verdicts[i, digest] = [f"checker raised {exc!r}"]
        return verdicts[i, digest]

    rounds = report["rounds"] + ([report["traced"]] if "traced" in report else [])
    first = [op["sha256"] for op in report["rounds"][0]["ops"]]
    attempted = failed = 0
    clean = set(range(len(commands)))
    for rnd in rounds:
        for i, op in enumerate(rnd["ops"]):
            attempted += 1
            problems = list(verdict(i, op["sha256"]))
            if op["rc"] != 0:
                problems.append(f"exit code {op['rc']}: {op['error']}")
            if op["sha256"] != stored.get(commands[i].label, first[i]):
                problems.append("stdout differs from an earlier run")
            if problems:
                failed += 1
                clean.discard(i)
                print(f"FAILED {commands[i].label}: {'; '.join(problems)}",
                      file=sys.stderr)
    for i in clean:
        stored.setdefault(commands[i].label, first[i])

    # Checker self-test: one altered table value or one pass turned into a
    # fail must be rejected.  It uses the smallest output of the workload.
    i = min(range(len(commands)), key=lambda j: len(outputs[first[j]]))
    try:
        bad = oracles.corrupt(outputs[first[i]])
        rejected = bool(oracles.check_output(commands[i], bad, facts[i],
                                             seed, validator))
    except (ValueError, KeyError, IndexError, TypeError):
        rejected = False
    if not rejected:
        print(f"SELF-TEST: corrupted {commands[i].label} was accepted",
              file=sys.stderr)
    return attempted, failed, rejected


def _load_hashes(name: str) -> dict:
    try:
        with open(HASHES / f"{name}.json", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _save_hashes(name: str, stored: dict) -> None:
    HASHES.mkdir(exist_ok=True)
    tmp = HASHES / f"{name}.json.tmp"
    tmp.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")
    os.replace(tmp, HASHES / f"{name}.json")


def _median_round(rounds: list[dict], value) -> float:
    """One round's cost: the sum over the commands of each one's median.

    The host's speed changes by up to 1.9x for spans of seconds to a minute.
    A median over the run's rounds ignores such a span when it covers less
    than half the run, where a mean takes part of it in.
    """
    return sum(statistics.median(value(r["ops"][i]) for r in rounds)
               for i in range(len(rounds[0]["ops"])))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []

    def probe_setup() -> None:
        if not trace:
            for _ in range(SETUP_PROBES):
                probe, spawned = _spawn(["--probe"], deadline)
                setups.append(probe["imported_at"] - spawned)

    # Probes on both sides of the workload child sample set-up time over the
    # whole run, not only in the host's state at its start.
    probe_setup()
    report, spawned = _spawn(["--workload", name, "--seconds", str(seconds),
                              "--trace", str(int(trace))], deadline)
    setups.append(report["imported_at"] - spawned)
    probe_setup()

    stored = _load_hashes(name)
    attempted, failed, self_test = _check(WORKLOADS[name], report, seed, stored)
    _save_hashes(name, stored)

    rounds = report["rounds"]
    if trace:
        traced = report["traced"]
        values = dict(report["trace"])
        values["cli.output_bytes"] = traced["output_bytes"]
        values["trace.overhead_s"] = traced["wall_s"] - _median_round(
            rounds, lambda op: op["wall_s"])
        units = _declared_units("per_layer")
    else:
        # Longer spans of a slow host still move a median in seconds.  The
        # reference loop sampled during each command slows with it, so the
        # ratio keeps the program's own cost.
        wall = _median_round(rounds, lambda op: op["wall_s"])
        cpu = _median_round(rounds, lambda op: op["cpu_s"])
        ref = statistics.median(op["ref_wall_s"]
                                for r in rounds for op in r["ops"])
        print(f"{name}: wall {wall:.4f} s, cpu {cpu:.4f} s per round; "
              f"reference loop {ref * 1e3:.3f} ms", file=sys.stderr)
        values = {
            "wall_norm": _median_round(
                rounds, lambda op: op["wall_s"] / op["ref_wall_s"]),
            "cpu_norm": _median_round(
                rounds, lambda op: op["cpu_s"] / op["ref_cpu_s"]),
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setups),
        }
        units = _declared_units("end_to_end")
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} are "
                         "not both measured and declared")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(f"{name}: rounds {len(rounds)}, attempted {attempted}, failed {failed}; "
          + ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()),
          file=sys.stderr)
    return {"correct": self_test, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True,
                    help="picks the oracle prime; the inputs are fixed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="run whole rounds of the workload until this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
