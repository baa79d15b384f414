"""Run the ladder of end-to-end CLI commands and print one JSON object.

Each command runs in a child process of its own (``python -m groupchar``
with ``--format json``, the program taken from ``<repo>/src``).  For each,
the output holds the wall seconds, the child's peak resident set size (its
``ru_maxrss``, read by ``os.wait4``), the exit code, and the SHA-256 of its
stdout, so two trees can be compared command by command: same digest, same
bytes.  Commands run one at a time, in the order below.

    python3 tools/ladder.py                    # this checkout
    python3 tools/ladder.py --repo ../other    # another checkout's src/

Standard library only.  The largest commands peak above 1 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _product(*factors: dict) -> dict:
    return {"type": "product", "factors": list(factors)}


def _gn(p: int, n: int) -> dict:
    return {"type": "gn", "p": p, "n": n}


S3 = {"type": "named", "name": "s3"}
LADDER = {
    "table gn(3,4)": (("table",), _gn(3, 4)),
    "table d5 x C200": (("table",), _product({"type": "named", "name": "d5"},
                                             {"type": "cyclic", "n": 200})),
    "table S3 x C200": (("table",), _product(S3, {"type": "cyclic", "n": 200})),
    "table S3 x C97": (("table",), _product(S3, {"type": "cyclic", "n": 97})),
    "verify all gn(3,3)": (("verify", "all"), _gn(3, 3)),
    "verify all gn(5,2)": (("verify", "all"), _gn(5, 2)),
    "verify all gn(23,1)": (("verify", "all"), _gn(23, 1)),
    "verify all gn(7,2)": (("verify", "all"), _gn(7, 2)),
    "verify all gn(3,4)": (("verify", "all"), _gn(3, 4)),
}


def run(repo: Path, name: str) -> dict:
    """One ladder command in a fresh child: wall time, peak RSS, exit code
    and stdout digest."""
    verb, spec = LADDER[name]
    argv = [sys.executable, "-m", "groupchar", *verb, "--group",
            json.dumps(spec, separators=(",", ":")), "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {"command": name, "argv": argv[3:], "exit": child.returncode,
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
            "stdout_sha256": digest}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ runs (default: this one)")
    args = ap.parse_args()
    results = []
    for name in LADDER:
        results.append(run(args.repo.resolve(), name))
        print(json.dumps(results[-1]), file=sys.stderr)
    print(json.dumps({"python": platform.python_version(), "cpus": os.cpu_count(),
                      "results": results}, indent=1))
    return 0 if all(r["exit"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
