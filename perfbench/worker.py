"""Benchmark child process: one fresh interpreter per run of a workload.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1

The child imports ``groupchar`` from ``src/`` first, so the moment it
reports for that import bounds the set-up time.  ``--probe`` stops there.
Otherwise it runs the workload's commands through ``groupchar.cli.main`` in
a closed loop, one after another, in whole rounds: it starts another round
only while that round, at the mean length so far, ends within ``S`` seconds.
With ``--trace 1`` it then runs one more round with every layer wrapped.
It prints one JSON object on stdout for ``run.py`` to check.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import groupchar.cli  # noqa: E402  (imported first: this is the set-up timed)

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import (contextmanager, nullcontext,  # noqa: E402
                        redirect_stderr, redirect_stdout)
from fractions import Fraction  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_kb() -> int:
    """High-water resident set size of this process image, in KiB.

    ``getrusage`` is not used: on Linux its ``ru_maxrss`` carries over the
    parent's resident size from before ``exec``, so a small child would
    report the memory of ``run.py`` instead of its own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reference_loop() -> None:
    """Fixed pure-Python work, about 10 ms, that times the host, not the
    program: Fraction sums, dict updates and list appends, the kinds of step
    the program's verifiers and value lift spend their time in."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i)
    counts: dict[int, int] = {}
    kept = []
    for i in range(25_000):
        counts[i % 1009] = counts.get(i % 1009, 0) + i
        if i % 3 == 0:
            kept.append(i)


class HostClock:
    """Samples the shared host's speed while the commands run.

    While ``running`` is on, SIGALRM runs ``reference_loop`` every
    ``INTERVAL`` seconds, between two bytecodes of the program, and records
    when it started and how long it took.  The collector is off during a
    sample, so the size of the program's heap does not change its time.
    """

    INTERVAL = 0.25

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, wall, cpu
        signal.signal(signal.SIGALRM, lambda *_: self.sample())

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        w0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        self.samples.append((w0, time.perf_counter() - w0,
                             time.process_time() - c0))
        if collecting:
            gc.enable()

    @contextmanager
    def running(self):
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_round(commands, outputs: dict, clock: HostClock | None) -> dict:
    """Run each command once; keep every distinct stdout, keyed by hash.

    With a ``clock``, the host is sampled during each command and once more
    after it, so even a short command has a sample; the samples' own time is
    taken out of the command's.
    """
    ops = []
    size = 0
    for cmd in commands:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        error = None
        first = len(clock.samples) if clock else 0
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with (clock.running() if clock else nullcontext()), \
                    redirect_stdout(out), redirect_stderr(err):
                rc = groupchar.cli.main(cmd.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises counts as failed
            rc, error = None, traceback.format_exc()
        c1, w1 = time.process_time(), time.perf_counter()
        text = out.getvalue()
        data = text.encode()
        size += len(data)
        digest = hashlib.sha256(data).hexdigest()
        outputs.setdefault(digest, text)
        op = {"rc": rc, "error": error or err.getvalue() or None,
              "sha256": digest, "wall_s": w1 - w0, "cpu_s": c1 - c0}
        if clock:
            clock.sample()
            taken = clock.samples[first:]
            inside = [t for t in taken if t[0] < w1]
            op["wall_s"] -= sum(t[1] for t in inside)
            op["cpu_s"] -= sum(t[2] for t in inside)
            op["ref_wall_s"] = statistics.fmean(t[1] for t in taken)
            op["ref_cpu_s"] = statistics.fmean(t[2] for t in taken)
        ops.append(op)
    return {"wall_s": sum(op["wall_s"] for op in ops), "output_bytes": size,
            "ops": ops}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = {"imported_at": IMPORTED_AT}
    if not args.probe:
        commands = WORKLOADS[args.workload]
        outputs: dict[str, str] = {}
        rounds = []
        clock = HostClock()
        start = time.perf_counter()
        while True:
            rounds.append(run_round(commands, outputs, clock))
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        result["rounds"] = rounds
        result["peak_rss_kb"] = peak_rss_kb()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                result["traced"] = run_round(commands, outputs, None)
            finally:
                tracer.uninstall()
            result["trace"] = tracer.metrics()
        result["outputs"] = outputs
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
