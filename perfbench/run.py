"""Benchmark of the hankel-catalan command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the package is imported from the `src` directory
next to this one, never from an installed copy. Each workload drives
`hankel_catalan.cli.main(argv)` in this process with `--format json` and
stdout captured. A run does the workload's fixed, seeded list of operations
(see workloads.py; `--seconds` sets its length through a nominal round time,
never through the time measured) to its end, checks every operation's
output with the independent checker outside the timed region, and prints
one JSON object as the last line of stdout. With `--trace 0` it holds the
end-to-end metrics; with `--trace 1` the run alternates untraced and traced
rounds and reports the per-layer metrics and the tracing overhead. A readable report goes to stderr; result
and trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import Checker
from spans import Tracer
from workloads import KNOWN_FAULT_EXIT, KNOWN_FAULT_QUAD, WORKLOADS, plan

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "hankel_catalan"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_SAMPLES = 21
#: op_tail_ms is the highest percentile with TAIL_BEYOND samples above it;
#: workloads.MIN_OPS keeps it a tail.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60
#: Spins until its parent is gone, so it cannot outlive a killed run.
SPIN_CODE = "import os\nparent = os.getppid()\nwhile os.getppid() == parent: pass"

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hankel_catalan.cli
hankel_catalan.cli.build_parser()
elapsed = time.perf_counter() - start
print(hankel_catalan.cli.__file__)
print(elapsed)
"""


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def imported_from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_sample() -> float:
    """Import the package and build the parser in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    module_file, elapsed = child.stdout.split()
    if not imported_from_src(module_file):
        raise RuntimeError(f"child imported {module_file}, not the checkout's copy")
    return float(elapsed)


def occupy_second_cpu() -> list[subprocess.Popen]:
    """Pin this process to one CPU and keep a second CPU busy with a spinning child.

    On a two-vCPU virtual machine whose vCPUs share a physical core, the same
    code runs up to 1.7 times faster whenever the other vCPU idles, and how
    often it idles changes over minutes. A busy second CPU makes that state
    constant. The speed of the rest of the host still drifts (README).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return []
    os.sched_setaffinity(0, {cpus[0]})
    spinner = subprocess.Popen([sys.executable, "-c", SPIN_CODE], stdin=subprocess.DEVNULL)
    os.sched_setaffinity(spinner.pid, {cpus[1]})
    return [spinner]


def run_op(cli, argv: list[str]) -> tuple[int | None, float, str]:
    """One CLI call; returns exit code (None if it raised), seconds and stdout."""
    buffer = io.StringIO()
    code = None
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the run goes on; the operation counts as failed
            print(f"{' '.join(argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
    return code, elapsed, buffer.getvalue()


class Terminated(BaseException):
    """SIGTERM, raised past the per-operation handlers so the spinner is still stopped."""


def on_sigterm(signum, frame):
    raise Terminated


def tail(values: list[float]) -> float:
    """Highest sample with at least TAIL_BEYOND samples above it."""
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def main() -> int:
    args = parse_args()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} package under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    signal.signal(signal.SIGTERM, on_sigterm)
    spinners = occupy_second_cpu()
    try:
        return measure(args)
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()


def measure(args: argparse.Namespace) -> int:
    setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(SRC))
    import hankel_catalan.cli as cli

    if not imported_from_src(cli.__file__):
        print(f"imported {cli.__file__}, not the checkout's copy", file=sys.stderr)
        return 1

    checker = Checker()
    tracer = Tracer(PACKAGE) if args.trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    op_log: list[tuple[str, float, int | None]] = []
    problems: list[str] = []
    unexpected: list[str] = []
    attempted = failed = 0
    seen: set[str] = set()
    repeats = 0
    for index, ops in enumerate(plan(args.workload, args.seed, args.seconds)):
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        results = []
        for argv in ops:
            if traced:
                tracer.op = attempted + len(results)
            results.append(run_op(cli, argv))
        if traced:
            tracer.remove()
        round_time = 0.0
        for argv, (code, elapsed, stdout) in zip(ops, results):
            command = " ".join(argv)
            attempted += 1
            repeats += command in seen
            seen.add(command)
            round_time += elapsed
            op_log.append((command, elapsed * 1e3, code))
            if traced:
                tracer.add_output(len(stdout.encode()))
            if code != 0:
                failed += 1
                if argv not in KNOWN_FAULT_QUAD or code != KNOWN_FAULT_EXIT:
                    unexpected.append(f"{command}: exit {code}")
                continue
            try:
                found = checker.check(argv, stdout)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            problems += [f"{command}: {p}" for p in found]
        if traced:
            tracer.end_round()
        walls[traced].append(round_time)

    op_ms = [ms for _, ms, _ in op_log]
    if tracer is None:
        metrics = {
            "wall_s": (sum(walls[False]), "s"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_tail_ms": (tail(op_ms), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        untraced_round = statistics.median(walls[False])
        traced_round = statistics.median(walls[True])
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced_round - untraced_round, "s")
    result = {
        "correct": not problems and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    report = sys.stderr
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(walls[False]) + len(walls[True])} "
        f"rounds, {attempted} operations, {failed} failed, "
        f"{repeats / attempted:.1%} repeat an earlier operation",
        file=report,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}", file=report)
    if tracer is None:
        print(
            f"  op_tail_ms is p{100 * (1 - TAIL_BEYOND / len(op_ms)):.1f} of {len(op_ms)} operations",
            file=report,
        )
    else:
        print(
            f"  tracing overhead: median traced round {traced_round:.4f} s against untraced "
            f"{untraced_round:.4f} s ({(traced_round / untraced_round - 1):+.1%})",
            file=report,
        )
    for line in (unexpected + problems)[:20]:
        print(f"  FAIL {line}", file=report)

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_samples_s": setup,
        "round_walls_s": walls[False],
        "traced_round_walls_s": walls[True],
        "repeat_share": repeats / attempted,
        "unexpected_failures": unexpected,
        "problems": problems,
        "operations": op_log,
    }
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"trace-{name}.json", {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
