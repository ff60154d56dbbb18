"""Benchmark of the flipshift command line on seeded workloads.

    python3 flipbench/run.py --workload recode --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory.  Every operation runs README commands
in-process through ``flipshift.cli.run_cli`` with standard output captured,
and every output is checked against ``reference``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, timed
without tracing and scaled to a reference speed by a fixed probe timed
alongside (see ``speed``); with ``--trace 1`` they are the per-layer ones
from spans recorded around the package's public functions.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "flipshift" / "data"
OUT = BENCH / "_out"

SETUP_REPEATS = 7     # setup_s is the median of this many complete set-ups
SETUP_PROBES = 40     # speed probes before each set-up and after the last
COMMAND_PROBES = 2    # speed probes after each command, outside its timing
SPEED_WINDOW_S = 1.0  # an operation's speed is read from probes this near it
# The speed probe's time at the reference speed.  Timings are reported as
# they would read on a machine where the probe takes this long; see speed().
PROBE_REF_S = 0.0002
MIN_ROUNDS = 3        # every operation is timed at least this often
MIN_OPS = 110         # op_p90_ms needs at least ten operations beyond it

# Operations per round; sized so one round takes a few seconds and a run of
# the default length holds well over 100 operations for the 90th percentile.
BATCH = {"recode": 70, "invariants": 30, "exhaustive": 80}


_PROBE = tuple(tuple((3 * i + 5 * j) % 4 for j in range(12)) for i in range(12))


def probe() -> float:
    """Seconds that one fixed piece of pure-Python work takes now.

    The work is the benchmark's own and touches nothing of the package, so no
    change to the program changes it.  It runs with the collector off, so the
    program's garbage cannot land in it.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        cols = list(zip(*_PROBE))
        prod = [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in _PROBE]
        index = {r: i for i, r in enumerate(map(tuple, prod))}
        total = Fraction(0)
        for i in range(1, 13):
            total += Fraction(len(index), i)
        return time.perf_counter() - started
    finally:
        gc.enable()


def speed(probes: list[float]) -> float:
    """The factor that scales a time measured alongside ``probes`` to the
    reference speed.

    On a shared host the same work runs up to twice as slowly when other
    tenants are busy, and the share of slow time drifts within seconds.  The
    probe is slowed alike, so an operation's time over the mean probe time
    near it keeps steady where either alone drifts.  The mean, not the
    median, because a time grows linearly with the share of slow time.
    """
    return PROBE_REF_S / statistics.fmean(probes)


def scaled_times(timeline, probes) -> list[float]:
    """Each operation's time scaled by the speed of the probes near it.

    ``timeline`` holds (start, seconds) per operation and ``probes`` holds
    (time, probe seconds), both in time order.
    """
    at = [t for t, _ in probes]
    out = []
    for start, seconds in timeline:
        middle = start + seconds / 2
        reach = SPEED_WINDOW_S + seconds / 2  # the probes after its own commands too
        lo = bisect.bisect_left(at, middle - reach)
        hi = bisect.bisect_right(at, middle + reach)
        out.append(seconds * speed([p for _, p in probes[lo:hi] or probes]))
    return out


def _import_package():
    """Import flipshift from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "flipshift" or n.startswith("flipshift.")]:
        del sys.modules[name]
    pkg = importlib.import_module("flipshift")
    importlib.import_module("flipshift.cli")
    return pkg


def setup(workload: str, seed: int, workdir: Path):
    """Imports, input generation and input files: one complete set-up."""
    started = time.perf_counter()
    pkg = _import_package()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ops = workloads.SETUPS[workload](random.Random(seed), workdir, DATA, BATCH[workload])
    return time.perf_counter() - started, pkg, ops


def _caches(pkg):
    """Every lru_cache of the package, so each operation starts as a new process.

    A cache the tracer has wrapped is found through the wrapper.
    """
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith(pkg.__name__ + ".") and mod is not None:
            for obj in vars(mod).values():
                if not hasattr(obj, "cache_clear"):
                    obj = getattr(obj, "__wrapped__", None)
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info") \
                        and getattr(obj, "__module__", "").startswith(pkg.__name__ + "."):
                    found[id(obj)] = obj
    return list(found.values())


def run_op(run_cli, op, between=None):
    """Run one operation's commands; returns (seconds, results, error).

    ``between``, if given, is called after each command, outside the timing.
    """
    results = []
    out, err = io.StringIO(), io.StringIO()
    seconds = 0.0
    for argv in op.commands:
        out.seek(0)
        out.truncate()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
        except (Exception, SystemExit) as e:  # a traceback is a failed operation
            return seconds + time.perf_counter() - started, results, \
                f"{type(e).__name__}: {e}"
        seconds += time.perf_counter() - started
        results.append((code, out.getvalue()))
        if between is not None:
            between()
    return seconds, results, None


def measure(pkg, ops, seconds: float, tracer=None):
    """Run whole rounds of the batch until the time is used; check every output."""
    run_cli = pkg.cli.run_cli
    if tracer is not None:
        run_cli = tracer.wrap("cli.run_cli", run_cli)
    caches = _caches(pkg)
    timeline, sampled_at, rounds, sampled = [], [], 0, 0
    attempted = failed = output_bytes = 0
    problems: list[str] = []
    errors: list[str] = []
    probes: list[tuple[float, float]] = []

    def probe_now():
        for _ in range(COMMAND_PROBES):
            probes.append((time.perf_counter(), probe()))

    started = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.read_caches()
            for c in caches:
                c.cache_clear()
            at = time.perf_counter()
            elapsed, results, error = run_op(run_cli, op, probe_now)
            timeline.append((at, elapsed))
            attempted += 1
            sampled += op.sampled
            if error is not None:
                failed += 1
                errors.append(error)
                continue
            if op.sampled:
                sampled_at.append(len(timeline) - 1)
            output_bytes += sum(len(out.encode()) for _, out in results)
            problems.extend(op.check(results))
        rounds += 1
        used = time.perf_counter() - started
        if rounds >= MIN_ROUNDS and sampled >= MIN_OPS \
                and used + used / rounds > seconds:
            break
    if tracer is not None:
        tracer.read_caches()
    return {"timeline": timeline, "sampled_at": sampled_at, "probes": probes,
            "rounds": rounds, "attempted": attempted, "failed": failed,
            "problems": problems, "errors": errors, "output_bytes": output_bytes}


def wall_batch_s(run: dict) -> float:
    """The batch's mean wall time per round, unscaled."""
    return sum(t for _, t in run["timeline"]) / run["rounds"]


def end_to_end(run: dict, setup_times: list[float], setup_probes: list[float]) -> dict:
    """The end-to-end figures, every time scaled to the reference speed."""
    times = scaled_times(run["timeline"], run["probes"])
    ops = [times[i] for i in run["sampled_at"]]
    p90 = statistics.quantiles(ops, n=10)[8]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_times) * speed(setup_probes),
                    "unit": "s"},
        "run_s": {"value": sum(times) / run["rounds"], "unit": "s"},
        "op_p50_ms": {"value": 1000 * statistics.median(ops), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BATCH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flipshift" / "cli.py").is_file():
        print(f"error: no flipshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            setup_probes.extend(probe() for _ in range(SETUP_PROBES))
            seconds, pkg, ops = setup(args.workload, args.seed, workdir / "inputs")
            setup_times.append(seconds)
        setup_probes.extend(probe() for _ in range(SETUP_PROBES))
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(pkg)
        run = measure(pkg, ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in run["errors"][:3]:
        print(f"failed operation: {e}", file=sys.stderr)
    for p in run["problems"][:10]:
        print(f"wrong output: {p}", file=sys.stderr)
    if not run["sampled_at"]:
        print("error: every operation failed", file=sys.stderr)
        return 1
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        metrics = tracer.per_layer(run["rounds"], run["output_bytes"])
        times = scaled_times(run["timeline"], run["probes"])
        print(f"traced: run_s {sum(times) / run['rounds']:.4f}, unscaled "
              f"{wall_batch_s(run):.4f}", file=sys.stderr)
    else:
        metrics = end_to_end(run, setup_times, setup_probes)
        wall_ops = [run["timeline"][i][1] for i in run["sampled_at"]]
        print(f"unscaled: setup_s {statistics.median(setup_times):.4f}, "
              f"run_s {wall_batch_s(run):.4f}, op_p50_ms "
              f"{1000 * statistics.median(wall_ops):.2f}; mean probe "
              f"{1e6 * statistics.fmean(p for _, p in run['probes']):.1f} us",
              file=sys.stderr)
    print(json.dumps({"correct": not run["problems"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
