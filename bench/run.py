"""Benchmark command: one workload in one process, a fixed list of ops.

    python3 bench/run.py --workload build --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports hopfprod from its ``src``
directory.  The work is fixed: a run makes ``max(1, round(seconds / 10))``
rounds of the workload's op list, which takes 6 to 10 s per round on a
2-core x86 VM, so ``--seconds`` sets the amount of work and never cuts a
round short.  One thread, a closed loop, one op at a time.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, with times scaled to a reference host speed
(``hostspeed.py``).  With ``--trace 1`` the run first makes the same
untraced pass, then installs the layer trace (``layertrace.py``), sets up
again, reruns the ops and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json`` at the root of the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

from hostspeed import PROBE_EVERY_S, REFERENCE_S, SpeedLog
from layertrace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, ".run")
ROUND_SECONDS = 10
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("build", "oracle", "classify", "gfp"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=ROUND_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    """Import hopfprod from this checkout's sources, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hopfprod", "__init__.py")):
        raise SystemExit(f"no hopfprod sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import hopfprod
    if os.path.dirname(os.path.abspath(hopfprod.__file__)) != os.path.join(SRC, "hopfprod"):
        raise SystemExit(f"hopfprod imported from {hopfprod.__file__}, not {SRC}")
    import workloads
    return workloads


def set_up(wl, name, seed, workdir):
    """Fill the process-wide caches and draw every input from the seed."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl.fill_group_cache()
    inp = wl.Inputs(name, seed, workdir)
    wl.SETUP[name](inp, random.Random(seed))
    return inp


def run_ops(wl, inp, rounds, tracer=None):
    """The timed phase.  Returns (per-op seconds, the same scaled to the
    reference host speed, outputs per round, failed op count); an op that
    raises counts as failed."""
    plans = [wl.ops(inp, r) for r in range(rounds)]
    times, outputs, failed = [], [], 0
    gc.collect()
    speed = SpeedLog(every=PROBE_EVERY_S)
    for plan in plans:
        got = []
        for k, op in plan:
            if tracer is not None:
                tracer.op = len(times)
            t = time.perf_counter()
            try:
                out = op()
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                if not failed:
                    traceback.print_exc()
                failed += 1
                out = None
            times.append(time.perf_counter() - t)
            speed.after(len(times), times[-1])
            got.append((k, out))
        outputs.append(got)
    return times, speed.scale(times), outputs, failed


def check_all(wl, inp, outputs) -> list[str]:
    """Check every round; items with a failed op are left to ``failed``."""
    errs = []
    for got in outputs:
        broken = {k for k, out in got if out is None}
        errs += wl.check(inp, [(k, out) for k, out in got if k not in broken])
    return errs


def tail_percentile(times) -> tuple[float, int] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 40:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return statistics.quantiles(times, n=100)[pct - 1], pct


def metric_specs(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order must not vary between runs
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    t0 = time.perf_counter()
    wl = load_library()
    import_s = time.perf_counter() - t0

    workdir = os.path.join(RUNS, f"{args.workload}-{os.getpid()}")
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    try:
        setup_times, speed = [], SpeedLog(every=0)
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inp = set_up(wl, args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - t)
            speed.after(len(setup_times), setup_times[-1])
        times, scaled, outputs, failed = run_ops(wl, inp, rounds)
        errs = check_all(wl, inp, outputs)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                inp = set_up(wl, args.workload, args.seed, workdir)
                _, t_scaled, outputs, t_failed = run_ops(wl, inp, rounds, tracer)
            finally:
                tracer.uninstall()
            errs += check_all(wl, inp, outputs)
            failed = max(failed, t_failed)
            span_file = os.path.join(RUNS, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.write(span_file)
            print(f"trace: {len(tracer.spans)} spans in {span_file}; overhead "
                  f"{100 * (sum(t_scaled) / sum(scaled) - 1):+.1f}% (ops_per_s "
                  f"untraced {len(scaled) / sum(scaled):.4g}, "
                  f"traced {len(scaled) / sum(t_scaled):.4g})")
            values = tracer.metrics()
            specs = metric_specs("per_layer")
        else:
            setup_s = statistics.median(speed.scale(setup_times))
            values = {
                "ops_per_s": len(scaled) / sum(scaled),
                "op_p50_ms": 1000 * statistics.median(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": import_s * REFERENCE_S / speed.probes[0] + setup_s,
            }
            specs = metric_specs("end_to_end")
            print(f"unscaled: ops_per_s {len(times) / sum(times):.4g}, op_p50_ms "
                  f"{1000 * statistics.median(times):.4g}, setup_s "
                  f"{import_s + statistics.median(setup_times):.4g}; reference "
                  f"loop {1000 * statistics.median(speed.probes):.3g} ms, "
                  f"{1000 * REFERENCE_S:.3g} ms when scaled")
            tail = tail_percentile(scaled)
            if tail:
                print(f"for reference: p{tail[1]} op {1000 * tail[0]:.2f} ms "
                      f"over {len(scaled)} ops")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in errs[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errs,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
