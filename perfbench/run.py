"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-tiered --seed 1 --seconds 30 --trace 0

It runs one untimed check iteration with the output probe, then repeats
fresh timed iterations (set-up + measured run, see
``perfbench/workloads.py``) until ``--seconds`` have passed and at least
``MIN_ITERATIONS`` have run, and reports medians of the host metrics.
With ``--trace 1`` it alternates untraced and traced iterations and
reports the per-layer metrics instead, writes the spans of the last
traced iteration under ``perfbench/out/``, and prints the self-time
table.  Human-readable lines (every metric with its unit and sample
count) go to standard output first; the last line is the JSON result.
Exit status is 0 on a completed run (``correct`` says whether the
output checks passed) and non-zero if the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Where the traced run writes its spans.
OUT_DIR = os.path.join(HERE, "out")
#: Fewest iterations a run reports medians over, however short --seconds.
MIN_ITERATIONS = 3
#: Seed used while writing a change, and one held out to re-check claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def _import_benchmark():
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise ImportError(f"the program's sources (src/repro) are not under {ROOT}")
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import metrics, workloads
    from perfbench.trace import HostTracer

    return metrics, workloads, HostTracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    try:
        metrics, workloads, HostTracer = _import_benchmark()
    except ImportError as err:
        print(f"perfbench: cannot import the program: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # The check iteration probes every delivered sample; it is not timed,
    # so the probe's hashing stays out of the reported host metrics.
    check = workloads.iterate(args.workload, args.seed, tiny=args.tiny, check=True)
    runs, traced = [], []
    t_start = perf_counter()
    while len(runs) < MIN_ITERATIONS or perf_counter() - t_start < args.seconds:
        runs.append(workloads.iterate(args.workload, args.seed, tiny=args.tiny))
        if args.trace:
            traced.append(
                workloads.iterate(args.workload, args.seed, tiny=args.tiny, tracer=HostTracer())
            )

    every = [check] + runs + traced
    problems = [p for it in every for p in it.problems]
    if any(it.fingerprint != check.fingerprint for it in every):
        problems.append("virtual metrics differ between same-seed iterations")
    attempted = sum(it.attempted for it in every)
    failed = sum(it.failed for it in every)
    run_s = statistics.median(it.run_s for it in runs)
    e2e = {
        "setup_s": statistics.median(it.setup_s for it in runs),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        **runs[0].virtual,
    }
    counts = runs[0].counts
    print(f"workload {args.workload} seed {args.seed}: 1 check + {len(runs)} timed iterations"
          + (f" + {len(traced)} traced" if traced else ""))
    for name, unit in metrics.E2E.items():
        value, n = e2e[name], ""
        if name.startswith("load_"):
            n = f"  (n={counts['load']})"
        elif name.startswith("bulk_"):
            n = f"  (n={counts['bulk']})"
        print(f"  {name:<18} {value:>14.6g} {unit}{n}")
    print(f"  failed_frac        {failed / max(attempted, 1):>14.6g} "
          f"({failed} of {attempted} reads; {check.probed} probed)")
    for label, key in (("setup_s", "setup_s"), ("run_s", "run_s"),
                       ("measured set-up", "raw_setup_s"), ("measured run", "raw_run_s")):
        print(f"  per iteration {label}: " + " ".join(f"{getattr(it, key):.3f}" for it in runs))
    print(f"  preload_vs         {runs[0].layers['store.preload_vs']:>14.6g} vs"
          "  (per-layer metric store.preload_vs)")

    if args.trace:
        layers = metrics.layer_metrics(traced, run_s)
        print(metrics.self_time_table(traced))
        for name, value in layers.items():
            print(f"  {name:<34} {value:>14.6g} {metrics.PER_LAYER[name]}")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        traced[-1].tracer.write(path, {"workload": args.workload, "seed": args.seed})
        print(f"  spans written to {path}")
        result = {k: {"value": layers[k], "unit": unit} for k, unit in metrics.PER_LAYER.items()}
    else:
        result = {k: {"value": e2e[k], "unit": unit} for k, unit in metrics.E2E.items()}
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
