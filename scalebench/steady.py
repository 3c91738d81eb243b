#!/usr/bin/env python3
"""Steadiness check: run one workload N times and show each metric's spread.

    python3 scalebench/steady.py --workload serve-online --runs 10 \\
        --save online-a.json
    python3 scalebench/steady.py --workload serve-online --runs 10 \\
        --seed-base 101 --against online-a.json

Each run gets its own seed (``seed-base``, ``seed-base + 1``, ...).  For
every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the interquartile range
and the max-min range as shares of the median, and the metric's bound from
``BENCHMARK.json``.  A metric is ``steady`` when its interquartile share is
below a third of its bound.  With ``--against``, it also compares each
median with an earlier set's.  Runs last ``run_seconds`` from
``BENCHMARK.json`` and report the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(benchmark: dict, workload: str, seed: int) -> dict:
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    command[0] = sys.executable if command[0] == "python3" else command[0]
    started = time.monotonic()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {completed.returncode}\n"
                         f"{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    values: dict = {}
    for index in range(args.runs):
        seed = args.seed_base + index
        result = run_once(benchmark, args.workload, seed)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: run reported correct=false")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {result['elapsed_s']:.1f} s, attempted "
              f"{result['attempted']}, failed {result['failed']}",
              file=sys.stderr)

    earlier = json.loads(args.against.read_text()) if args.against else None
    print(f"{args.workload}: {args.runs} runs of "
          f"{benchmark['run_seconds']} s")
    header = (f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}  verdict")
    print(header + ("   vs earlier" if earlier else ""))
    steady = True
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        iqr = (q3 - q1) / median if median else 0.0
        spread = (max(series) - min(series)) / median if median else 0.0
        bound = bounds.get(name, {}).get("bound")
        verdict = "-"
        if bound is not None:
            ok = iqr < bound / 3
            steady &= ok
            verdict = "steady" if ok else "NOISY"
        line = (f"{name:18s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                f"{iqr:8.3f} {spread:9.3f} {bound if bound else 0:6.2f}  "
                f"{verdict}")
        if earlier and name in earlier:
            before = statistics.median(earlier[name])
            better = bounds.get(name, {}).get("better", "lower")
            change = (median - before) / before if before else 0.0
            worse = change if better == "lower" else -change
            within = bound is None or worse <= bound
            steady &= within
            line += f"   {change:+.3f} {'ok' if within else 'WORSE'}"
        print(line)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
