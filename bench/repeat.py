#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize the spread of each metric.

    python3 bench/repeat.py --workload replay --seeds 1-10

For every metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  Each run measures
the end-to-end metrics (``--trace 0``) for the ``run_seconds`` that
``BENCHMARK.json`` sets.  The runs go one after another, each in its own
process; the raw result lines are written to ``bench/out/repeat-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / f"repeat-{args.workload}.jsonl", "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in results)
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:36s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
