#!/usr/bin/env python3
"""Benchmark of slopecert's job entry point on four fixed workloads.

    python3 bench/run.py --workload replay --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory, and nothing else is needed.  One process
runs the workload's whole job list through ``slopecert.cli.run_job`` in
rounds until ``--seconds`` are used up (a round is started only if it is
expected to end within half a round of the deadline), checks every report of
the first round against independent computations (``checks.py``), and
requires every later round to reproduce the first round's reports byte for
byte.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (wall_ref, setup_s,
peak_rss_mb; see ``reference`` for the unit of wall_ref and ``measure_setup``
for how set-up time is scaled).  ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics from ``layers.py`` plus the tracing overhead;
its layer table is also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from workloads import BUILDERS, Op

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
# reference("arrays") on a shared two-core host in a fast spell; setup_s is
# given in seconds at that speed (see ``measure_setup``)
REF_NOMINAL_S = 0.012
REF_EVERY_S = 0.2  # job time between two samples of the reference computation
# The reference of each workload is code of the kind its jobs run (see ``reference``).
REFERENCE_KIND = {"replay": "arrays", "deep": "arrays", "scan": "calls", "local": "python"}


def import_program():
    """Import slopecert from this checkout's src/, or stop without a result."""
    if not (SRC / "slopecert" / "__init__.py").is_file():
        sys.exit(f"error: no slopecert source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import slopecert
    import slopecert.cli

    if SRC not in Path(slopecert.__file__).resolve().parents:
        sys.exit(f"error: imported slopecert from {slopecert.__file__}, not from {SRC}")
    return slopecert


def canonical(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def reference(kind: str) -> float:
    """Seconds taken by one fixed computation of the given kind.

    The speed of a shared host drifts by tens of percent within minutes, and
    it does not move all code by the same share.  A round's job time divided
    by the mean of the reference samples taken between its jobs is the
    ``ref`` unit of wall_ref: the job list's time measured against the
    host's speed at that moment, for code of the same kind as the jobs.

    * ``python`` (about 6 ms): a pure-Python loop over Fractions and ints,
      for jobs that never call numpy;
    * ``arrays`` (about 12 ms): that loop plus cumulative sums and
      comparisons on a 200x200 block, for jobs in the kernel's product walk;
    * ``calls`` (about 8 ms on a slow host): three hundred rounds of numpy calls on 3x4
      arrays, for jobs that call the kernel thousands of times on tiny inputs.

    The computation is part of the benchmark, so no change to the program
    can move it.
    """
    import numpy as np

    start = time.perf_counter()
    if kind == "calls":
        small = np.arange(12, dtype=np.int64).reshape(3, 4)
        cols = np.array([[0, 1], [1, 3], [2, 3]], dtype=np.int64)
        for k in range(300):
            sums = np.cumsum(np.asarray(small, dtype=np.int64)[:, cols], axis=2)
            ok = np.ones(sums.shape, dtype=bool)
            ok &= sums >= k % 7
            ok &= sums < 40
            if ok.any():
                int(np.argmax(ok.reshape(-1)))
        return time.perf_counter() - start
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 7, i % 5 + 1)
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    if kind == "arrays":
        block = np.arange(40000, dtype=np.int64).reshape(200, 200)
        run = np.zeros_like(block)
        for k in range(40):
            run = run + np.cumsum(block, axis=1)
            ((run >= k) & (run < 10**9)).any()
    return time.perf_counter() - start


def run_round(ops, cli, ref_kind: str):
    """Run the job list once.  Returns the round record; checks run later.

    A replay job is followed by ``verify-cert`` on its certificate.  A job
    that raises, or a replay whose verification cannot be built, counts as
    failed, so every round attempts the same number of jobs.  Between jobs,
    after every REF_EVERY_S of job time, the reference is sampled.
    """
    clock = time.perf_counter
    done, reports, codes, job_s = [], [], [], []
    ref_s = [reference(ref_kind)]
    failed = 0

    def attempt(op):
        nonlocal failed
        start = clock()
        try:
            report, code = cli.run_job(op.job)
        except Exception:  # a job must never raise; record it and go on
            traceback.print_exc(file=sys.stderr)
            report, code = None, None
        job_s.append(clock() - start)
        if report is None or code != 0:
            failed += 1
        done.append(op)
        reports.append(report)
        codes.append(code)
        return report

    since = 0.0
    for op in ops:
        report = attempt(op)
        if op.kind == "replay":
            cert = report["result"] if report is not None else None
            attempt(Op("verify", {"command": "verify-cert", "params": {"certificate": cert}}))
        since += job_s[-1] + (job_s[-2] if op.kind == "replay" else 0.0)
        if since >= REF_EVERY_S:
            ref_s.append(reference(ref_kind))
            since = 0.0
    ref_s.append(reference(ref_kind))
    wall = sum(job_s)
    digest = hashlib.sha256("".join(canonical(r) for r in reports).encode()).hexdigest()
    return {"wall": wall, "ref": statistics.mean(ref_s), "job_s": job_s, "ops": done,
            "reports": reports, "codes": codes, "failed": failed, "digest": digest}


def setup_probe(workload: str, seed: int):
    """The set-up a user pays: a fresh interpreter imports the CLI and the job list is built.

    After ``ready`` the probe times the reference, so that its set-up can be
    set against the host's speed in the same interpreter.
    """
    import_program()
    BUILDERS[workload](seed)
    print("ready", flush=True)
    print(statistics.median(reference("arrays") for _ in range(3)), flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median over the probes of spawn-to-ready time, in seconds at REF_NOMINAL_S.

    Each probe's set-up time is divided by the reference sample the probe
    took itself and multiplied by REF_NOMINAL_S: the set-up time the host
    would show at the fixed speed at which the reference takes that long.
    On a shared two-core host, twelve back-to-back medians of seven probes
    spread 23 % in raw seconds and 8 % scaled this way.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = child.stdout.read()
            child.wait(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit("error: set-up probe failed")
        samples.append(elapsed / float(rest))
    return statistics.median(samples) * REF_NOMINAL_S


def wall_ref(records) -> float:
    """Median over the rounds of job time in reference units."""
    return statistics.median(r["wall"] / r["ref"] for r in records)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    slopecert = import_program()
    import checks
    from layers import FOUND, LAYERS, Tracer

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    ops = BUILDERS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None

    rounds = []  # (traced, record)
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            record = run_round(ops, slopecert.cli, REFERENCE_KIND[args.workload])
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            record["layers"] = (dict(tracer.self_s), dict(tracer.calls), tracer.found)
        if rounds:  # only the first round's reports are checked; later ones keep their digest
            del record["reports"], record["ops"], record["codes"]
        rounds.append((traced, record))
        elapsed = time.perf_counter() - begin
        enough = tracer is None or len(rounds) >= 2
        if enough and elapsed + record["wall"] / 2 > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
    first = rounds[0][1]
    correct, problem = True, None
    try:
        keep = [i for i, r in enumerate(first["reports"]) if r is not None]
        checks.check_round([first["ops"][i] for i in keep], [first["reports"][i] for i in keep],
                           [first["codes"][i] for i in keep])
    except checks.CheckFailed as exc:
        correct, problem = False, str(exc)
    if any(r["digest"] != first["digest"] for _, r in rounds):
        correct, problem = False, problem or "a later round's reports differ from the first round's"

    attempted = sum(len(r["job_s"]) for _, r in rounds)
    failed = sum(r["failed"] for _, r in rounds)
    plain = [r for t, r in rounds if not t]
    wall_s = statistics.median(r["wall"] for r in plain)
    ref_s = statistics.median(r["ref"] for _, r in rounds)
    job_s = [statistics.median(times) for times in zip(*(r["job_s"] for r in plain))]

    print(f"workload {args.workload} seed {args.seed}: slopecert {slopecert.__version__}, "
          f"kernel {slopecert.kernels.active_backend()}")
    print(f"rounds {len(rounds)} ({len(plain)} untraced), jobs per round {len(first['job_s'])}, "
          f"round wall_s {[round(r['wall'], 3) for _, r in rounds]}")
    print(f"wall_s {wall_s:.4f}, reference {1000 * ref_s:.3f} ms (informational)")
    print(f"reports sha256 {first['digest']}")
    print(f"job_p50_ms {1000 * statistics.median(job_s):.3f} over {len(job_s)} jobs (informational)")
    if len(job_s) >= 100:
        p90 = 1000 * statistics.quantiles(job_s, n=10)[-1]
        print(f"job_p90_ms {p90:.3f} over {len(job_s)} jobs (informational)")
    if problem:
        print(f"CHECK FAILED: {problem}")

    if tracer is None:
        metrics = {
            "wall_ref": metric(wall_ref(plain), "ref"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        traced_rounds = [r for t, r in rounds if t]
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = metric(statistics.median(r["layers"][0][layer] for r in traced_rounds), "s")
            metrics[f"{layer}.calls"] = metric(traced_rounds[0]["layers"][1][layer], "count")
        metrics[FOUND] = metric(traced_rounds[0]["layers"][2], "count")
        traced_wall = statistics.median(r["wall"] for r in traced_rounds)
        overhead = (wall_ref(traced_rounds) - wall_ref(plain)) * ref_s  # at equal host speed
        metrics["trace.overhead_s"] = metric(overhead, "s")
        table = {k: m["value"] for k, m in metrics.items()}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(table, indent=2) + "\n")
        print(f"{'layer':40s} {'self_s':>10s} {'share':>7s} {'calls':>9s}")
        for layer in LAYERS:
            s = metrics[f"{layer}.self_s"]["value"]
            print(f"{layer:40s} {s:10.4f} {s / traced_wall:7.1%} {metrics[f'{layer}.calls']['value']:9d}")
        print(f"{FOUND:40s} {'':10s} {'':7s} {metrics[FOUND]['value']:9d}")
        print(f"traced wall_s {traced_wall:.4f}, untraced wall_s {wall_s:.4f}, "
              f"overhead at equal host speed {overhead:+.4f} s")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
