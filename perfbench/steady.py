#!/usr/bin/env python3
"""A/A steadiness self-check for the benchmark.

    python3 perfbench/steady.py --workload hot-run --runs 5 [--trace 1] [--sets 2]

Runs one workload --runs times (seeds --seed0, --seed0+1, ...) through
perfbench/run.py at BENCHMARK.json's run_seconds, prints every metric's
median, quartiles, min and max, and exits non-zero when:

  * a run fails, prints a malformed result, or reports a failed op;
  * an end-to-end metric's quartile spread, (q3 - q1) / median, exceeds its
    bound (setup_s excepted: only its drift between sets is bounded);
  * a count metric (barrier_reduction_pct, linear.*, spmdrt.*,
    synctrace.events) differs between runs;
  * a reported percentile has fewer than 10 samples beyond it, or a metric
    rests on a single sample (a latency series or the set-up repetitions);
  * with --sets 2, a metric's second-set median is worse than the first
    set's by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ("barrier_reduction_pct", "linear.", "spmdrt.", "synctrace.events")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {p.returncode}")
    detail = {}
    for line in lines:
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    return json.loads(lines[-1]), detail


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def worse(defn, first, second):
    """Relative worsening of the second median over the first."""
    a, b = statistics.median(first), statistics.median(second)
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if defn["better"] == "lower" else (a - b) / abs(a)


def check_set(bench, args, seed0):
    want = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    defs = {m["name"]: m for m in want}
    values = {name: [] for name in defs}
    problems = []
    for i in range(args.runs):
        seed = seed0 + i
        res, detail = run_once(args.workload, seed, args.seconds, args.trace)
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"seed {seed}: result keys {sorted(res)}")
        if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
            problems.append(f"seed {seed}: correct={res.get('correct')} failed={res.get('failed')}")
        got = res.get("metrics", {})
        if set(got) != set(defs):
            problems.append(f"seed {seed}: metric names differ: "
                            f"missing {sorted(set(defs) - set(got))} extra {sorted(set(got) - set(defs))}")
        for name, m in got.items():
            if name in defs:
                if m["unit"] != defs[name]["unit"]:
                    problems.append(f"seed {seed}: {name} unit {m['unit']}")
                values[name].append(m["value"])
        beyond = detail.get("p90_beyond" if args.trace == 0 else "run_p90_beyond", 0)
        if beyond < 10:
            problems.append(f"seed {seed}: p90 has {beyond} samples beyond it")
        if detail.get("series_min_samples", 0) < 3 or len(detail.get("setup_s", [])) < 3:
            problems.append(f"seed {seed}: a metric rests on fewer than 3 samples "
                            f"(series {detail.get('series_min_samples')}, set-ups {len(detail.get('setup_s', []))})")
        print(f"  seed {seed}: ok", file=sys.stderr)

    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for name, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)[0], statistics.median(xs), statistics.quantiles(xs, n=4)[2]
        bound = defs[name].get("bound")
        s = spread(xs)
        flag = ""
        if bound is not None and name != "setup_s" and s > bound:
            problems.append(f"{name}: spread {s:.4f} > bound {bound}")
            flag = " FAIL"
        elif bound is not None and name != "setup_s" and s > bound / 3:
            flag = " (over bound/3)"
        if args.trace == 1 and name.startswith(COUNTS) and len(set(xs)) > 1:
            problems.append(f"{name}: count differs between runs: {sorted(set(xs))}")
            flag = " FAIL"
        print(f"{name:36} {med:12.5g} {q1:12.5g} {q3:12.5g} {min(xs):12.5g} {max(xs):12.5g} "
              f"{s:8.4f} {bound if bound is not None else '':>6}{flag}")
        print("    " + " ".join(f"{x:.5g}" for x in xs))
    return values, defs, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    args.seconds = bench["run_seconds"]
    if args.runs < 4:
        raise SystemExit("need at least 4 runs for quartiles")

    sets = []
    problems = []
    for k in range(args.sets):
        print(f"set {k + 1}: {args.workload}, {args.runs} runs, trace {args.trace}", file=sys.stderr)
        values, defs, p = check_set(bench, args, args.seed0 + k * args.runs)
        sets.append(values)
        problems += p
    if len(sets) == 2:
        for name, d in defs.items():
            if "bound" in d and len(sets[0][name]) > 1 and len(sets[1][name]) > 1:
                w = worse(d, sets[0][name], sets[1][name])
                print(f"drift {name:30} {w:+.4f} (bound {d['bound']})")
                if w > d["bound"]:
                    problems.append(f"{name}: second set worse by {w:.4f} > bound {d['bound']}")
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
