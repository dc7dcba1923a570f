#!/usr/bin/env python3
"""Runs perfbench in two checkouts as alternating pairs and compares them.

Each pair runs `python3 perfbench/run.py` once in the base checkout and once
in the change checkout, with the same workload, seed, length and trace mode.
Pair 1 runs the base first, pair 2 the change first, and so on, so slow
drift on a shared host falls on both sides alike. For every metric the
report gives the per-pair values, each side's median and quartiles, the
change/base ratio of the medians, and how many pairs the change won in the
metric's better direction (from BENCHMARK.json; ties count for neither).

    scripts/perfbench_ab.py --base ../parent --change . --workload click_churn \\
        --pairs 10 --seed 1 --seconds 30

--dry-run prints the run order and runs nothing. --out FILE also writes
every run's JSON result. Exit status: 0 when every run reported
`correct: true`, 1 when any run did not, 2 on a usage error or a run whose
result could not be read.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def fail(msg):
    print("perfbench_ab: " + msg, file=sys.stderr)
    sys.exit(2)


def run_order(pairs):
    """[(pair, side)] with the side that runs first alternating per pair."""
    order = []
    for p in range(1, pairs + 1):
        sides = ("base", "change") if p % 2 == 1 else ("change", "base")
        order.extend((p, side) for side in sides)
    return order


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[1], q[2]


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        fail("no JSON result from %s (exit %d)" % (checkout, proc.returncode))
    for line in lines[:-1]:
        if "CHECK FAILED" in line:
            print("    " + line.strip())
    return result


def directions(checkout):
    """{metric: 'lower'|'higher'} from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def report(results, better, pairs):
    names = []
    for side in ("base", "change"):
        for r in results[side]:
            for name in r["metrics"]:
                if name not in names:
                    names.append(name)
    for name in names:
        base = [r["metrics"].get(name, {}).get("value") for r in results["base"]]
        change = [r["metrics"].get(name, {}).get("value")
                  for r in results["change"]]
        if any(v is None for v in base + change):
            print("%s: missing in some runs" % name)
            continue
        unit = results["base"][0]["metrics"][name]["unit"]
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for b, c in zip(base, change)
                   if (c < b if lower else c > b))
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        ratio = "%.3f" % (cmed / bmed) if bmed else "n/a"
        print("%s (%s, %s is better)" % (name, unit,
                                         "lower" if lower else "higher"))
        print("  per pair (base -> change): " + ", ".join(
            "%g -> %g" % (b, c) for b, c in zip(base, change)))
        print("  base   median %g  q1 %g  q3 %g  iqr %g"
              % (bmed, bq1, bq3, bq3 - bq1))
        print("  change median %g  q1 %g  q3 %g  iqr %g"
              % (cmed, cq1, cq3, cq3 - cq1))
        print("  change/base %s; change wins %d of %d pairs; "
              "|median gap| %g %s base iqr %g"
              % (ratio, wins, pairs, abs(cmed - bmed),
                 ">" if abs(cmed - bmed) > bq3 - bq1 else "<=", bq3 - bq1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dry-run", action="store_true")
    ap.add_argument("--out", help="write every run's JSON result here")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    checkouts = {"base": os.path.abspath(args.base),
                 "change": os.path.abspath(args.change)}
    order = run_order(args.pairs)
    if args.dry_run:
        for i, (pair, side) in enumerate(order, 1):
            print("run %d: pair %d %s %s" % (i, pair, side, checkouts[side]))
        return 0
    for side, path in checkouts.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            fail("%s checkout %s has no perfbench/run.py" % (side, path))

    results = {"base": [], "change": []}
    all_correct = True
    for i, (pair, side) in enumerate(order, 1):
        r = run_once(checkouts[side], args)
        results[side].append(r)
        all_correct = all_correct and r.get("correct") is True
        print("run %d: pair %d %s correct=%s failed=%s" % (
            i, pair, side, r.get("correct"), r.get("failed")), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"args": vars(args), "order": order, "results": results},
                      f, indent=1)
    print()
    print("%s seed %d, %g s, trace %d, %d pairs"
          % (args.workload, args.seed, args.seconds, args.trace, args.pairs))
    report(results, directions(checkouts["base"]), args.pairs)
    if not all_correct:
        print("perfbench_ab: some runs were not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
