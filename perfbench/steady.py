#!/usr/bin/env python3
"""Steadiness check: reruns a workload and compares each end-to-end
metric's run-to-run spread with its bound in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steady.py --workload corpus-batch [--runs 10] \
        [--sets 2] [--seed0 1] [--out results.json]

Each run uses the next seed. Per metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the bound; a spread above the bound fails (except `setup_s`),
and a spread above a third of it is flagged as not yet steady. With
`--sets 2` it makes a second set of runs on fresh seeds and fails any
metric whose second median is worse than the first by more than its
bound. Exits non-zero on any failure or failed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed: seed {seed}, exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"wrong verdicts: seed {seed}: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]

    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + s * args.runs + i
            runs.append(run_once(spec, args.workload, seed))
            print(f"set {s + 1} seed {seed}: " + ", ".join(
                f"{m['name']}={runs[-1][m['name']]:.6g}" for m in metrics), flush=True)
        sets.append(runs)

    ok = True
    medians = []
    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s)")
    print(f"{'metric':24} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for s, runs in enumerate(sets):
        row = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med, q1, q3, spread = summarize([r[name] for r in runs])
            row[name] = med
            if spread > bound and name != "setup_s":
                verdict = "FAIL"
                ok = False
            elif spread > bound / 3:
                verdict = "unsteady"
            else:
                verdict = "ok"
            print(f"{name:24} {s + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bound:6.2f}  {verdict}")
        medians.append(row)
    if args.sets == 2:
        print("\nsecond set against the first:")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = medians[0][name], medians[1][name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "FAIL" if worse > bound else "ok"
            ok &= verdict == "ok"
            print(f"{name:24} {a:12.6g} -> {b:12.6g} worse by {worse:+.3f} (bound {bound})  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "sets": sets}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
