#!/usr/bin/env python3
"""Steadiness check for the rtetherd benchmark.

Runs every workload of BENCHMARK.json several times, each with another
seed, and prints for each end-to-end metric the median, the quartiles and
the spread (third minus first quartile, as a share of the median) against
the metric's bound. Run from the root of the checkout:

    python3 rtbench/steady.py --runs 10 --out steady.json
    python3 rtbench/steady.py --runs 10 --baseline steady.json

With --baseline it also reports how far each median moved from the
medians of an earlier --out file, in the metric's worse direction, and
whether the share of failed operations is the same. Seeds are 1 to
--runs. It exits 1 when a spread exceeds its bound, a median moved by
more than its bound, or a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "rtbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--out", help="write the medians and failed shares here")
    ap.add_argument("--baseline", help="an earlier --out file to compare medians with")
    ap.add_argument("--verbose", action="store_true", help="also print every run's values")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    base = json.load(open(args.baseline)) if args.baseline else None

    ok = True
    summary = {}
    for w in names:
        values = {m: [] for m in metrics}
        attempted = failed = 0
        for i in range(args.runs):
            res = run_once(w, i + 1, bench["run_seconds"])
            attempted += res["attempted"]
            failed += res["failed"]
            ok = ok and res["correct"]
            for m, v in res["metrics"].items():
                values[m].append(v["value"])
        share = failed / attempted
        summary[w] = {"failed_share": share, "medians": {}}
        print(f"{w}: {args.runs} runs, failed share {share}")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m, spec in metrics.items():
            xs = values[m]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            summary[w]["medians"][m] = med
            bound = spec["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            line = f"  {m:22} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f}  {verdict}"
            if base and w in base:
                old = base[w]["medians"][m]
                worse = (med - old) / old if spec["better"] == "lower" else (old - med) / old
                line += f"  vs baseline {worse:+.3f}"
                if worse > bound:
                    line += " REGRESSED"
                    ok = False
            print(line)
            if args.verbose:
                print("    " + " ".join(f"{x:.4g}" for x in xs))
        if base and w in base and base[w]["failed_share"] != share:
            print(f"  failed share {share} differs from baseline {base[w]['failed_share']}")
            ok = False
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
