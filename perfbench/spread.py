#!/usr/bin/env python3
"""Run several seeds of each workload and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads hot-get,cold-mget,write-mix \
        --seeds 1-10 --seconds 30 [--trace 0] [--json out.json]

For every metric of the result line, and every figure of the report
lines above it, it prints the median of the runs, the first and third
quartile (as statistics.quantiles(values, n=4) gives them), and the
spread: the distance between the quartiles as a share of the median.
BENCHMARK.json's bound for each end-to-end metric is the largest
regression of its median that a change may cause; a metric is steady when
its spread stays well below that bound.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys


REPORT_LINE = re.compile(r"^  ([a-z0-9_.]+) (-?[0-9.]+(?:e[-+]?[0-9]+)?)(?: |$)")


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    record = {}
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=root, capture_output=True, text=True, check=True,
            ).stdout
            lines = out.strip().splitlines()
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} failed requests")
            run = {k: v["value"] for k, v in res["metrics"].items()}
            # The report lines above the result carry the ungated figures
            # under the workload's own request names (get_p99_us, ...).
            for line in lines[:-1]:
                m = REPORT_LINE.match(line)
                if m and m.group(1) not in run:
                    run[m.group(1)] = float(m.group(2))
            runs.append(run)
            print(f"{w} seed {seed} done", file=sys.stderr)
        record[w] = runs
        print(f"\n{w} ({len(runs)} runs)")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(runs[0]):
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
