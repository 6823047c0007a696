#!/usr/bin/env python3
"""Runs one workload N times, each with another seed, and prints the spread.

    python3 perfbench/stability.py --workload spin-skew --runs 10 [--first-seed 1]

Every run is untraced and lasts BENCHMARK.json's run_seconds; run i uses seed
first-seed + i. For every end-to-end metric it prints the median, the first and third
quartiles (as statistics.quantiles(values, n=4) gives them) and the quartile distance
as a share of the median, beside the bound BENCHMARK.json fixes for it. Run from the
root of the repository; each run goes through perfbench/run.py, which builds first.
Every run's standard output, its `#` notes included, is appended to
.bench_out/stability-<workload>.log.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, failed_shares = {}, []
    os.makedirs(".bench_out", exist_ok=True)
    log = open(os.path.join(".bench_out", "stability-%s.log" % args.workload), "a")
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        last = out.strip().splitlines()[-1]
        log.write("== seed %d\n%s" % (seed, out))
        log.flush()
        result = json.loads(last)
        if not result["correct"]:
            sys.exit("seed %d: output check failed:\n%s" % (seed, out))
        failed_shares.append(result["failed"] / result["attempted"])
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append("%s=%.6g" % (name, metric["value"]))
        print("seed %d: %s" % (seed, " ".join(line)), flush=True)

    print("%-36s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print("%-36s %14.6g %14.6g %14.6g %8.4f %6s" % (
            name, median, q1, q3, spread, bounds[name]))
    print("failed share per run: %s" % sorted(set(failed_shares)))


if __name__ == "__main__":
    main()
