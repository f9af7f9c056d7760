"""Run the benchmark several times per workload and report each metric's
median and spread (quartile distance over median), one run per seed.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --label setA --seeds 1-10 --seconds 30 \\
        --workloads kerr4_Ib_a1_w2 sphere6_I2 kerr6_Ic_a0

Runs go one after another, round-robin over the workloads.  The table is
printed and the raw results are kept in perfbench/out/spread-LABEL.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list) -> tuple:
    """Median, and quartile distance over the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--workloads", nargs="+", required=True)
    args = parser.parse_args(argv)
    runs = {w: [] for w in args.workloads}
    for seed in _seeds(args.seeds):
        for workload in args.workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            start = time.perf_counter()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=600)
            if done.returncode != 0:
                print("%s seed %d: exit code %d" % (workload, seed, done.returncode))
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["run_s"] = time.perf_counter() - start
            runs[workload].append(result)
            print("%s seed %d: %.0f s, %s" % (
                workload, seed, result["run_s"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread-%s.json" % args.label), "w") as out:
        json.dump(runs, out, indent=1)
    print("\n| workload | metric | median | spread | runs | correct | failed/attempted |")
    print("|---|---|---|---|---|---|---|")
    for workload, results in runs.items():
        for name in results[0]["metrics"]:
            med, spread = summarize([r["metrics"][name]["value"] for r in results])
            print("| %s | %s | %.4g | %.3f | %d | %s | %d/%d |" % (
                workload, name, med, spread, len(results),
                all(r["correct"] for r in results),
                sum(r["failed"] for r in results), sum(r["attempted"] for r in results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
