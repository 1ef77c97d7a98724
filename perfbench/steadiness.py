"""Steadiness of the benchmark: repeated runs of one commit.

usage: python3 perfbench/steadiness.py [--out FILE] [WORKLOAD ...]

Runs ``run.py --trace 0`` once for each of the seeds 1 to 10 on each
workload (all by default), one run at a time, each for the ``run_seconds``
of BENCHMARK.json, and records for every end-to-end metric its values,
median, quartiles and quartile spread (third minus first quartile, from
``statistics.quantiles(values, n=4)``) as a share of the median.  Prints a
table and writes the numbers as JSON to FILE.  The bounds in
BENCHMARK.json are set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--out", default=str(HERE.parent / ".perfbench_out"
                                         / "steadiness.json"))
    args = ap.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in SEEDS:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stdout}")
            runs.append({"seed": seed, "metrics": {
                k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        metrics = {name: dict(spread([r["metrics"][name] for r in runs]),
                              values=[r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {"seeds": [r["seed"] for r in runs],
                                         "metrics": metrics}
        for name, m in metrics.items():
            print(f"  {workload:13s} {name:16s} median {m['median']:.5g}  "
                  f"spread {100 * m['spread']:.2f}%")
    Path(args.out).parent.mkdir(exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
