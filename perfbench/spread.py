"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 [--workloads a,b] [--seconds S]
                                [--trace 0] [--out FILE]

--seconds defaults to BENCHMARK.json's run_seconds.

For each workload and end-to-end metric: the values over the seeds, their
median, and their spread, the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.  Used to
show the benchmark is steady and to record the baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from worker import HERE, ROOT
from workloads import WORKLOADS


def run_once(workload, seed, seconds, trace=0, extra=()):
    """(description, result) of one run.py invocation."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-9")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            info, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "info": info, "result": result})
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = {"values": values, "median": statistics.median(values)}
            if len(values) > 1 and metrics[name]["median"]:
                metrics[name]["spread"] = spread(values)
                print(f"  {name}: median {metrics[name]['median']:.4f} spread {metrics[name]['spread']:.4f}")
        report[workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
