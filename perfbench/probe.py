"""One-off oversubscription probe: CLI --threads against BLAS threads.

    python3 perfbench/probe.py [--seconds S] [--out perfbench/baseline/oversubscription.json]

Runs `spectral` and `circuit` (seed 0, untraced) at (--threads, BLAS
threads) in {(1,1), (2,1), (1,2)}.  (2,2) is left out: four busy threads
exceed the two cores this was sized for.  The probe is not part of the
benchmark's gate; it records how the two thread pools interact.
"""

import argparse
import json
import os

from spread import run_once, run_seconds
from worker import HERE

SETTINGS = ((1, 1), (2, 1), (1, 2))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--out", default=os.path.join(HERE, "baseline", "oversubscription.json"))
    args = parser.parse_args()
    report = {}
    for workload in ("spectral", "circuit"):
        for threads, blas in SETTINGS:
            info, result = run_once(
                workload, 0, args.seconds,
                extra=("--threads", str(threads), "--blas-threads", str(blas)),
            )
            key = f"{workload} threads={threads} blas={blas}"
            report[key] = {
                "correct": result["correct"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "passes_s": info["passes_s"],
                "env": info["env"],
            }
            print(key, result["correct"], {k: round(v, 3) for k, v in report[key]["metrics"].items()},
                  flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
