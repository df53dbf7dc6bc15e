"""gibbsim benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload circuit --seed 0 --seconds 30 --trace 0

Each run starts one fresh worker process (worker.py) with BLAS threads
pinned, which repeats passes over the workload's `cli.run` calls for
--seconds.  Untraced, every pass is followed by a set-up probe: a fresh
worker that stops where its first `cli.run` would start, for setup_s.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics from passes traced by tracer.py, alternated
with untraced passes.  The first stdout line describes the run (environment,
per-pass times, failures); the last line is the result.

--threads and --blas-threads are for the one-off oversubscription probe
(probe.py); the benchmark proper runs with both at 1.
"""

import argparse
import json
import os
import statistics
import sys

from worker import BLAS_VARS, ROOT, exit_on_sigterm, median_pass_s, scratch_dir, spawn
from workloads import WORKLOADS

RUN_LIMIT_S = 170


def git_commit():
    """The checkout's HEAD commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass  # not a git checkout
    return None


def measure(args):
    os.environ.update({var: str(args.blas_threads) for var in BLAS_VARS})
    with scratch_dir(f"{args.workload}-{args.seed}-{os.getpid()}") as out_root:
        args.out_dir = out_root
        result = spawn(args, args.seconds, RUN_LIMIT_S)
    result["setup_samples_s"] = [result["setup_s"], *result.get("setup_samples_s", [])]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, default=1, help="CLI --threads")
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args()
    exit_on_sigterm()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "gibbsim", "__init__.py")):
        print("perfbench: no gibbsim sources under src/", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        spec = json.load(fh)

    run = measure(args)
    failed = len(run["failures"])
    if args.trace:
        values = run["layer_metrics"]
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": median_pass_s(run["passes_s"]),
            "setup_s": statistics.median(run["setup_samples_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "ok_frac": 1.0 - failed / run["attempted"],
        }
        wanted = spec["end_to_end"]
    run["env"]["commit"] = git_commit()
    info = {k: v for k, v in run.items() if k != "layer_metrics"}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({
        "correct": failed == 0 and not run.get("trace_problems"),
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
