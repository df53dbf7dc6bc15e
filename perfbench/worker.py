"""One benchmark process: set up, then run workload passes through `cli.run`.

Started by run.py as a fresh interpreter with BLAS threads pinned in its
environment.  Untraced, it starts a set-up probe (this file with
--setup-only) after every pass and waits for it.  Prints one JSON object as
its last stdout line.

setup_s runs from the parent's spawn timestamp (CLOCK_MONOTONIC, shared by
all processes) to the moment the first `cli.run` could start: interpreter
start, `import gibbsim` (numpy, scipy) and writing the workload's configs.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")  # scratch outputs, removed after each run
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
IO_SPANS = (
    "cli.write_csv",
    "cli.write_json",
    "cli.write_manifest",
    "dynamics.EvolutionRecord.to_csv",
)
# metric prefix -> span; each reports `.calls` and `.self_s`
SPAN_METRICS = {
    "numkernel.trace_distance": "numkernel.trace_distance",
    "numkernel.eig_hermitian": "numkernel.eig_hermitian",
    "model.bohr_frequencies": "model.bohr_frequencies",
    "model.build_hamiltonian": "model.build_hamiltonian",
    "jumps.lindblad_op_exact": "jumps.lindblad_op_exact",
    "liouville.build_superop": "liouville.build_superop",
    "liouville.steady_state_and_gap": "liouville.steady_state_and_gap",
    "dynamics.evolve_randomized": "dynamics.evolve_randomized",
    "circuit.ProtocolEngine": "circuit.ProtocolEngine",
    "circuit.step_wtilde_batch": "circuit.ProtocolEngine.step_wtilde_batch",
    "circuit.apply_noise": "circuit.apply_noise",
    "noisefit.fit_convergence": "noisefit.fit_convergence",
    "chaos.fractal_stats": "chaos.fractal_stats",
}


def import_gibbsim():
    """Pin BLAS threads (unless the caller chose), then import gibbsim.cli."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gibbsim.cli

    return gibbsim.cli


@contextmanager
def scratch_dir(name):
    """A directory under OUT_ROOT, removed (with OUT_ROOT once empty) on exit."""
    path = os.path.join(OUT_ROOT, name)
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass  # another run still uses it


def _record_steps(record):
    steps = round(record.times[-1] / record.final_dt_rk)
    return steps * record.per_traj_distance.shape[0]


# Counters taken from return values at span boundaries.
RESULT_HOOKS = {
    "liouville.build_superop": lambda s: {"liouville.superop_bytes": s.matrix.nbytes},
    "dynamics.evolve_randomized": lambda r: {
        "dynamics.traj_steps": _record_steps(r),
        "dynamics.halvings": r.halvings,
    },
    "circuit.simulate_protocol": lambda r: {
        "circuit.rep_steps": r.meta["n_steps"] * r.per_traj_distance.shape[0],
        "circuit.depol_events": r.meta["gate_count"] * r.meta["n_steps"] * r.per_traj_distance.shape[0],
    },
}


def environment(threads):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "cli_threads": threads,
    }


class Workload:
    def __init__(self, cli, configs, seed, out_root, threads):
        self.cli = cli
        self.configs = configs
        self.seed = seed
        self.threads = threads
        self.out_dirs = [os.path.join(out_root, c.label) for c in configs]
        self.paths = []
        os.makedirs(out_root, exist_ok=True)
        for config in configs:
            path = os.path.join(out_root, config.label + ".cfg")
            with open(path, "w") as fh:
                fh.write(config.text(seed))
            self.paths.append(path)
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None):
        """Run every config once; returns the wall time of each cli.run call."""
        walls = []
        for config, path, out_dir in zip(self.configs, self.paths, self.out_dirs):
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    self.cli.run(path, out_dir=out_dir, threads=self.threads)
                else:
                    with tracer.span(f"cli.{config.experiment}"):
                        self.cli.run(path, out_dir=out_dir, threads=self.threads)
            except Exception as exc:  # a raising experiment is a counted failure
                walls.append(time.perf_counter() - start)
                self.failures.append(f"{config.label}: {exc!r}")
                continue
            walls.append(time.perf_counter() - start)
            problems = checks.check_experiment(config, out_dir, self.seed, self.reference)
            if problems:
                self.failures.append(f"{config.label}: {problems[:3]}")
        return walls

    def snapshot(self):
        """Bytes of every file the last pass wrote."""
        files = {}
        for out_dir in self.out_dirs:
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    files[os.path.join(out_dir, name)] = fh.read()
        return files


def layer_metrics(tracer, experiments, bytes_written):
    stats = tracer.stats
    metrics = {}
    for exp in experiments:
        metrics[f"cli.{exp}.wall_s"] = stats.get(f"cli.{exp}", [0, 0.0, 0.0])[1]
    metrics["cli.io_s"] = sum(stats.get(name, [0, 0.0, 0.0])[2] for name in IO_SPANS)
    metrics["cli.bytes_written"] = bytes_written
    for prefix, span in SPAN_METRICS.items():
        calls, _, self_s = stats.get(span, [0, 0.0, 0.0])
        metrics[f"{prefix}.calls"] = calls
        metrics[f"{prefix}.self_s"] = self_s
    for key in ("liouville.superop_bytes", "dynamics.traj_steps", "dynamics.halvings",
                "circuit.rep_steps", "circuit.depol_events"):
        metrics[key] = tracer.counters.get(key, 0)
    steps = metrics["dynamics.traj_steps"]
    metrics["dynamics.step_us"] = 1e6 * metrics["dynamics.evolve_randomized.self_s"] / steps if steps else 0.0
    return metrics


def repeat(seconds, step):
    """Call step() MIN_PASSES times, then while one more call fits in `seconds`."""
    deadline = time.monotonic() + seconds
    done, last = 0, 0.0
    while done < MIN_PASSES or time.monotonic() + last <= deadline:
        start = time.monotonic()
        step()
        last = time.monotonic() - start
        done += 1


def median_pass_s(passes):
    """Median over passes of the summed wall time of the pass's cli.run calls."""
    return statistics.median(sum(times) for times in passes)


def exit_on_sigterm():
    """Make SIGTERM raise SystemExit, so a stopped run still stops and waits
    for its child (see spawn) and removes its outputs."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def spawn(args, seconds, timeout, setup_only=False):
    """Run worker.py in a fresh interpreter (inheriting this environment)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace), "--threads", str(args.threads), "--out-dir", args.out_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        # Timed out or stopped: SIGTERM lets the child stop its own probe first.
        proc.terminate()
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(work, seconds, probe_setup):
    """Untraced passes, each followed by one set-up probe in a fresh process."""
    passes, setups = [], []

    def step():
        passes.append(work.run_pass())
        setups.append(probe_setup())

    repeat(seconds, step)
    return {"passes_s": passes, "setup_samples_s": setups}


def measure_traced(work, seconds):
    """Alternate untraced and traced passes; traced outputs must match bytes."""
    import gibbsim
    from tracer import Tracer
    from workloads import WORKLOADS

    experiments = sorted({c.experiment for configs in WORKLOADS.values() for c in configs})
    passes, traced_passes, per_pass, trace_problems = [], [], [], []

    def pair():
        passes.append(work.run_pass())
        plain = work.snapshot()
        tracer = Tracer(gibbsim, RESULT_HOOKS)
        tracer.install()
        try:
            traced_passes.append(work.run_pass(tracer))
        finally:
            tracer.uninstall()
        leftover = tracer.leftover_wrappers()
        if leftover:
            trace_problems.append(f"wrappers left installed: {leftover[:5]}")
        traced = work.snapshot()
        if traced != plain:
            changed = sorted(k for k in plain if traced.get(k) != plain[k])
            trace_problems.append(f"traced outputs differ: {changed[:5]}")
        per_pass.append(layer_metrics(tracer, experiments, sum(len(b) for b in traced.values())))

    repeat(seconds, pair)
    metrics = {key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["trace_overhead_frac"] = median_pass_s(traced_passes) / median_pass_s(passes) - 1.0
    return {
        "passes_s": passes,
        "traced_passes_s": traced_passes,
        "layer_metrics": metrics,
        "trace_problems": trace_problems,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    exit_on_sigterm()

    cli = import_gibbsim()
    from workloads import WORKLOADS

    work = Workload(cli, WORKLOADS[args.workload], args.seed, args.out_dir, args.threads)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        if args.seed == checks.DEFAULT_SEED:
            work.reference = checks.load_reference()
        if args.trace and args.threads != 1:
            raise SystemExit("tracing needs --threads 1")
        if args.trace:
            result.update(measure_traced(work, args.seconds))
        else:
            probe_args = argparse.Namespace(**{**vars(args), "out_dir": os.path.join(args.out_dir, "probe")})
            result.update(measure(work, args.seconds, lambda: spawn(probe_args, 0, 60, setup_only=True)["setup_s"]))
        result.update(
            attempted=work.attempted,
            failures=work.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(args.threads),
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
