"""Self-tests of the benchmark's checks and tracer, with the known profile.

    python3 perfbench/selfcheck.py [--out perfbench/baseline/selfcheck.json]

1. A perturbed reference must be counted as a failed experiment.
2. On every workload, a traced pass must write the same bytes as an
   untraced one and leave no wrapper installed.
3. The seed-commit profile: `circuit.apply_noise` has the largest self time
   on `circuit`; liouville is the module with the largest self time on
   `spectral`; `dynamics.evolve_randomized` plus `numkernel.trace_distance`
   self time is at least 90% of the traced pass on both `evolve-*`
   workloads.  Part 3 describes the code as measured at the reference
   commit; an optimization may rightly change it, so it gates nothing in
   run.py.
"""

import argparse
import copy
import json
import os

import checks
from tracer import Tracer
from worker import HERE, RESULT_HOOKS, Workload, import_gibbsim, scratch_dir
from workloads import WORKLOADS


def perturbed_reference_is_counted(cli, tmp):
    config = next(c for c in WORKLOADS["spectral"] if c.experiment == "spectrum")
    work = Workload(cli, [config], checks.DEFAULT_SEED, os.path.join(tmp, "perturb"), 1)
    work.reference = checks.load_reference()
    work.run_pass()
    clean = list(work.failures)
    bad = copy.deepcopy(work.reference)
    column = bad[config.label]["eigenvalues.csv"]["columns"]["energy"]
    column[0] *= 1.0 + 1e-4
    work.reference = bad
    work.run_pass()
    return {"config": config.label, "clean_failures": clean, "perturbed_failures": work.failures[len(clean):]}


def module_self(stats):
    totals = {}
    for name, (_, _, self_s) in stats.items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + self_s
    return totals


def trace_workload(cli, package, name, tmp):
    work = Workload(cli, WORKLOADS[name], checks.DEFAULT_SEED, os.path.join(tmp, name), 1)
    work.reference = checks.load_reference()
    work.run_pass()
    plain = work.snapshot()
    tracer = Tracer(package, RESULT_HOOKS)
    tracer.install()
    try:
        wall = sum(work.run_pass(tracer))
    finally:
        tracer.uninstall()
    stats = tracer.stats
    top = sorted(stats, key=lambda k: -stats[k][2])[:8]
    return {
        "failures": work.failures,
        "byte_identical": work.snapshot() == plain,
        "leftover_wrappers": tracer.leftover_wrappers(),
        "traced_wall_s": wall,
        "top_self_s": {k: stats[k][2] for k in top},
        "module_self_s": module_self(stats),
        "stats": stats,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join(HERE, "baseline", "selfcheck.json"))
    args = parser.parse_args()
    cli = import_gibbsim()
    import gibbsim

    with scratch_dir(f"selfcheck-{os.getpid()}") as tmp:
        report = {"perturbed_reference": perturbed_reference_is_counted(cli, tmp)}
        traces = {name: trace_workload(cli, gibbsim, name, tmp) for name in WORKLOADS}

    ok = {
        "perturbed reference counted as a failure": (
            not report["perturbed_reference"]["clean_failures"]
            and len(report["perturbed_reference"]["perturbed_failures"]) == 1
        ),
    }
    for name, t in traces.items():
        ok[f"{name}: outputs pass their checks"] = not t["failures"]
        ok[f"{name}: traced outputs byte-identical"] = t["byte_identical"]
        ok[f"{name}: no wrapper left"] = not t["leftover_wrappers"]
    top_circuit = max(traces["circuit"]["top_self_s"], key=traces["circuit"]["top_self_s"].get)
    ok["circuit: apply_noise has the largest self time"] = top_circuit == "circuit.apply_noise"
    mods = traces["spectral"]["module_self_s"]
    ok["spectral: liouville has the largest module self time"] = max(mods, key=mods.get) == "liouville"
    for name in ("evolve-small", "evolve-large"):
        stats = traces[name]["stats"]
        share = (
            stats["dynamics.evolve_randomized"][2] + stats["numkernel.trace_distance"][2]
        ) / traces[name]["traced_wall_s"]
        traces[name]["dynamics_plus_trace_distance_share"] = share
        ok[f"{name}: evolve_randomized + trace_distance self >= 90% of the pass"] = share >= 0.9
    for t in traces.values():
        del t["stats"]
    report.update(traces=traces, checks=ok)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line, passed in ok.items():
        print(f"{'PASS' if passed else 'FAIL'}  {line}")
    return 0 if all(ok.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
