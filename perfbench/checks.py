"""Output checks behind the benchmark's failure count.

Every experiment's outputs are checked against seed-independent invariants.
For the default seed they are also compared with a summary recorded from the
reference commit (`reference.json`), within RTOL/ATOL: loose enough for exact
algebraic rewrites that move values at the roundoff level, tight enough that
any change of physics or sampling shows.

    python3 perfbench/checks.py --record   # rewrite reference.json (seed 0)
"""

import hashlib
import json
import math
import os

DEFAULT_SEED = 0
RTOL = 1e-6
ATOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Output columns that hold trace distances or normalized fractal dimensions.
UNIT_INTERVAL = {
    "distances.csv": None,  # every column but t
    "circuit_distances.csv": None,
    "gaps.csv": ["distance_to_gibbs"],
    "accuracy.csv": ["distance"],
    "noise_grid.csv": ["plateau_distance"],
    "heatmap.csv": ["mean_d1"],
}


def _number(tok):
    # Under numpy 2, cli._fmt writes numpy scalars as 'np.float64(x)'; that is
    # an output-format defect of the CLI, not of the value, which is what is
    # checked here.
    if tok.startswith("np.float64(") and tok.endswith(")"):
        tok = tok[len("np.float64(") : -1]
    return float(tok)


def read_csv(path):
    """Column names and float rows of a gibbsim CSV (one '#' units line)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    columns = lines[1].split(",")
    rows = [[_number(tok) for tok in line.split(",")] for line in lines[2:]]
    return columns, rows


def _json_leaves(value, prefix=""):
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            out.update(_json_leaves(value[key], f"{prefix}{key}."))
        return out
    return {prefix.rstrip("."): value}


def output_files(out_dir):
    return sorted(name for name in os.listdir(out_dir) if name != "manifest.txt")


def summarize(out_dir):
    """Per-file summary: CSV column statistics, JSON leaves, text digests."""
    summary = {}
    for name in output_files(out_dir):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            columns, rows = read_csv(path)
            stats = {}
            for j, col in enumerate(columns):
                vals = [row[j] for row in rows]
                stats[col] = [vals[0], vals[-1], min(vals), max(vals), math.fsum(vals) / len(vals)]
            summary[name] = {"rows": len(rows), "columns": stats}
        elif name.endswith(".json"):
            with open(path) as fh:
                summary[name] = _json_leaves(json.load(fh))
        else:
            with open(path, "rb") as fh:
                summary[name] = {"sha256": hashlib.sha256(fh.read()).hexdigest()}
    return summary


def _close(got, want):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - want) <= ATOL + RTOL * abs(want)
    return got == want


def compare(summary, reference):
    """Problems found comparing a summary with its recorded reference."""
    problems = []
    if sorted(summary) != sorted(reference):
        return [f"output files {sorted(summary)} != {sorted(reference)}"]
    for name, want in reference.items():
        got = summary[name]
        if "columns" in want:
            if got["rows"] != want["rows"]:
                problems.append(f"{name}: {got['rows']} rows != {want['rows']}")
                continue
            pairs = [
                (f"{col}[{k}]", g, w)
                for col in want["columns"]
                for k, (g, w) in enumerate(zip(got["columns"].get(col, []), want["columns"][col]))
            ]
            if sorted(got["columns"]) != sorted(want["columns"]):
                problems.append(f"{name}: columns differ")
        else:
            pairs = [(key, got.get(key), w) for key, w in want.items()]
        problems += [f"{name}:{key} = {g!r}, want {w!r}" for key, g, w in pairs if not _close(g, w)]
    return problems


def invariants(config, out_dir):
    """Seed-independent checks of one experiment's outputs."""
    problems = []
    for name in output_files(out_dir):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            columns, rows = read_csv(path)
            if not rows:
                problems.append(f"{name}: no rows")
                continue
            if not all(math.isfinite(v) for row in rows for v in row):
                problems.append(f"{name}: non-finite value")
            if name in UNIT_INTERVAL:
                cols = UNIT_INTERVAL[name] or columns[1:]
                idx = [columns.index(c) for c in cols]
                if any(not 0.0 <= row[j] <= 1.0 for row in rows for j in idx):
                    problems.append(f"{name}: value outside [0, 1] in {cols}")
        elif name.endswith(".json"):
            with open(path) as fh:
                leaves = _json_leaves(json.load(fh))
            if any(isinstance(v, float) and not math.isfinite(v) for v in leaves.values()):
                problems.append(f"{name}: non-finite value")
    problems += _experiment_invariants(config, out_dir)
    return problems


def _experiment_invariants(config, out_dir):
    problems = []
    exp = config.experiment
    if exp in ("evolve", "circuit"):
        name = "distances.csv" if exp == "evolve" else "circuit_distances.csv"
        columns, rows = read_csv(os.path.join(out_dir, name))
        for row in rows:
            if row[-1] > max(row[1:-1]) + 1e-12:
                problems.append(f"{name}: avg distance above the per-trajectory maximum at t={row[0]}")
                break
        stop = config.keys.get("solver.stop_below")
        if stop is not None and not rows[-1][-1] < stop:
            problems.append(f"{name}: did not converge below stop_below={stop}")
    elif exp == "gap-scan":
        columns, rows = read_csv(os.path.join(out_dir, "gaps.csv"))
        z, g = columns.index("zero_count"), columns.index("gap")
        if any(row[z] != 1 for row in rows):
            problems.append("gaps.csv: zero_count != 1")
        if any(not row[g] > 0 for row in rows):
            problems.append("gaps.csv: non-positive gap")
    elif exp == "spectrum":
        columns, rows = read_csv(os.path.join(out_dir, "eigenvalues.csv"))
        energies = [row[1] for row in rows]
        if len(energies) != 2 ** int(config.keys["n"]) or energies != sorted(energies):
            problems.append("eigenvalues.csv: wrong count or not ascending")
    return problems


def check_experiment(config, out_dir, seed, reference):
    """All problems with one experiment's outputs; empty when it passed."""
    problems = invariants(config, out_dir)
    if seed == DEFAULT_SEED:
        want = reference.get(config.label)
        if want is None:
            problems.append(f"no reference recorded for {config.label}")
        else:
            problems += compare(summarize(out_dir), want)
    return problems


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _record():
    from workloads import WORKLOADS
    from worker import import_gibbsim, scratch_dir

    cli = import_gibbsim()
    reference = {}
    with scratch_dir(f"record-{os.getpid()}") as tmp:
        for configs in WORKLOADS.values():
            for config in configs:
                path = os.path.join(tmp, config.label + ".cfg")
                with open(path, "w") as fh:
                    fh.write(config.text(DEFAULT_SEED))
                out_dir = os.path.join(tmp, config.label)
                cli.run(path, out_dir=out_dir, threads=1)
                problems = invariants(config, out_dir)
                if problems:
                    raise SystemExit(f"{config.label}: {problems}")
                reference[config.label] = summarize(out_dir)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: checks.py --record")
    _record()
