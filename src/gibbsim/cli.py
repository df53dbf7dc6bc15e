"""Experiment runner: flat dotted-key configs in, CSV/JSON artifacts out.

Each experiment's keys are one table of `Key`s, built from the groups below
and its own keys; README's CLI section shows the same tables.  `run`
resolves the table before any work, so a bad config exits 2 (3 at a
resource ceiling) before the experiment starts.  The experiment computes
its artifacts as text from the typed values; `run` writes them once it has
returned, after a manifest of the keys the config gives plus `experiment`,
`seed`, `out_dir` and `artifact_version`.  Re-running a manifest reproduces
the outputs byte for byte.  A failed run writes nothing and makes no
directory; a successful one writes only its own file names.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chaos import fractal_stats, preset_bases
from .circuit import CircuitConfig, NoiseSpec, plateau_level, simulate_protocol
from .dynamics import NOT_CONVERGED, SolverConfig, evolve_randomized, mixing_time_estimate
from .errors import ConfigError, GibbsimError, ResourceCeiling
from .jumps import FilterSpec, jump_set_to_text, lindblad_op_exact, sample_jump_set
from .liouville import steady_state_and_gap
from .model import (
    IsingParams,
    NAMED_POINTS,
    RK_STEP_TABLE,
    bohr_frequencies,
    build_hamiltonian,
    gibbs_state,
    ising_split,
    maximally_mixed,
    named_point,
)
from .noisefit import (
    bound_asymptotic,
    bound_generic,
    bound_unitary_comparison,
    fit_convergence,
    fit_error_model,
    in_fit_domain,
)
from .numkernel import eig_hermitian, trace_distance

GAP_QUBIT_CEILING = 6
REQUIRED = object()  # the default of a key that the config must give

_BOOL_SPELLINGS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


@dataclasses.dataclass(frozen=True)
class Key:
    """One config key.  `kind` is int, float, str or bool, or [int] / [float]
    for a space- or comma-separated list.  `default` is the value of an
    absent key, or of an empty one unless a str: a value, REQUIRED, or a
    function of the resolved (model, values), whose docstring README shows.
    Each value, or each list entry, must pass `ok`; `rule` ends the message."""

    kind: object
    default: object = None
    ok: object = None
    rule: str = ""

    def read(self, key, cfg):
        """The typed value that `cfg` gives `key`, or the default."""
        raw = cfg.get(key)
        listed = isinstance(self.kind, list)
        tokens = raw.replace(",", " ").split() if listed and raw else None
        if raw is None or (raw == "" and self.kind is not str) or tokens == []:
            if self.default is REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            return self.default
        try:
            if self.kind is bool:
                return _BOOL_SPELLINGS[raw.lower()]
            return [self.kind[0](tok) for tok in tokens] if listed else self.kind(raw)
        except (KeyError, ValueError) as exc:
            what = f"{self.kind[0].__name__} list" if listed else "value"
            hint = " is not one of 1/0, true/false, yes/no, on/off" if self.kind is bool else ""
            raise ConfigError(f"bad {what} for {key!r}: {raw!r}{hint}") from exc


def _count(default):
    """An int, or a list of ints, each at least 1."""
    if isinstance(default, list):
        return Key([int], default, lambda c: c >= 1, "has an entry below 1")
    return Key(int, default, lambda c: c >= 1, "must be at least 1")


def _beta(model, v):
    """1/(2J)"""
    return model.beta_default


def _table_step(model, v):
    """`RK_STEP_TABLE` step of `point` at `n`, else 0.1, over J"""
    return RK_STEP_TABLE.get(v["point"], {}).get(model.n, 0.1) / model.J


def _gate_budget(model, v):
    """50 n"""
    return 50 * model.n


RUN = {
    "experiment": Key(str),
    "seed": Key(int, 0, lambda s: s >= 0, "must be non-negative"),
    "out_dir": Key(str),
    "artifact_version": Key(str),  # a manifest's; no experiment reads it
}
MODEL = {
    "n": Key(int, REQUIRED),
    "J": Key(float, 1.0),
    "point": Key(str),
    "h": Key(float),
    "m": Key(float),
    "beta": Key(float, _beta, lambda b: 0 < b < math.inf, "must be positive and finite"),
}
JUMPS = {"jumps.k": Key(int, 2), "jumps.count": _count(20)}
SOLVER = {
    "solver.dt_rk0": Key(float, _table_step),
    "solver.max_steps": Key(int, 300_000),
    "solver.n_traj": Key(int, 10),
    "solver.herm_tol": Key(float, 1e-6),
    "solver.t_max": Key(float),
    "solver.stop_below": Key(float),
    "solver.grid_points": Key(int, 2000),
}
CIRCUIT = {
    "circuit.T": Key(float, 1.6),
    "circuit.gamma": Key(float, 1.0),
    "circuit.t_max": Key(float, 500.0),
    "circuit.coherent_mode": Key(str, "exact"),
    "circuit.r_delta": Key(int, 1),
    "circuit.r_big": Key(int, 1),
    "circuit.n_rep": Key(int, 10),
    "circuit.grid_points": Key(int, 500),
    "jumps.count": _count(10),
}
NOISE = {
    "noise.kind": Key(str, "none"),
    "noise.lambda": Key(float, 0.0),
    "noise.lambda_g": Key(float, 0.0),
    "noise.n_g": Key(int),
}
SCAN = {"jumps.k": JUMPS["jumps.k"], "allow_large": Key(bool, False)}

EXPERIMENTS = {}  # name -> (function, key table)


def experiment(name, *groups):
    """Register `fn(model, values, threads) -> {file name: text}` with the
    key table RUN + `groups`, a later group's key replacing an earlier one's."""

    def register(fn):
        EXPERIMENTS[name] = (fn, {k: spec for group in (RUN, *groups) for k, spec in group.items()})
        return fn

    return register


def parse_config(text):
    """Parse `key = value` lines; '#' starts a comment."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        cfg[key] = value
    return cfg


def _validated(build, **kwargs):
    """Build a config object, reporting a rejected value as a config error."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{build.__name__}: {exc}") from exc


def resolve(table, cfg):
    """The model (None without a `point` key) and the typed value of every
    key of `table`, each default filled in and every check done."""
    v = {key: spec.read(key, cfg) for key, spec in table.items()}
    model = _model(v) if "point" in table else None
    for key, spec in table.items():
        if callable(v[key]):
            v[key] = v[key](model, v)
        listed = isinstance(spec.kind, list)
        if spec.ok and v[key] is not None and not all(map(spec.ok, v[key] if listed else [v[key]])):
            raise ConfigError(f"{key} = {cfg.get(key, v[key]) if listed else v[key]} {spec.rule}")
    if model is not None:
        _cross_checks(model, v)
    return model, v


def _model(v):
    """The chain of the model keys; a named point sets h and m."""
    point = v["point"]
    if point is None:
        for key in ("h", "m"):
            if v[key] is None:
                raise ConfigError(f"missing required key {key!r}")
        return _validated(IsingParams, n=v["n"], J=v["J"], h=v["h"], m=v["m"])
    if point not in NAMED_POINTS:
        raise ConfigError(f"unknown named point {point!r}")
    given = [key for key in ("h", "m") if v[key] is not None]
    if given:
        raise ConfigError(f"{' and '.join(given)} given beside point = {point}, which sets h and m")
    return _validated(named_point, key=point, n=v["n"], J=v["J"])


def _cross_checks(model, v):
    """The checks that need the resolved model.  The resource ceiling comes
    last, so that a config error exits 2 whatever the size."""
    n_values = v.get("grid.n", [model.n])
    if "jumps.k" in v and not 1 <= v["jumps.k"] <= min(n_values):
        raise ConfigError(f"jumps.k = {v['jumps.k']} outside [1, {min(n_values)}]")
    pair_noise = (
        "noise.kind = depolarizing_budget" if v.get("noise.kind") == "depolarizing_budget"
        else "grid.lambda_g > 0" if any(v.get("grid.lambda_g", [])) else None
    )
    if pair_noise and model.n < 2:
        raise ConfigError(
            f"{pair_noise} depolarizes qubit pairs and needs n >= 2, got n = {model.n}"
        )
    if max(n_values) > GAP_QUBIT_CEILING and not v.get("allow_large", True):
        raise ResourceCeiling(
            f"Liouvillian eigensolve beyond n={GAP_QUBIT_CEILING} requires allow_large = true"
        )


def _fields(v, prefix):
    """The values of the `prefix` keys, by the rest of their names."""
    return {key[len(prefix):]: value for key, value in v.items() if key.startswith(prefix)}


def csv_text(header_units, columns, rows):
    lines = [f"# {header_units}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise GibbsimError(f"non-finite value {float(v)!r} in a CSV output")
        return repr(float(v))  # numpy 2 scalars repr as 'np.float64(x)'
    return str(v)


def json_text(payload):
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise GibbsimError(f"non-finite value in a JSON output: {exc}") from exc


def _distances_csv(record):
    """The record's time grid, per-trajectory distances and averaged distance."""
    columns = ["t", *(f"traj{i}" for i in range(len(record.per_traj_distance))), "avg"]
    rows = np.column_stack([record.times, record.per_traj_distance.T, record.avg_distance])
    return csv_text("times in 1/J, trace distances dimensionless", columns, rows)


def _chain(params, beta):
    """H, its spectrum and its Gibbs state at beta."""
    ham = build_hamiltonian(params)
    spec = eig_hermitian(ham)
    return ham, spec, gibbs_state(spec, beta)


def _jump_family(params, v, count):
    """H and its Gibbs state, with a sampled `jumps.k`-local set of `count`
    jumps and the (count, D, D) stack of its exact OFT Lindblad operators."""
    ham, spec, sigma = _chain(params, v["beta"])
    jump_set = sample_jump_set(params.n, v["jumps.k"], count, v["seed"])
    bohr = bohr_frequencies(spec)
    f = FilterSpec(v["beta"])
    lindblads = np.stack([lindblad_op_exact(a, spec, f, bohr) for a in jump_set])
    return ham, sigma, jump_set, lindblads


@experiment("spectrum", MODEL)
def run_spectrum(model, v, threads):
    spec = eig_hermitian(build_hamiltonian(model))
    rows = [(i, e / model.J) for i, e in enumerate(spec.values)]
    summary = {
        "n": model.n,
        "ground_energy": float(spec.values[0] / model.J),
        "spectral_width": float((spec.values[-1] - spec.values[0]) / model.J),
        "bohr_frequency_count": int(bohr_frequencies(spec).count),
        "beta_J": v["beta"] * model.J,
    }
    return {
        "eigenvalues.csv": csv_text("energies in J", ["index", "energy"], rows),
        "summary.json": json_text(summary),
    }


FIELD_GRID = list(np.geomspace(0.1, 10.0, 11))


@experiment("chaos-scan", {
    "n": Key(int, 8),
    "J": Key(float, 1.0),
    "grid.h": Key([float], FIELD_GRID),
    "grid.m": Key([float], [0.0] + FIELD_GRID),
    "basis": Key(str, "z"),
    "window_kind": Key(str, "energy"),
})
def run_chaos_scan(model, v, threads):
    n, j = v["n"], v["J"]
    points = [
        (h, m, _validated(IsingParams, n=n, J=j, h=h * j, m=m * j))
        for h in v["grid.h"]
        for m in v["grid.m"]
    ]
    bases = preset_bases(n)
    if v["basis"] not in bases:
        raise ConfigError(f"unknown basis {v['basis']!r}; have {sorted(bases)}")
    letters = bases[v["basis"]]
    window_kind = v["window_kind"]
    if window_kind not in ("energy", "index"):
        raise ConfigError(f"unknown window_kind {window_kind!r}; have energy, index")

    def one(point):
        h, m, params = point
        ham = build_hamiltonian(params)
        try:
            stats = fractal_stats(ham, letters, window_kind=window_kind)
        except ValueError as exc:
            raise ConfigError(f"chaos-scan at h/J = {h}, m/J = {m}: {exc}") from exc
        return (h, m, stats.mean, stats.variance)

    rows = _map_maybe_parallel(one, points, threads)
    units = f"fields in J; basis={letters}; window_kind={window_kind}"
    return {"heatmap.csv": csv_text(units, ["h_over_J", "m_over_J", "mean_d1", "var_d1"], rows)}


def _evolve(model, v):
    """The randomized evolution from the maximally mixed state that `evolve`
    and `noise-bounds` run; returns its record and jump set."""
    solver = _validated(SolverConfig, **_fields(v, "solver."), seed=v["seed"])
    ham, sigma, jump_set, lindblads = _jump_family(model, v, v["jumps.count"])
    record = evolve_randomized(ham, lindblads, maximally_mixed(model.n), solver, sigma)
    return record, jump_set


@experiment("evolve", MODEL, JUMPS, SOLVER, {
    "eps": Key(float, 1e-2, lambda e: e > 0, "must be positive"),
})
def run_evolve(model, v, threads):
    record, jump_set = _evolve(model, v)
    estimate = mixing_time_estimate(record, v["eps"])
    mixing = {
        "mixing_time": None if estimate is NOT_CONVERGED else estimate,
        "converged": estimate is not NOT_CONVERGED,
        "final_dt_rk": record.final_dt_rk,
        "halvings": record.halvings,
    }
    return {
        "distances.csv": _distances_csv(record),
        "jumps.txt": jump_set_to_text(jump_set, v["seed"]),
        "mixing.json": json_text(mixing),
    }


def _gap_rows(model, v, n_values, threads):
    """A row (n, jump count, gap, zero count, distance to Gibbs) per n and
    `grid.jumps` entry; `grid.jumps` sets the jump counts, so the scans
    have no `jumps.count` key."""

    def one(task):
        params, count = task
        ham, sigma, _, lindblads = _jump_family(params, v, count)
        result = steady_state_and_gap(ham, lindblads, np.full(count, 1.0 / count))
        distance = trace_distance(result.steady_state, sigma)
        return (params.n, count, result.gap, result.zero_count, distance)

    tasks = [(dataclasses.replace(model, n=n), c) for n in n_values for c in v["grid.jumps"]]
    return _map_maybe_parallel(one, tasks, threads)


@experiment("gap-scan", MODEL, SCAN, {
    "n": Key(int, 3),
    "grid.n": _count([3, 4, 5]),
    "grid.jumps": _count([20]),
})
def run_gap_scan(model, v, threads):
    rows = _gap_rows(model, v, v["grid.n"], threads)
    columns = ["n", "n_jumps", "gap", "zero_count", "distance_to_gibbs"]
    return {"gaps.csv": csv_text("gap in J, distance dimensionless", columns, rows)}


@experiment("accuracy-scan", MODEL, SCAN, {"grid.jumps": _count([5, 10, 20, 50, 100])})
def run_accuracy_scan(model, v, threads):
    rows = _gap_rows(model, v, [model.n], threads)
    rows = [(r[1], r[4]) for r in rows]
    return {"accuracy.csv": csv_text("distance dimensionless", ["n_jumps", "distance"], rows)}


def _circuit_config(v, **grid_point):
    """The CircuitConfig of the circuit, jump, seed and beta keys; a grid
    point's `dt_ev` or `dt_oft` stands for the circuit key."""
    fields = {**_fields(v, "circuit."), **grid_point, "jump_count": v["jumps.count"]}
    return _validated(CircuitConfig, **fields, k=v["jumps.k"], seed=v["seed"], beta=v["beta"])


def _simulate(params, ham, circuit_cfg, noise, target):
    """simulate_protocol, with the chain's Ising split for trotter2 steps."""
    split = ising_split(params) if circuit_cfg.coherent_mode == "trotter2" else None
    return simulate_protocol(ham, circuit_cfg, noise, target, ham_split=split)


def _plateau_grid(params, chain, runs, threads):
    """Plateau distance of the protocol at each (CircuitConfig, NoiseSpec)
    run.  Callers build every run first, so that a rejected grid value
    exits 2 before the first simulation."""
    ham, _, target = chain

    def one(run):
        return plateau_level(_simulate(params, ham, *run, target))

    return _map_maybe_parallel(one, runs, threads)


@experiment("circuit", MODEL, JUMPS, CIRCUIT, NOISE, {
    "circuit.dt_ev": Key(float, REQUIRED),
    "circuit.dt_oft": Key(float, REQUIRED),
})
def run_circuit(model, v, threads):
    circuit_cfg = _circuit_config(v)
    noise = _validated(NoiseSpec, kind=v["noise.kind"], lam=v["noise.lambda"],
                       lambda_g=v["noise.lambda_g"], n_g_override=v["noise.n_g"])
    ham, _, target = _chain(model, v["beta"])
    record = _simulate(model, ham, circuit_cfg, noise, target)
    plateau = {
        "plateau_distance": plateau_level(record),
        "final_distance": float(record.avg_distance[-1]),
        "n_steps": record.meta["n_steps"],
        "gate_count_per_step": record.meta["gate_count"],
    }
    return {
        "circuit_distances.csv": _distances_csv(record),
        "plateau.json": json_text(plateau),
    }


@experiment("circuit-noise", MODEL, JUMPS, CIRCUIT, {
    "circuit.dt_oft": Key(float, REQUIRED),
    "grid.lambda_g": Key([float], [1e-6, 1e-5, 1e-4]),
    "grid.dt_ev": Key([float], [1.0, 3.0, 5.0]),
})
def run_circuit_noise(model, v, threads):
    runs = [
        (
            _circuit_config(v, dt_ev=dt_ev),
            _validated(NoiseSpec, kind="depolarizing_budget" if lam_g else "none", lambda_g=lam_g),
        )
        for lam_g in v["grid.lambda_g"]
        for dt_ev in v["grid.dt_ev"]
    ]
    plateaus = _plateau_grid(model, _chain(model, v["beta"]), runs, threads)
    rows = [(noise.lambda_g, c.dt_ev, c.dt_oft, p) for (c, noise), p in zip(runs, plateaus)]
    units = "times in 1/J, probabilities dimensionless"
    columns = ["lambda_g", "dt_ev", "dt_oft", "plateau_distance"]
    return {"noise_grid.csv": csv_text(units, columns, rows)}


@experiment("noise-bounds", MODEL, JUMPS, SOLVER, {
    "grid.lambda": Key(
        [float], [1e-3, 1e-2, 1e-1], lambda lam: 0 < lam <= 1, "has an entry outside (0, 1]"
    ),
    "noise.n_g": _count(_gate_budget),
})
def run_noise_bounds(model, v, threads):
    record, _ = _evolve(model, v)
    steps = record.times / record.final_dt_rk
    fit = fit_convergence(steps, record.avg_distance)
    n_g = v["noise.n_g"]
    rows = [
        (lam, bound_asymptotic(fit, lam), bound_generic(fit, lam),
         bound_unitary_comparison(fit, min(lam / n_g, 0.5), n_g))
        for lam in v["grid.lambda"]
    ]
    return {
        "bounds.csv": csv_text(
            "per-step error probability; bounds dimensionless",
            ["lambda", "asymptotic", "generic", "unitary_comparison"],
            rows,
        ),
        "fit.json": json_text({"B": fit.B, "alpha_per_step": fit.alpha, "residual": fit.residual}),
    }


@experiment("error-fit", MODEL, JUMPS, CIRCUIT, {
    "grid.dt_ev": Key([float], [0.05, 0.1, 0.2, 0.3]),
    "grid.dt_oft": Key([float], [0.08, 0.12, 0.2, 0.3]),
})
def run_error_fit(model, v, threads):
    runs = [
        (_circuit_config(v, dt_ev=dt_ev, dt_oft=dt_oft), NoiseSpec())
        for dt_ev in v["grid.dt_ev"]
        for dt_oft in v["grid.dt_oft"]
    ]
    beta = v["beta"]
    chain = _chain(model, beta)
    spec = chain[1]
    h_norm = float(np.max(np.abs(spec.values)))
    usable = sum(in_fit_domain(c.dt_ev, c.dt_oft, beta, h_norm) for c, _ in runs)
    if usable < 4:
        raise ConfigError(
            f"grid.dt_ev and grid.dt_oft give {usable} usable points; the error fit needs "
            "four with dt_ev <= 0.3, dt_oft <= 0.37 and a positive aliasing argument"
        )
    plateaus = _plateau_grid(model, chain, runs, threads)
    rows = [(c.dt_ev, c.dt_oft, p) for (c, _), p in zip(runs, plateaus)]
    bohr = bohr_frequencies(spec)
    fit = fit_error_model(rows, T=v["circuit.T"], beta=beta, h_norm=h_norm, bohr_count=bohr.count)
    return {
        "error_grid.csv": csv_text("times in 1/J", ["dt_ev", "dt_oft", "plateau_distance"], rows),
        "errorfit.json": json_text({"a1": fit.a1, "a2": fit.a2, "a3": fit.a3, "a4": fit.a4}),
    }


def _map_maybe_parallel(fn, items, threads):
    # Thread pool: the heavy work is BLAS eigensolves which release the GIL,
    # and results come back in input order so worker count cannot change
    # any output.
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import concurrent.futures  # imported here: it loads logging, and only a pool needs it

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def run(config_path, seed=None, out_dir=None, threads=1):
    """Execute one experiment config; returns the output directory."""
    with open(config_path) as fh:
        cfg = parse_config(fh.read())
    known = sorted({key for _, table in EXPERIMENTS.values() for key in table})
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        import difflib  # imported here: only a misspelled key needs it

        near = difflib.get_close_matches(unknown[0], known, n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        raise ConfigError(f"unknown key {unknown[0]!r}{hint}")
    if seed is not None:
        cfg["seed"] = str(seed)
    cfg.setdefault("seed", "0")
    kind = cfg.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}; have {sorted(EXPERIMENTS)}")
    fn, table = EXPERIMENTS[kind]
    model, values = resolve(table, cfg)
    artifacts = fn(model, values, threads)
    out_dir = out_dir or values["out_dir"] or "."
    os.makedirs(out_dir, exist_ok=True)
    given = {**cfg, "experiment": kind, "out_dir": out_dir}
    manifest = [f"artifact_version = {__version__}"]
    manifest += [f"{key} = {given[key]}" for key in sorted(given) if key != "artifact_version"]
    for name, text in {"manifest.txt": "\n".join(manifest) + "\n", **artifacts}.items():
        path = os.path.join(out_dir, name)
        with open(path + ".tmp", "w") as fh:
            fh.write(text)
        os.replace(path + ".tmp", path)
    return out_dir


def list_points():
    lines = ["key     h/J      m/J      J*dt_rk for n=3..8"]
    for key, (h, m) in NAMED_POINTS.items():
        steps = " ".join(str(RK_STEP_TABLE[key][n]) for n in range(3, 9))
        lines.append(f"{key:<7} {h:<8} {m:<8} {steps}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gibbsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out-dir", default=None)
    runp.add_argument("--threads", type=int, default=1)
    sub.add_parser("list-points", help="show the named Hamiltonian parameter points")

    args = parser.parse_args(argv)
    if args.command == "list-points":
        print(list_points())
        return 0
    try:
        out_dir = run(args.config, args.seed, args.out_dir, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCeiling as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return 3
    except GibbsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
