"""Experiment runner: flat dotted-key configs in, CSV/JSON artifacts out.

Each experiment computes its artifacts as text and writes no file; `run`
writes them only once the experiment has returned, after a manifest of the
keys the config gives plus `experiment`, `seed`, `out_dir` and
`artifact_version`, not the defaults it fills in.  Re-running a manifest
reproduces the outputs byte for byte.  A run that fails while it computes,
by any exception, writes nothing, so the out dir keeps the earlier run.
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

# Every key some experiment reads, plus the `artifact_version` a manifest
# carries; `run` rejects any other key.
CONFIG_KEYS = frozenset(
    """
    experiment seed out_dir artifact_version n J point h m beta eps allow_large basis window_kind
    jumps.k jumps.count solver.dt_rk0 solver.max_steps solver.n_traj solver.herm_tol
    solver.t_max solver.stop_below solver.grid_points circuit.dt_ev circuit.dt_oft circuit.T
    circuit.gamma circuit.t_max circuit.coherent_mode circuit.r_delta circuit.r_big
    circuit.n_rep circuit.grid_points noise.kind noise.lambda noise.lambda_g noise.n_g
    grid.n grid.jumps grid.h grid.m grid.lambda_g grid.dt_ev grid.dt_oft grid.lambda
    """.split()
)

EXPERIMENTS = {}


def experiment(name):
    def register(fn):
        EXPERIMENTS[name] = fn
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


_BOOL_SPELLINGS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _get(cfg, key, cast, default=None, required=False):
    if key not in cfg or cfg[key] == "":
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    if cast is bool:
        if cfg[key].lower() not in _BOOL_SPELLINGS:
            raise ConfigError(
                f"bad value for {key!r}: {cfg[key]!r} is not one of 1/0, true/false, yes/no, on/off"
            )
        return _BOOL_SPELLINGS[cfg[key].lower()]
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r}") from exc


def _list(cfg, key, cast, default):
    """Whitespace- or comma-separated values; a value with no entries is
    unset, as in `_get`."""
    tokens = cfg.get(key, "").replace(",", " ").split()
    if not tokens:
        return default
    try:
        return [cast(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad {cast.__name__} list for {key!r}: {cfg[key]!r}") from exc


def _validated(build, **kwargs):
    """Build a config object, reporting a rejected value as a config error."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{build.__name__}: {exc}") from exc


def resolve_model(cfg):
    n = _get(cfg, "n", int, required=True)
    j = _get(cfg, "J", float, 1.0)
    point = cfg.get("point")
    if point is not None:
        if point not in NAMED_POINTS:
            raise ConfigError(f"unknown named point {point!r}")
        given = [key for key in ("h", "m") if cfg.get(key, "") != ""]
        if given:
            raise ConfigError(
                f"{' and '.join(given)} given beside point = {point}, which sets h and m"
            )
        params = _validated(named_point, key=point, n=n, J=j)
    else:
        h = _get(cfg, "h", float, required=True)
        m = _get(cfg, "m", float, required=True)
        params = _validated(IsingParams, n=n, J=j, h=h, m=m)
    beta = _get(cfg, "beta", float, params.beta_default)
    if not 0 < beta < np.inf:
        raise ConfigError(f"beta = {beta} must be positive and finite")
    return params, beta


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


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


def _solver_config(cfg, params, default_dt=None):
    point = cfg.get("point")
    if default_dt is None:
        table = RK_STEP_TABLE.get(point, {})
        default_dt = table.get(params.n, 0.1) / params.J
    return _validated(
        SolverConfig,
        dt_rk0=_get(cfg, "solver.dt_rk0", float, default_dt),
        max_steps=_get(cfg, "solver.max_steps", int, 300_000),
        n_traj=_get(cfg, "solver.n_traj", int, 10),
        herm_tol=_get(cfg, "solver.herm_tol", float, 1e-6),
        seed=_get(cfg, "seed", int, 0),
        t_max=_get(cfg, "solver.t_max", float, None),
        stop_below=_get(cfg, "solver.stop_below", float, None),
        grid_points=_get(cfg, "solver.grid_points", int, 2000),
    )


def _jump_k(cfg, n):
    """jumps.k, checked for an n-qubit chain."""
    k = _get(cfg, "jumps.k", int, 2)
    if not 1 <= k <= n:
        raise ConfigError(f"jumps.k = {k} outside [1, {n}]")
    return k


def _jump_keys(cfg, n, count_default):
    """jumps.k and jumps.count, checked for an n-qubit chain."""
    k = _jump_k(cfg, n)
    count = _get(cfg, "jumps.count", int, count_default)
    if count < 1:
        raise ConfigError(f"jumps.count = {count} must be at least 1")
    return k, count


def _counts(cfg, key, default):
    """An int list such as grid.jumps or grid.n, every entry checked to be at
    least 1."""
    counts = _list(cfg, key, int, default)
    if min(counts) < 1:
        raise ConfigError(f"{key} = {cfg[key]} has an entry below 1")
    return counts


def _chain(params, beta):
    """H, its spectrum and its Gibbs state at beta."""
    ham = build_hamiltonian(params)
    spec = eig_hermitian(ham)
    return ham, spec, gibbs_state(spec, beta)


def _jump_family(params, beta, k, count, seed):
    """H and its Gibbs state, with a sampled k-local jump set and the
    (count, D, D) stack of its exact OFT Lindblad operators."""
    ham, spec, sigma = _chain(params, beta)
    jump_set = sample_jump_set(params.n, k, count, seed)
    bohr = bohr_frequencies(spec)
    f = FilterSpec(beta)
    lindblads = np.stack([lindblad_op_exact(a, spec, f, bohr) for a in jump_set])
    return ham, sigma, jump_set, lindblads


@experiment("spectrum")
def run_spectrum(cfg, threads):
    params, beta = resolve_model(cfg)
    spec = eig_hermitian(build_hamiltonian(params))
    rows = [(i, e / params.J) for i, e in enumerate(spec.values)]
    summary = {
        "n": params.n,
        "ground_energy": float(spec.values[0] / params.J),
        "spectral_width": float((spec.values[-1] - spec.values[0]) / params.J),
        "bohr_frequency_count": int(bohr_frequencies(spec).count),
        "beta_J": beta * params.J,
    }
    return {
        "eigenvalues.csv": csv_text("energies in J", ["index", "energy"], rows),
        "summary.json": json_text(summary),
    }


@experiment("chaos-scan")
def run_chaos_scan(cfg, threads):
    n = _get(cfg, "n", int, 8)
    j = _get(cfg, "J", float, 1.0)
    h_vals = _list(cfg, "grid.h", float, list(np.geomspace(0.1, 10.0, 11)))
    m_vals = _list(cfg, "grid.m", float, [0.0] + list(np.geomspace(0.1, 10.0, 11)))
    points = [
        (h, m, _validated(IsingParams, n=n, J=j, h=h * j, m=m * j)) for h in h_vals for m in m_vals
    ]
    basis_key = cfg.get("basis", "z")
    bases = preset_bases(n)
    if basis_key not in bases:
        raise ConfigError(f"unknown basis {basis_key!r}; have {sorted(bases)}")
    letters = bases[basis_key]
    window_kind = cfg.get("window_kind", "energy")
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


def _evolve(cfg, params, beta):
    """The randomized evolution from the maximally mixed state that `evolve`
    and `noise-bounds` run; returns its record and jump set."""
    k, count = _jump_keys(cfg, params.n, 20)
    solver = _solver_config(cfg, params)
    ham, sigma, jump_set, lindblads = _jump_family(
        params, beta, k, count, _get(cfg, "seed", int, 0)
    )
    record = evolve_randomized(ham, lindblads, maximally_mixed(params.n), solver, sigma)
    return record, jump_set


@experiment("evolve")
def run_evolve(cfg, threads):
    params, beta = resolve_model(cfg)
    eps = _get(cfg, "eps", float, 1e-2)
    if not eps > 0:
        raise ConfigError(f"eps = {eps} must be positive")
    record, jump_set = _evolve(cfg, params, beta)
    estimate = mixing_time_estimate(record, eps)
    mixing = {
        "mixing_time": None if estimate is NOT_CONVERGED else estimate,
        "converged": estimate is not NOT_CONVERGED,
        "final_dt_rk": record.final_dt_rk,
        "halvings": record.halvings,
    }
    return {
        "distances.csv": _distances_csv(record),
        "jumps.txt": jump_set_to_text(jump_set, _get(cfg, "seed", int, 0)),
        "mixing.json": json_text(mixing),
    }


def _gap_point(args):
    params, beta, k, count, seed = args
    ham, sigma, _, lindblads = _jump_family(params, beta, k, count, seed)
    result = steady_state_and_gap(ham, lindblads, np.full(count, 1.0 / count))
    return (
        params.n,
        count,
        result.gap,
        result.zero_count,
        trace_distance(result.steady_state, sigma),
    )


def _gap_rows(cfg, params, beta, n_values, default_counts, threads):
    """One `_gap_point` row per (n, grid.jumps entry); `grid.jumps` sets the
    jump counts, so `jumps.count` is not read.  Every config key is checked
    before the GAP_QUBIT_CEILING check, so a config error exits 2 whatever
    the size."""
    counts = _counts(cfg, "grid.jumps", default_counts)
    k = _jump_k(cfg, min(n_values))
    allow_large = _get(cfg, "allow_large", bool, False)
    if max(n_values) > GAP_QUBIT_CEILING and not allow_large:
        raise ResourceCeiling(
            f"Liouvillian eigensolve beyond n={GAP_QUBIT_CEILING} requires allow_large = true"
        )
    seed = _get(cfg, "seed", int, 0)
    tasks = [
        (dataclasses.replace(params, n=n), beta, k, count, seed)
        for n in n_values
        for count in counts
    ]
    return _map_maybe_parallel(_gap_point, tasks, threads)


@experiment("gap-scan")
def run_gap_scan(cfg, threads):
    params, beta = resolve_model({**cfg, "n": cfg.get("n", "3")})
    n_values = _counts(cfg, "grid.n", [3, 4, 5])
    rows = _gap_rows(cfg, params, beta, n_values, [20], threads)
    columns = ["n", "n_jumps", "gap", "zero_count", "distance_to_gibbs"]
    return {"gaps.csv": csv_text("gap in J, distance dimensionless", columns, rows)}


@experiment("accuracy-scan")
def run_accuracy_scan(cfg, threads):
    params, beta = resolve_model(cfg)
    rows = _gap_rows(cfg, params, beta, [params.n], [5, 10, 20, 50, 100], threads)
    rows = [(r[1], r[4]) for r in rows]
    return {"accuracy.csv": csv_text("distance dimensionless", ["n_jumps", "distance"], rows)}


def _circuit_config(cfg, n, beta):
    k, jump_count = _jump_keys(cfg, n, 10)
    return _validated(
        CircuitConfig,
        dt_ev=_get(cfg, "circuit.dt_ev", float, required=True),
        dt_oft=_get(cfg, "circuit.dt_oft", float, required=True),
        T=_get(cfg, "circuit.T", float, 1.6),
        gamma=_get(cfg, "circuit.gamma", float, 1.0),
        t_max=_get(cfg, "circuit.t_max", float, 500.0),
        jump_count=jump_count,
        k=k,
        seed=_get(cfg, "seed", int, 0),
        beta=beta,
        coherent_mode=cfg.get("circuit.coherent_mode", "exact"),
        r_delta=_get(cfg, "circuit.r_delta", int, 1),
        r_big=_get(cfg, "circuit.r_big", int, 1),
        n_rep=_get(cfg, "circuit.n_rep", int, 10),
        grid_points=_get(cfg, "circuit.grid_points", int, 500),
    )


def _noise_spec(cfg, n):
    noise = _validated(
        NoiseSpec,
        kind=cfg.get("noise.kind", "none"),
        lam=_get(cfg, "noise.lambda", float, 0.0),
        lambda_g=_get(cfg, "noise.lambda_g", float, 0.0),
        n_g_override=_get(cfg, "noise.n_g", int, None),
    )
    if noise.kind == "depolarizing_budget":
        _check_pair_noise(n, "noise.kind = depolarizing_budget")
    return noise


def _check_pair_noise(n, source):
    """The depolarizing budget acts on adjacent qubit pairs."""
    if n < 2:
        raise ConfigError(f"{source} depolarizes qubit pairs and needs n >= 2, got n = {n}")


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


@experiment("circuit")
def run_circuit(cfg, threads):
    params, beta = resolve_model(cfg)
    circuit_cfg = _circuit_config(cfg, params.n, beta)
    noise = _noise_spec(cfg, params.n)
    ham, _, target = _chain(params, beta)
    record = _simulate(params, ham, circuit_cfg, noise, target)
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


@experiment("circuit-noise")
def run_circuit_noise(cfg, threads):
    params, beta = resolve_model(cfg)
    lambdas = _list(cfg, "grid.lambda_g", float, [1e-6, 1e-5, 1e-4])
    dt_evs = _list(cfg, "grid.dt_ev", float, [1.0, 3.0, 5.0])
    if any(lam_g != 0 for lam_g in lambdas):
        _check_pair_noise(params.n, "grid.lambda_g > 0")
    runs = [
        (
            _circuit_config({**cfg, "circuit.dt_ev": repr(dt_ev)}, params.n, beta),
            _validated(NoiseSpec, kind="depolarizing_budget" if lam_g else "none", lambda_g=lam_g),
        )
        for lam_g in lambdas
        for dt_ev in dt_evs
    ]
    plateaus = _plateau_grid(params, _chain(params, beta), runs, threads)
    rows = [(noise.lambda_g, c.dt_ev, c.dt_oft, p) for (c, noise), p in zip(runs, plateaus)]
    units = "times in 1/J, probabilities dimensionless"
    columns = ["lambda_g", "dt_ev", "dt_oft", "plateau_distance"]
    return {"noise_grid.csv": csv_text(units, columns, rows)}


@experiment("noise-bounds")
def run_noise_bounds(cfg, threads):
    params, beta = resolve_model(cfg)
    lambdas = _list(cfg, "grid.lambda", float, [1e-3, 1e-2, 1e-1])
    if not all(0 < lam <= 1 for lam in lambdas):
        raise ConfigError(f"grid.lambda = {cfg['grid.lambda']} has an entry outside (0, 1]")
    n_g = _get(cfg, "noise.n_g", int, 50 * params.n)
    if not n_g >= 1:
        raise ConfigError(f"noise.n_g = {n_g} must be at least 1")
    record, _ = _evolve(cfg, params, beta)
    steps = record.times / record.final_dt_rk
    fit = fit_convergence(steps, record.avg_distance)
    rows = []
    for lam in lambdas:
        rows.append(
            (
                lam,
                bound_asymptotic(fit, lam),
                bound_generic(fit, lam),
                bound_unitary_comparison(fit, min(lam / n_g, 0.5), n_g),
            )
        )
    return {
        "bounds.csv": csv_text(
            "per-step error probability; bounds dimensionless",
            ["lambda", "asymptotic", "generic", "unitary_comparison"],
            rows,
        ),
        "fit.json": json_text({"B": fit.B, "alpha_per_step": fit.alpha, "residual": fit.residual}),
    }


@experiment("error-fit")
def run_error_fit(cfg, threads):
    params, beta = resolve_model(cfg)
    dt_evs = _list(cfg, "grid.dt_ev", float, [0.05, 0.1, 0.2, 0.3])
    dt_ofts = _list(cfg, "grid.dt_oft", float, [0.08, 0.12, 0.2, 0.3])
    overrides = [
        {"circuit.dt_ev": repr(dt_ev), "circuit.dt_oft": repr(dt_oft)}
        for dt_ev in dt_evs
        for dt_oft in dt_ofts
    ]
    runs = [(_circuit_config({**cfg, **keys}, params.n, beta), NoiseSpec()) for keys in overrides]
    chain = _chain(params, beta)
    spec = chain[1]
    h_norm = float(np.max(np.abs(spec.values)))
    usable = sum(in_fit_domain(c.dt_ev, c.dt_oft, beta, h_norm) for c, _ in runs)
    if usable < 4:
        raise ConfigError(
            f"grid.dt_ev and grid.dt_oft give {usable} usable points; the error fit needs "
            "four with dt_ev <= 0.3, dt_oft <= 0.37 and a positive aliasing argument"
        )
    plateaus = _plateau_grid(params, chain, runs, threads)
    rows = [(c.dt_ev, c.dt_oft, p) for (c, _), p in zip(runs, plateaus)]
    bohr = bohr_frequencies(spec)
    fit = fit_error_model(
        rows, T=_get(cfg, "circuit.T", float, 1.6), beta=beta, h_norm=h_norm, bohr_count=bohr.count
    )
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
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        import difflib  # imported here: only a misspelled key needs it

        near = difflib.get_close_matches(unknown[0], sorted(CONFIG_KEYS), n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        raise ConfigError(f"unknown key {unknown[0]!r}{hint}")
    if seed is not None:
        cfg["seed"] = str(seed)
    cfg.setdefault("seed", "0")
    if _get(cfg, "seed", int, 0) < 0:
        raise ConfigError(f"seed = {cfg['seed']} must be non-negative")
    kind = cfg.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}; have {sorted(EXPERIMENTS)}")
    out_dir = out_dir or cfg.get("out_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    artifacts = EXPERIMENTS[kind](cfg, threads)
    given = {**cfg, "experiment": kind, "out_dir": out_dir}
    manifest = [f"artifact_version = {__version__}"]
    manifest += [f"{key} = {given[key]}" for key in sorted(given) if key != "artifact_version"]
    for name, text in {"manifest.txt": "\n".join(manifest) + "\n", **artifacts}.items():
        _atomic_write(os.path.join(out_dir, name), text)
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
