import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gibbsim
from gibbsim.cli import list_points, main, parse_config
from gibbsim.errors import ConfigError


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_basics():
    cfg = parse_config("a = 1\n# comment\nb.c = hello  # trailing\n\n")
    assert cfg == {"a": "1", "b.c": "hello"}
    with pytest.raises(ConfigError):
        parse_config("not a key value line")


def test_list_points_table():
    table = list_points()
    assert "CH" in table and "REG2" in table
    assert "0.4" in table  # CH m/J
    assert "0.125" in table  # a Table step size


def test_unknown_experiment_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.cfg", "experiment = frobnicate\n")
    assert main(["run", cfg]) == 2


def test_missing_key_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", "experiment = spectrum\n")  # no n
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2


def test_gap_scan_ceiling_exits_3(tmp_path):
    cfg = write_cfg(
        tmp_path, "gap.cfg",
        "experiment = gap-scan\npoint = CH\ngrid.n = 3 7\ngrid.jumps = 5\n",
    )
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 3


def test_spectrum_run_outputs(tmp_path):
    cfg = write_cfg(
        tmp_path, "spec.cfg", "experiment = spectrum\npoint = CH\nn = 3\nseed = 1\n"
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert (out / "manifest.txt").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "artifact_version" in manifest and "point = CH" in manifest
    rows = (out / "eigenvalues.csv").read_text().splitlines()
    assert rows[0].startswith("#") and "energy" in rows[1]
    assert len(rows) == 2 + 8
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 3 and summary["beta_J"] == pytest.approx(0.5)


def test_evolve_run_deterministic_reruns(tmp_path):
    text = (
        "experiment = evolve\npoint = CH\nn = 3\njumps.count = 8\njumps.k = 2\n"
        "solver.t_max = 30\nsolver.n_traj = 3\nsolver.grid_points = 40\nseed = 7\n"
    )
    cfg = write_cfg(tmp_path, "ev.cfg", text)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out-dir", str(out1)]) == 0
    assert main(["run", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "distances.csv").read_bytes() == (out2 / "distances.csv").read_bytes()
    mixing = json.loads((out1 / "mixing.json").read_text())
    assert set(mixing) >= {"mixing_time", "converged", "final_dt_rk", "halvings"}
    assert (out1 / "jumps.txt").read_text().count("\n") >= 8


def test_seed_override_changes_outputs(tmp_path):
    text = (
        "experiment = evolve\npoint = CH\nn = 3\njumps.count = 8\n"
        "solver.t_max = 20\nsolver.n_traj = 2\nseed = 7\n"
    )
    cfg = write_cfg(tmp_path, "ev.cfg", text)
    out1, out2 = tmp_path / "s7", tmp_path / "s8"
    assert main(["run", cfg, "--out-dir", str(out1)]) == 0
    assert main(["run", cfg, "--seed", "8", "--out-dir", str(out2)]) == 0
    assert (out1 / "distances.csv").read_bytes() != (out2 / "distances.csv").read_bytes()
    assert "seed = 8" in (out2 / "manifest.txt").read_text()


def test_gap_scan_small(tmp_path):
    cfg = write_cfg(
        tmp_path, "gap.cfg",
        "experiment = gap-scan\npoint = CH\ngrid.n = 3\ngrid.jumps = 5 10\nseed = 0\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "gaps.csv").read_text().splitlines()
    assert rows[1].split(",")[:2] == ["n", "n_jumps"]
    assert len(rows) == 2 + 2
    gap = float(rows[2].split(",")[2])
    assert gap > 0


@pytest.mark.parametrize(
    "text, csv, n_rows",
    [
        ("experiment = gap-scan\npoint = CH\ngrid.n = 3\ngrid.jumps =\n", "gaps.csv", 1),
        ("experiment = gap-scan\npoint = CH\ngrid.n =\ngrid.jumps = 5\n", "gaps.csv", 3),
        ("experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = ,\n", "accuracy.csv", 5),
    ],
    ids=["gap-scan.grid.jumps", "gap-scan.grid.n", "accuracy-scan.grid.jumps"],
)
def test_empty_list_value_means_default(tmp_path, text, csv, n_rows):
    # a list key with no entries is unset, like any other empty value
    cfg = write_cfg(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert len((out / csv).read_text().splitlines()) == 2 + n_rows


def test_accuracy_scan_small(tmp_path):
    cfg = write_cfg(
        tmp_path, "acc.cfg",
        "experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = 5 20\nseed = 0\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "accuracy.csv").read_text().splitlines()[2:]
    dists = [float(r.split(",")[1]) for r in rows]
    assert len(dists) == 2 and all(d > 0 for d in dists)


def test_chaos_scan_small(tmp_path):
    cfg = write_cfg(
        tmp_path, "chaos.cfg",
        "experiment = chaos-scan\nn = 4\ngrid.h = 0.5 1.0\ngrid.m = 0.4\nbasis = z\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "heatmap.csv").read_text().splitlines()
    assert "basis=ZZZZ" in rows[0]
    assert len(rows) == 2 + 2


def test_circuit_run_small(tmp_path):
    cfg = write_cfg(
        tmp_path, "circ.cfg",
        "experiment = circuit\npoint = CH\nn = 2\ncircuit.dt_ev = 0.5\n"
        "circuit.dt_oft = 0.2\ncircuit.t_max = 20\ncircuit.n_rep = 2\n"
        "jumps.count = 4\nseed = 0\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    plateau = json.loads((out / "plateau.json").read_text())
    assert plateau["plateau_distance"] > 0
    assert (out / "circuit_distances.csv").exists()


def test_circuit_noise_grid_small(tmp_path):
    cfg = write_cfg(
        tmp_path, "cn.cfg",
        "experiment = circuit-noise\npoint = CH\nn = 2\ncircuit.dt_oft = 0.2\n"
        "circuit.t_max = 10\ncircuit.n_rep = 2\njumps.count = 4\nseed = 0\n"
        "grid.lambda_g = 0.0001\ngrid.dt_ev = 1.0 2.0\ncircuit.dt_ev = 1.0\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "noise_grid.csv").read_text().splitlines()
    assert len(rows) == 2 + 2


def test_noise_bounds_run(tmp_path):
    cfg = write_cfg(
        tmp_path, "nb.cfg",
        "experiment = noise-bounds\npoint = CH\nn = 3\njumps.count = 10\n"
        "solver.t_max = 400\nsolver.n_traj = 5\nseed = 5\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["B"] > 0 and fit["alpha_per_step"] > 0
    rows = (out / "bounds.csv").read_text().splitlines()[2:]
    assert len(rows) == 3
    for row in rows:
        lam, asym, gen, unit = (float(x) for x in row.split(","))
        assert asym <= gen + 1e-12 and asym <= unit + 1e-12


def test_error_fit_run(tmp_path):
    cfg = write_cfg(
        tmp_path, "ef.cfg",
        "experiment = error-fit\npoint = CH\nn = 2\ncircuit.t_max = 40\n"
        "circuit.n_rep = 2\njumps.count = 4\nseed = 0\n"
        "grid.dt_ev = 0.05 0.1 0.2\ngrid.dt_oft = 0.1 0.2 0.3\n"
        "circuit.dt_ev = 0.1\ncircuit.dt_oft = 0.2\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    fit = json.loads((out / "errorfit.json").read_text())
    assert all(fit[k] >= 0 for k in ("a1", "a2", "a3", "a4"))
    assert (out / "error_grid.csv").exists()


def test_threads_fanout_matches_serial(tmp_path):
    text = (
        "experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = 5 10 20\nseed = 0\n"
    )
    cfg = write_cfg(tmp_path, "acc.cfg", text)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", cfg, "--out-dir", str(out1)]) == 0
    assert main(["run", cfg, "--out-dir", str(out2), "--threads", "3"]) == 0
    assert (out1 / "accuracy.csv").read_bytes() == (out2 / "accuracy.csv").read_bytes()


def test_manifest_reruns_reproduce_outputs(tmp_path):
    text = (
        "experiment = evolve\npoint = CH\nn = 3\njumps.count = 8\n"
        "solver.t_max = 20\nsolver.n_traj = 2\nseed = 7\n"
    )
    cfg = write_cfg(tmp_path, "ev.cfg", text)
    out1 = tmp_path / "first"
    assert main(["run", cfg, "--out-dir", str(out1)]) == 0
    out2 = tmp_path / "from_manifest"
    assert main(["run", str(out1 / "manifest.txt"), "--out-dir", str(out2)]) == 0
    assert (out1 / "distances.csv").read_bytes() == (out2 / "distances.csv").read_bytes()


def test_threads_on_closure_experiments(tmp_path):
    cfg = write_cfg(
        tmp_path, "chaos.cfg",
        "experiment = chaos-scan\nn = 3\ngrid.h = 0.5 1.0\ngrid.m = 0.4 0.8\nbasis = z\n",
    )
    out1, out2 = tmp_path / "s", tmp_path / "p"
    assert main(["run", cfg, "--out-dir", str(out1)]) == 0
    assert main(["run", cfg, "--out-dir", str(out2), "--threads", "4"]) == 0
    assert (out1 / "heatmap.csv").read_bytes() == (out2 / "heatmap.csv").read_bytes()


CIRCUIT_N3 = (
    "experiment = circuit\npoint = CH\nn = 3\ncircuit.dt_ev = 0.5\ncircuit.dt_oft = 0.2\n"
    "circuit.t_max = 5\ncircuit.n_rep = 2\njumps.count = 4\nseed = 0\n"
)
EVOLVE_N3 = "experiment = evolve\npoint = CH\nn = 3\nsolver.t_max = 5\nsolver.n_traj = 2\n"
NOISE_BOUNDS_N3 = (
    "experiment = noise-bounds\npoint = CH\nn = 3\njumps.count = 10\n"
    "solver.t_max = 400\nsolver.n_traj = 5\nseed = 5\n"
)
CHAOS_N3 = "experiment = chaos-scan\nn = 3\ngrid.h = 0.5\ngrid.m = 0.4\n"
CIRCUIT_N1 = CIRCUIT_N3.replace("n = 3", "n = 1") + "jumps.k = 1\n"
ERROR_FIT_N1 = CIRCUIT_N1.replace("experiment = circuit", "experiment = error-fit")
CIRCUIT_NOISE_N1 = (
    "experiment = circuit-noise\npoint = CH\nn = 1\njumps.k = 1\njumps.count = 4\n"
    "circuit.dt_oft = 0.2\ncircuit.t_max = 5\ncircuit.n_rep = 2\ngrid.dt_ev = 1.0\n"
)
# Out-of-range values that each experiment must reject as a config error;
# NaN fails every comparison, so each range check reads `not lo < x < hi`.
REJECTED_VALUES = {
    "solver.t_max.nan": EVOLVE_N3 + "solver.t_max = nan\n",
    "solver.t_max.inf": EVOLVE_N3 + "solver.t_max = inf\n",
    "solver.dt_rk0.nan": EVOLVE_N3 + "solver.dt_rk0 = nan\n",
    "solver.dt_rk0.inf": EVOLVE_N3 + "solver.dt_rk0 = inf\n",
    "solver.herm_tol.nan": EVOLVE_N3 + "solver.herm_tol = nan\n",
    "solver.max_steps": EVOLVE_N3 + "solver.max_steps = -1\n",
    "solver.stop_below.nan": EVOLVE_N3 + "solver.stop_below = nan\n",
    "evolve.eps.nan": EVOLVE_N3 + "eps = nan\n",
    "circuit.t_max.nan": CIRCUIT_N3 + "circuit.t_max = nan\n",
    "circuit.t_max.inf": CIRCUIT_N3 + "circuit.t_max = inf\n",
    "circuit.dt_ev.nan": CIRCUIT_N3 + "circuit.dt_ev = nan\n",
    "circuit.gamma": CIRCUIT_N3 + "circuit.gamma = -1\n",
    "circuit.n_rep": CIRCUIT_N3 + "circuit.n_rep = 0\n",
    "circuit.r_delta": CIRCUIT_N3 + "circuit.coherent_mode = trotter2\ncircuit.r_delta = 0\n",
    "circuit.noise.n_g": CIRCUIT_N3
    + "noise.kind = depolarizing_budget\nnoise.lambda_g = 0.001\nnoise.n_g = -1\n",
    "noise-bounds.noise.n_g": NOISE_BOUNDS_N3 + "noise.n_g = 0\n",
    "noise-bounds.grid.lambda": NOISE_BOUNDS_N3 + "grid.lambda = 0 0.1\n",
    "chaos-scan.J": CHAOS_N3 + "J = 0\n",
    "chaos-scan.n": CHAOS_N3 + "n = 0\n",
    "chaos-scan.window_kind": CHAOS_N3 + "window_kind = foo\n",
    "spectrum.beta": "experiment = spectrum\npoint = CH\nn = 3\nbeta = nan\n",
    "evolve.beta": EVOLVE_N3 + "beta = nan\n",
    "spectrum.J": "experiment = spectrum\npoint = CH\nn = 3\nJ = nan\n",
    "gap-scan.grid.n": "experiment = gap-scan\npoint = CH\ngrid.n = 3 0\n",
    "circuit.noise.n1": CIRCUIT_N1 + "noise.kind = depolarizing_budget\nnoise.lambda_g = 0.001\n",
    "circuit-noise.n1": CIRCUIT_NOISE_N1,
    # dt_ev = 0.5 is outside the error model's domain, so no grid point is usable
    "error-fit.usable": ERROR_FIT_N1 + "grid.dt_ev = 0.5\ngrid.dt_oft = 0.2\n",
}


@pytest.mark.parametrize(
    "text, code, args",
    [
        (CIRCUIT_N3, 0, ()),
        (CIRCUIT_N3 + "circuit.dt_ev = -1\n", 2, ()),
        (CIRCUIT_N3 + "circuit.coherent_mode = bogus\n", 2, ()),
        (CIRCUIT_N3 + "noise.kind = depolarizing_budget\nnoise.lambda_g = 2\n", 2, ()),
        (CIRCUIT_N3 + "n = 0\n", 2, ()),
        ("experiment = evolve\npoint = CH\nn = 3\nsolver.n_traj = 0\n", 2, ()),
        (
            "experiment = circuit-noise\npoint = CH\nn = 3\ncircuit.dt_oft = 0.2\n"
            "circuit.t_max = 5\ngrid.lambda_g = 1.5\ngrid.dt_ev = 1.0\n",
            2,
            (),
        ),
        ("experiment = accuracy-scan\npoint = CH\nn = 7\ngrid.jumps = 5\n", 3, ()),
        (CIRCUIT_N3 + "circuit.grid_points = 0\n", 0, ()),
        (CIRCUIT_N3 + "jumps.k = 4\n", 2, ()),
        (CIRCUIT_N3 + "jumps.count = 0\n", 2, ()),
        ("experiment = evolve\npoint = CH\nn = 3\njumps.k = 9\n", 2, ()),
        ("experiment = evolve\npoint = CH\nn = 3\njumps.count = 0\n", 2, ()),
        ("experiment = gap-scan\npoint = CH\ngrid.n = 3 4\njumps.k = 4\n", 2, ()),
        ("experiment = gap-scan\npoint = CH\ngrid.n = 3\ngrid.jumps = 0\n", 2, ()),
        ("experiment = gap-scan\npoint = CH\ngrid.n = 7\njumps.k = 9\n", 2, ()),
        ("experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = 5 0\n", 2, ()),
        (CIRCUIT_N3 + "seed = -1\n", 2, ()),
        (CIRCUIT_N3, 2, ("--seed", "-1")),
        (CIRCUIT_N3 + "circuit.t_max = -1\n", 2, ()),
        ("experiment = evolve\npoint = CH\nn = 3\nsolver.t_max = -1\n", 2, ()),
        *((text, 2, ()) for text in REJECTED_VALUES.values()),
    ],
    ids=[
        "ok", "dt_ev", "coherent_mode", "lambda_g", "n", "n_traj", "grid.lambda_g", "ceiling",
        "circuit.grid_points", "circuit.jumps.k", "circuit.jumps.count", "evolve.jumps.k",
        "evolve.jumps.count", "gap-scan.jumps.k", "gap-scan.grid.jumps",
        "gap-scan.jumps.k.beyond-ceiling", "accuracy-scan.grid.jumps", "seed", "cli.seed",
        "circuit.t_max", "solver.t_max",
        *REJECTED_VALUES,
    ],
)
def test_documented_exit_codes(tmp_path, capsys, text, code, args):
    # 0 success, 2 config error, 3 resource ceiling; never a traceback
    cfg = write_cfg(tmp_path, "run.cfg", text)
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out"), *args]) == code
    err = capsys.readouterr().err
    assert err.startswith({0: "", 2: "config error:", 3: "resource ceiling:"}[code])


@pytest.mark.parametrize(
    "text, code",
    [
        ("experiment = evolve\npoint = CH\nn = 3\njumps.count = 0\n", 2),
        ("experiment = gap-scan\npoint = CH\ngrid.n = 3\ngrid.jumps = 0\n", 2),
        ("experiment = accuracy-scan\npoint = CH\nn = 7\ngrid.jumps = 5\n", 3),
        *((text, 2) for text in REJECTED_VALUES.values()),
    ],
    ids=["evolve.jumps.count", "gap-scan.grid.jumps", "ceiling", *REJECTED_VALUES],
)
def test_rejected_config_leaves_no_manifest(tmp_path, text, code):
    cfg = write_cfg(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == code
    assert not (out / "manifest.txt").exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "key",
    ["gap-scan.grid.n", "circuit.noise.n1", "circuit-noise.n1", "error-fit.usable"],
)
def test_rejected_value_is_named(tmp_path, capsys, key):
    # the message names the key at fault, and an earlier run is left as it was
    out = tmp_path / "out"
    spectrum = write_cfg(tmp_path, "spec.cfg", "experiment = spectrum\npoint = CH\nn = 3\n")
    assert main(["run", spectrum, "--out-dir", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    cfg = write_cfg(tmp_path, "run.cfg", REJECTED_VALUES[key])
    assert main(["run", cfg, "--out-dir", str(out)]) == 2
    named = {
        "gap-scan.grid.n": "grid.n = 3 0",
        "circuit.noise.n1": "noise.kind = depolarizing_budget",
        "circuit-noise.n1": "grid.lambda_g",
        "error-fit.usable": "grid.dt_ev and grid.dt_oft",
    }[key]
    assert named in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_error_fit_reads_no_noise_keys(tmp_path):
    # error-fit always runs noiseless, so a pair-noise kind does not bar n = 1
    cfg = write_cfg(
        tmp_path, "ef.cfg",
        ERROR_FIT_N1 + "noise.kind = depolarizing_budget\nnoise.lambda_g = 0.001\n"
        "grid.dt_ev = 0.05 0.1\ngrid.dt_oft = 0.1 0.2\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert len((out / "error_grid.csv").read_text().splitlines()) == 2 + 4


@pytest.mark.parametrize("experiment", ["circuit-noise", "error-fit"])
def test_grid_values_checked_before_first_simulation(tmp_path, monkeypatch, experiment):
    # a bad value at a later grid point exits 2 before any point runs
    calls = []
    simulate = gibbsim.cli.simulate_protocol

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(gibbsim.cli, "simulate_protocol", counted)
    text = CIRCUIT_N3.replace("experiment = circuit", f"experiment = {experiment}")
    cfg = write_cfg(tmp_path, "run.cfg", text + "grid.lambda_g = 0\ngrid.dt_ev = 1.0 -1\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert calls == []


def test_rejected_config_leaves_earlier_run_unchanged(tmp_path):
    out = tmp_path / "out"
    spectrum = write_cfg(tmp_path, "spec.cfg", "experiment = spectrum\npoint = CH\nn = 3\n")
    assert main(["run", spectrum, "--out-dir", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert "manifest.txt" in before
    rejected = write_cfg(
        tmp_path, "ev.cfg", "experiment = evolve\npoint = CH\nn = 3\njumps.count = 0\n"
    )
    assert main(["run", rejected, "--out-dir", str(out)]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_import_and_runs_load_no_scipy(tmp_path):
    # scipy is imported only by mcwf_evolve and the noisefit fits that call it
    configs = {
        "evolve": "experiment = evolve\npoint = CH\nn = 3\njumps.count = 4\n"
        "solver.t_max = 5\nsolver.n_traj = 2\n",
        "circuit": CIRCUIT_N3,
        "gap-scan": "experiment = gap-scan\npoint = CH\ngrid.n = 3\ngrid.jumps = 5\n",
    }
    argvs = [
        ["run", write_cfg(tmp_path, f"{name}.cfg", text), "--out-dir", str(tmp_path / name)]
        for name, text in configs.items()
    ]
    script = (
        "import json, sys\n"
        "from gibbsim.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0, 0, 0], "scipy": []}


def test_circuit_trotter2_mode_runs(tmp_path):
    cfg = write_cfg(
        tmp_path, "trotter.cfg",
        CIRCUIT_N3 + "circuit.coherent_mode = trotter2\ncircuit.r_delta = 2\ncircuit.r_big = 2\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert json.loads((out / "plateau.json").read_text())["plateau_distance"] > 0


@pytest.mark.parametrize(
    "text",
    [
        "experiment = spectrum\npoint = CH\nn = 3\n",
        "experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = 5\n",
        "experiment = chaos-scan\nn = 3\ngrid.h = 0.5\ngrid.m = 0.4\n",
        CIRCUIT_N3,
        "experiment = noise-bounds\npoint = CH\nn = 3\njumps.count = 10\n"
        "solver.t_max = 400\nsolver.n_traj = 5\nseed = 5\n",
    ],
    ids=["spectrum", "accuracy-scan", "chaos-scan", "circuit", "noise-bounds"],
)
def test_csv_values_are_plain_numbers(tmp_path, text):
    # numpy 2 scalars repr as 'np.float64(x)'; CSVs must hold plain literals
    cfg = write_cfg(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert "np." not in path.read_text(), path.name


# Public names that no other module and no acceptance criterion names, kept
# with one reason each.
PUBLIC_KEEP = {
    "eth_statistics": "computes the paper's ETH matrix-element diagnostic",
    "fit_effective_gates": "computes the paper's effective gate count",
    "apply_noise": "the per-step noise channel that simulate_protocol applies",
    "b_gate": "the ancilla rotation that every step_V product is built from",
    "fractal_dimension": "the per-state D_1 that fractal_stats averages",
}


def test_every_public_name_is_used():
    # A name exported by gibbsim must appear as a word in another module of
    # the package or in the acceptance criteria, be a class that a used
    # function of its module builds, or be kept above with a reason.
    package = Path(gibbsim.__file__).parent
    exported = {
        alias.name: node.module
        for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = {path.stem: path.read_text() for path in package.glob("*.py")}
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()

    def used(name, module):
        word = re.compile(rf"\b{re.escape(name)}\b")
        others = [text for stem, text in sources.items() if stem not in (module, "__init__")]
        return any(word.search(text) for text in [acceptance, *others])

    def built_by_used_function(name, module):
        return any(
            isinstance(fn, ast.FunctionDef)
            and used(fn.name, module)
            and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
                for call in ast.walk(fn)
            )
            for fn in ast.walk(ast.parse(sources[module]))
        )

    unused = [
        name
        for name, module in exported.items()
        if not used(name, module)
        and not (isinstance(getattr(gibbsim, name), type) and built_by_used_function(name, module))
        and name not in PUBLIC_KEEP
    ]
    assert unused == []
