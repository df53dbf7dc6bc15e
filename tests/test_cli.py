import ast
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gibbsim
from gibbsim.cli import (
    EXPERIMENTS, REQUIRED, csv_text, json_text, list_points, main, parse_config, resolve,
)
from gibbsim.errors import ConfigError, GibbsimError


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
        "grid.lambda_g = 0.0001\ngrid.dt_ev = 1.0 2.0\n",
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
        "grid.dt_ev = 0.05 0.1 0.2\ngrid.dt_oft = 0.1 0.2 0.3\n",
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


@pytest.mark.parametrize(
    "text, threads",
    [
        ("experiment = chaos-scan\nn = 3\ngrid.h = 0.5 1.0\ngrid.m = 0.4 0.8\nbasis = z\n", 4),
        # one chain and one Lindblad stack per n, shared by the tasks of its counts
        ("experiment = gap-scan\npoint = CH\ngrid.n = 3 4\ngrid.jumps = 5 10\n", 2),
        ("experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = 5 20\n", 2),
        # one chain, filled before the threads share it
        ("experiment = circuit-noise\npoint = CH\nn = 3\ncircuit.dt_oft = 0.2\n"
         "circuit.t_max = 5\ncircuit.n_rep = 2\ngrid.lambda_g = 0 1e-4\ngrid.dt_ev = 1.0 2.0\n", 3),
    ],
    ids=["chaos-scan", "gap-scan", "accuracy-scan", "circuit-noise"],
)
def test_threads_on_closure_experiments(tmp_path, text, threads):
    # the serial and the threaded run write the same out dir, byte for byte
    cfg = write_cfg(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    serial = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(["run", cfg, "--out-dir", str(out), "--threads", str(threads)]) == 0
    assert {path.name: path.read_bytes() for path in out.iterdir()} == serial


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exits_2_without_out_dir(tmp_path, capsys, threads):
    cfg = write_cfg(tmp_path, "run.cfg", "experiment = spectrum\npoint = CH\nn = 3\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--out-dir", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_evolve_writes_a_null_mixing_time(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "run.cfg", "experiment = evolve\npoint = CH\nn = 3\nsolver.t_max = 2\n")
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    mixing = json.loads((out / "mixing.json").read_text())
    assert mixing["mixing_time"] is None and mixing["converged"] is False


def _count_eigensolves(monkeypatch):
    """The shapes of the operators that every gibbsim module binding of
    `eig_hermitian` is called with, from here on."""
    calls = []
    original = gibbsim.numkernel.eig_hermitian

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    for module in vars(gibbsim).values():
        if getattr(module, "eig_hermitian", None) is original:
            monkeypatch.setattr(module, "eig_hermitian", counted)
    return calls


CIRCUIT_NOISE_GRID = (
    "experiment = circuit-noise\npoint = CH\nn = 3\ncircuit.dt_oft = 0.2\n"
    "circuit.t_max = 5\ncircuit.n_rep = 2\njumps.count = 4\n"
    "grid.lambda_g = 0 1e-4\ngrid.dt_ev = 1.0 2.0\n"
)


@pytest.mark.parametrize(
    "text, n_solves",
    [
        (CIRCUIT_NOISE_GRID, 1),
        (CIRCUIT_NOISE_GRID + "circuit.coherent_mode = trotter2\n", 3),
        ("experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = 5 10 20\n", 1),
    ],
    ids=["circuit-noise", "circuit-noise-trotter2", "accuracy-scan"],
)
def test_one_eigensolve_per_chain(tmp_path, monkeypatch, text, n_solves):
    # every grid point of a run shares one chain, which diagonalizes H once
    # and, for trotter2, H's diagonal and off-diagonal parts once each
    calls = _count_eigensolves(monkeypatch)
    assert main(["run", write_cfg(tmp_path, "run.cfg", text), "--out-dir", str(tmp_path)]) == 0
    assert calls == [(8, 8)] * n_solves


def test_spectrum_forms_no_gibbs_state(tmp_path, monkeypatch):
    # a Chain computes only the fields a run reads: no fifth D x D array
    def refused(spec, beta):
        raise AssertionError("spectrum formed a Gibbs state")

    monkeypatch.setattr(gibbsim.model, "gibbs_state", refused)
    cfg = write_cfg(tmp_path, "spec.cfg", "experiment = spectrum\npoint = CH\nn = 3\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0


CIRCUIT_N3 = (
    "experiment = circuit\npoint = CH\nn = 3\ncircuit.dt_ev = 0.5\ncircuit.dt_oft = 0.2\n"
    "circuit.t_max = 5\ncircuit.n_rep = 2\njumps.count = 4\nseed = 0\n"
)
EVOLVE_N3 = "experiment = evolve\npoint = CH\nn = 3\nsolver.t_max = 5\nsolver.n_traj = 2\n"
NOISE_BOUNDS_N3 = (
    "experiment = noise-bounds\npoint = CH\nn = 3\njumps.count = 10\n"
    "solver.t_max = 400\nsolver.n_traj = 5\nseed = 5\n"
)
GAP_N3 = "experiment = gap-scan\npoint = CH\ngrid.n = 3\ngrid.jumps = 5\n"
CHAOS_N3 = "experiment = chaos-scan\nn = 3\ngrid.h = 0.5\ngrid.m = 0.4\n"
CIRCUIT_N1 = CIRCUIT_N3.replace("n = 3", "n = 1") + "jumps.k = 1\n"
ERROR_FIT_N1 = (
    "experiment = error-fit\npoint = CH\nn = 1\njumps.k = 1\ncircuit.t_max = 5\n"
    "circuit.n_rep = 2\njumps.count = 4\nseed = 0\n"
)
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
    "solver.herm_tol.inf": EVOLVE_N3 + "solver.herm_tol = inf\n",
    "solver.max_steps": EVOLVE_N3 + "solver.max_steps = -1\n",
    "solver.stop_below.nan": EVOLVE_N3 + "solver.stop_below = nan\n",
    "solver.stop_below.inf": EVOLVE_N3 + "solver.stop_below = inf\n",
    "evolve.eps.nan": EVOLVE_N3 + "eps = nan\n",
    "evolve.eps.inf": EVOLVE_N3 + "eps = inf\n",
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
    # the energy window of a spectrum at +-J, or of two levels, holds no state
    "chaos-scan.empty-window": "experiment = chaos-scan\nn = 2\ngrid.h = 0\ngrid.m = 0\n",
    "chaos-scan.n1": CHAOS_N3.replace("n = 3", "n = 1"),
    "spectrum.beta": "experiment = spectrum\npoint = CH\nn = 3\nbeta = nan\n",
    "evolve.beta": EVOLVE_N3 + "beta = nan\n",
    "spectrum.J": "experiment = spectrum\npoint = CH\nn = 3\nJ = nan\n",
    "gap-scan.grid.n": "experiment = gap-scan\npoint = CH\ngrid.n = 3 0\n",
    "circuit.noise.n1": CIRCUIT_N1 + "noise.kind = depolarizing_budget\nnoise.lambda_g = 0.001\n",
    "circuit-noise.n1": CIRCUIT_NOISE_N1,
    # dt_ev = 0.5 is outside the error model's domain, so no grid point is usable
    "error-fit.usable": ERROR_FIT_N1 + "grid.dt_ev = 0.5\ngrid.dt_oft = 0.2\n",
    "gap-scan.allow_large": GAP_N3 + "allow_large = maybe\n",
    # a named point sets h and m
    "evolve.point.h": EVOLVE_N3 + "h = 5\n",
    "gap-scan.point.m": GAP_N3 + "m = 5\n",
    # a key that the experiment does not read: a misspelling, the scans'
    # jumps.count (grid.jumps sets their jump counts) and error-fit's noise
    # keys (it always runs noiseless)
    "solver.tmax": EVOLVE_N3 + "solver.tmax = 5\n",
    "jumps.cout": EVOLVE_N3 + "jumps.cout = 0\n",
    "gap-scan.jumps.count": GAP_N3 + "jumps.count = 0\n",
    "accuracy-scan.jumps.count": "experiment = accuracy-scan\npoint = CH\nn = 3\njumps.count = 5\n",
    "error-fit.noise.kind": ERROR_FIT_N1 + "noise.kind = depolarizing_budget\n",
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
        ("experiment = spectrum\npoint = CH\nn = 20\n", 3, ()),
        ("experiment = spectrum\npoint = CH\nn = 40\n", 3, ()),
        ("experiment = chaos-scan\nn = 40\n", 3, ()),
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
        "spectrum.n20", "spectrum.n40", "chaos-scan.n40",
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
    # an unknown key is refused before the out dir is made
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "key",
    [
        "gap-scan.grid.n", "circuit.noise.n1", "circuit-noise.n1", "error-fit.usable",
        "chaos-scan.empty-window", "gap-scan.allow_large", "evolve.point.h", "gap-scan.point.m",
        "solver.tmax", "jumps.cout", "gap-scan.jumps.count", "accuracy-scan.jumps.count",
        "error-fit.noise.kind",
    ],
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
        "chaos-scan.empty-window": "h/J = 0.0, m/J = 0.0",
        "gap-scan.allow_large": "'allow_large': 'maybe'",
        "evolve.point.h": "h given beside point = CH",
        "gap-scan.point.m": "m given beside point = CH",
        "solver.tmax": "evolve reads no key 'solver.tmax'; did you mean 'solver.t_max'?",
        "jumps.cout": "evolve reads no key 'jumps.cout'; did you mean 'jumps.count'?",
        "gap-scan.jumps.count": "gap-scan reads no key 'jumps.count'",
        "accuracy-scan.jumps.count": "accuracy-scan reads no key 'jumps.count'",
        "error-fit.noise.kind": "error-fit reads no key 'noise.kind'",
    }[key]
    assert named in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_chaos_scan_index_window_runs_at_one_qubit(tmp_path):
    # the index window keeps both states of a two-level spectrum
    text = CHAOS_N3.replace("n = 3", "n = 1") + "window_kind = index\n"
    cfg = write_cfg(tmp_path, "chaos.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    row = (out / "heatmap.csv").read_text().splitlines()[-1]
    assert np.all(np.isfinite([float(x) for x in row.split(",")]))


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


@pytest.mark.parametrize("text", ["1", "true", "Yes", "ON", "0", "FALSE", "no", "Off"])
def test_bool_keys_accept_their_spellings(text):
    expected = text.lower() in ("1", "true", "yes", "on")
    key = EXPERIMENTS["gap-scan"][1]["allow_large"]
    assert key.kind is bool and key.read("allow_large", {"allow_large": text}) is expected


@pytest.mark.parametrize(
    "earlier, failing, message",
    [
        (NOISE_BOUNDS_N3, NOISE_BOUNDS_N3 + "solver.t_max = 1\n", "never decays"),
        (EVOLVE_N3, EVOLVE_N3 + "solver.herm_tol = 1e-30\n", "halvings"),
    ],
    ids=["noise-bounds.insufficient-decay", "evolve.step-underflow"],
)
def test_numerical_failure_leaves_earlier_run_unchanged(
    tmp_path, capsys, earlier, failing, message
):
    # exit 1 on a valid config, after the evolution ran, writes nothing; both
    # runs take the propagator step at n = 3, whose gate still halves to the floor
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, "earlier.cfg", earlier), "--out-dir", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(["run", write_cfg(tmp_path, "failing.cfg", failing), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_misspelled_keys_exit_2_before_any_work(tmp_path, capsys):
    # the config of a run that used to exit 0 with every misspelled key read as absent
    text = EVOLVE_N3 + "solver.tmax = 1\njumps.cout = 0\nsolver.n_trj = 3\n"
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, "run.cfg", text), "--out-dir", str(out)]) == 2
    assert "evolve reads no key 'jumps.cout'; did you mean 'jumps.count'?" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, code",
    [
        (EVOLVE_N3 + "jumps.count = 0\n", 2),
        (EVOLVE_N3 + "solver.herm_tol = 1e-30\n", 1),
        ("experiment = spectrum\npoint = CH\nn = 20\n", 3),
    ],
    ids=["config-error", "step-underflow", "ceiling"],
)
def test_failed_run_makes_no_out_dir(tmp_path, text, code):
    # the out dir is made only when the artifacts are written
    out = tmp_path / "od" / "new"
    assert main(["run", write_cfg(tmp_path, "run.cfg", text), "--out-dir", str(out)]) == code
    assert not (tmp_path / "od").exists()


# A small base config per experiment (n <= 3, short horizon).  Step counts
# are capped too, so that a key left empty, which takes its default, still
# runs briefly.
BASE_CONFIGS = {
    "spectrum": "point = CH\nn = 3\n",
    "chaos-scan": "n = 3\ngrid.h = 0.5\ngrid.m = 0.4\n",
    "evolve": "point = CH\nn = 3\njumps.count = 4\nsolver.t_max = 5\nsolver.max_steps = 100\n"
    "solver.n_traj = 2\nsolver.grid_points = 20\n",
    "noise-bounds": "point = CH\nn = 3\njumps.count = 6\nsolver.t_max = 200\n"
    "solver.max_steps = 2000\nsolver.n_traj = 2\n",
    "gap-scan": "point = CH\ngrid.n = 3\ngrid.jumps = 5\n",
    "accuracy-scan": "point = CH\nn = 3\ngrid.jumps = 5\n",
    "circuit": "point = CH\nn = 3\ncircuit.dt_ev = 0.5\ncircuit.dt_oft = 0.2\ncircuit.t_max = 5\n"
    "circuit.n_rep = 2\njumps.count = 4\n",
    "circuit-noise": "point = CH\nn = 3\ncircuit.dt_oft = 0.2\ncircuit.t_max = 5\n"
    "circuit.n_rep = 2\njumps.count = 4\ngrid.dt_ev = 1.0\ngrid.lambda_g = 1e-4\n",
    "error-fit": "point = CH\nn = 2\ncircuit.t_max = 5\ncircuit.n_rep = 2\njumps.count = 4\n"
    "grid.dt_ev = 0.05 0.1\ngrid.dt_oft = 0.1 0.2\n",
}
PROBE_VALUES = ["nan", "inf", "-1", "0", "1", "1e400", "x", "", "1e12", "1000000000000"]
CEILING_KEYS = {"n", "grid.n", "allow_large"}  # the keys whose value may exit 3
SIZE_VALUES = {"1e12", "1000000000000"}  # the values that may exit 3 at any key


def distances(path):
    """The trace distances of a distances CSV: every column after `t`."""
    rows = path.read_text().splitlines()[2:]
    return np.array([[float(x) for x in row.split(",")[1:]] for row in rows])


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_base_configs_run(tmp_path, experiment):
    text = f"experiment = {experiment}\n" + BASE_CONFIGS[experiment]
    assert main(["run", write_cfg(tmp_path, "run.cfg", text), "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("experiment", sorted(BASE_CONFIGS))
def test_manifest_reruns_reproduce_outputs(tmp_path, experiment):
    text = f"experiment = {experiment}\n{BASE_CONFIGS[experiment]}seed = 7\n"
    out1 = tmp_path / "first"
    assert main(["run", write_cfg(tmp_path, "run.cfg", text), "--out-dir", str(out1)]) == 0
    out2 = tmp_path / "from_manifest"
    assert main(["run", str(out1 / "manifest.txt"), "--out-dir", str(out2)]) == 0
    first, rerun = (
        {path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.txt"}
        for out in (out1, out2)
    )
    assert first == rerun
    # the re-run's manifest differs only in its out_dir line: one artifact_version line too
    first, rerun = (
        [line for line in (out / "manifest.txt").read_text().splitlines() if "out_dir" not in line]
        for out in (out1, out2)
    )
    assert first == rerun


REQUIRED_VALUES = {"n": "3", "circuit.dt_ev": "0.5", "circuit.dt_oft": "0.2"}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_manifest_names_every_resolved_key(tmp_path, monkeypatch, experiment):
    # a config with only the required keys (and `point`): the manifest
    # names every key of the table that has a value, and reading it back
    # resolves every key to the same value; the experiment itself is
    # stubbed, since only the manifest is looked at
    _, table = EXPERIMENTS[experiment]
    monkeypatch.setitem(EXPERIMENTS, experiment, (lambda model, v, threads: {}, table))
    lines = [f"experiment = {experiment}"] + ["point = CH"] * ("point" in table)
    lines += [f"{k} = {REQUIRED_VALUES[k]}" for k, spec in table.items() if spec.default is REQUIRED]
    cfg = write_cfg(tmp_path, "run.cfg", "\n".join(lines) + "\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    manifest = parse_config((tmp_path / "out" / "manifest.txt").read_text())
    written = {"experiment", "out_dir", "artifact_version", "point"} & set(table)
    assert set(manifest) == written | {k for k, spec in table.items() if spec.default is not None}
    assert not {"h", "m"} & set(manifest)
    _, given = resolve(table, parse_config(Path(cfg).read_text() + "seed = 0\n"))
    _, reread = resolve(table, manifest)
    assert {**given, "out_dir": None} == {**reread, "out_dir": None, "artifact_version": None}


@pytest.mark.parametrize(
    "text, address_space",
    [
        ("experiment = evolve\npoint = CH\nn = 3\nsolver.max_steps = 100000000000\n", None),
        (CIRCUIT_N3 + "circuit.t_max = 1e12\n", None),
        (CIRCUIT_N3 + "circuit.T = 1e12\n", None),
        ("experiment = spectrum\npoint = CH\nn = 1000000000000\n", None),
        (CIRCUIT_N3 + "jumps.count = 1000000000000\n", None),
        (GAP_N3 + "grid.jumps = 1000000000000\n", None),
        (EVOLVE_N3 + "jumps.count = 3000000\n", 1_000_000 * 1024),
        (CIRCUIT_N3 + "noise.kind = depolarizing_budget\nnoise.n_g = 1000000000000\n", None),
        ("experiment = evolve\npoint = CH\nn = 3\nsolver.max_steps = 20000000\n", 1_200_000 * 1024),
        (
            "experiment = circuit-noise\npoint = CH\nn = 5\ncircuit.dt_oft = 0.2\n"
            "circuit.t_max = 3000\ngrid.lambda_g = 1e-4\ngrid.dt_ev = 1 1e12\n",
            None,
        ),
        ("experiment = gap-scan\npoint = CH\ngrid.n = 7\nallow_large = true\n", 2_000_000 * 1024),
        (CIRCUIT_N3.replace("circuit.n_rep = 2", "circuit.n_rep = 100000"), 500_000 * 1024),
        (
            "experiment = circuit-noise\npoint = CH\nn = 3\ncircuit.dt_oft = 0.2\n"
            "circuit.t_max = 5\ncircuit.n_rep = 100000\ngrid.lambda_g = 1e-4\ngrid.dt_ev = 1\n",
            500_000 * 1024,
        ),
        (
            CIRCUIT_N3.replace("circuit.n_rep = 2", "circuit.n_rep = 1000").replace(
                "circuit.t_max = 5", "circuit.t_max = 500"
            ),
            12_000 * 1024,
        ),
        (
            "experiment = gap-scan\npoint = CH\ngrid.n = 3 4 5 7\nallow_large = true\n",
            2_000_000 * 1024,
        ),
        (
            "experiment = evolve\npoint = CH\nn = 3\njumps.count = 100\n"
            "solver.max_steps = 110000\n",
            12_000 * 1024,
        ),
        (EVOLVE_N3 + "jumps.count = 100000\n", 1_500_000 * 1024),
    ],
    ids=[
        "evolve.jump-draws", "circuit.jump-draws", "circuit.oft-grid", "spectrum.n",
        "circuit.kraus-pairs", "gap-scan.lindblad-stack", "evolve.lindblad-stack",
        "circuit.depolarizing-draws", "evolve.address-space", "circuit-noise.later-grid-point",
        "gap-scan.real-form", "circuit.state-batch", "circuit-noise.state-batch",
        "circuit.sum-of-parts", "gap-scan.later-grid-point", "evolve.sum-of-parts",
        "evolve.propagators-before-family",
    ],
)
def test_array_beyond_memory_exits_3_at_once(tmp_path, monkeypatch, capsys, text, address_space):
    # jump draws, an OFT grid, a 2^n Hamiltonian, a jump family, noise
    # draws, a gap's real form or a circuit's state batch beyond memory, or
    # beyond an address-space limit as `ulimit -v` sets one: each run
    # refuses them before it allocates or loops over anything, in well
    # under a second; a grid refuses a later point's sizes, or its
    # repetitions' state batch, before its first point runs.  A run's
    # arrays count as one sum: a circuit's 8.0 MB of jump draws and 9.2 MB
    # of state batch, or an evolve run's 8.8 MB of jump draws and 6.7 MB of
    # propagators, each fit in 12,000 KiB, and together they do not; and an
    # evolve run's 6.6 GB of propagators are refused before its 100000
    # Lindblad operators are built
    if address_space is not None:
        limits = (address_space, resource.RLIM_INFINITY)
        monkeypatch.setattr(resource, "getrlimit", lambda _: limits)
    out = tmp_path / "od" / "new"
    start = time.perf_counter()
    assert main(["run", write_cfg(tmp_path, "run.cfg", text), "--out-dir", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("resource ceiling:")
    assert not (tmp_path / "od").exists()


class _PointBudgets(Exception):
    pass


@pytest.mark.parametrize(
    "text",
    [
        "experiment = gap-scan\npoint = CH\ngrid.n = 4\ngrid.jumps = 10 20\n",
        "experiment = circuit-noise\npoint = CH\nn = 3\ncircuit.dt_oft = 0.2\n"
        "circuit.t_max = 5\ncircuit.n_rep = 1000\ngrid.lambda_g = 0 1e-4\ngrid.dt_ev = 1\n",
        "experiment = chaos-scan\nn = 3\ngrid.h = 0.5 0.6\ngrid.m = 0.4\n",
    ],
    ids=["gap-scan", "circuit-noise", "chaos-scan"],
)
def test_threads_check_the_points_they_run_at_once(tmp_path, monkeypatch, capsys, text):
    # --threads K runs K grid points at once, so the K largest point budgets
    # must fit together: under a limit that the larger point fits and the
    # two together do not, two threads exit 3 before any point runs and one
    # thread runs the grid
    cfg = write_cfg(tmp_path, "run.cfg", text)

    def point_budgets(budgets, threads):
        raise _PointBudgets(sorted(sum(parts.values()) for parts in budgets))

    with monkeypatch.context() as patch:
        patch.setattr(gibbsim.cli, "_require_grid_memory", point_budgets)
        with pytest.raises(_PointBudgets) as seen:
            main(["run", cfg])
    smaller, larger = seen.value.args[0]
    limit = larger + smaller // 2
    monkeypatch.setattr(resource, "getrlimit", lambda _: (limit, resource.RLIM_INFINITY))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--threads", "2"]) == 3
    assert capsys.readouterr().err.startswith("resource ceiling:")
    assert not out.exists()
    assert main(["run", cfg, "--out-dir", str(out), "--threads", "1"]) == 0


@pytest.mark.parametrize(
    "experiment, key",
    [(name, key) for name, (_, table) in EXPERIMENTS.items() for key in table],
    ids=[f"{name}.{key}" for name, (_, table) in EXPERIMENTS.items() for key in table],
)
def test_every_key_takes_odd_values_cleanly(tmp_path, experiment, key):
    # generated from the key tables: each value exits 0, 1, 2 or 3 (3 only
    # for a ceiling key or a size value) with no exception escaping main,
    # and without hanging on a size value; a zero exit writes
    # trace distances in [0, 1], and a non-zero exit leaves the non-empty
    # out dir byte for byte as it was
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("an earlier run\n")
    lines = f"experiment = {experiment}\n{BASE_CONFIGS[experiment]}".splitlines()
    base = [line for line in lines if line.split(" = ")[0] != key]
    for value in PROBE_VALUES:
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        cfg = write_cfg(tmp_path, "run.cfg", "\n".join([*base, f"{key} = {value}"]) + "\n")
        code = main(["run", cfg, "--out-dir", str(out)])
        ceiling = key in CEILING_KEYS or value in SIZE_VALUES
        assert code in ((0, 1, 2, 3) if ceiling else (0, 1, 2)), value
        if code:
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before, value
        for name in ("distances.csv", "circuit_distances.csv"):
            if not code and (out / name).exists():
                dist = distances(out / name)
                assert np.all((0 <= dist) & (dist <= 1)), (value, name)


@pytest.mark.parametrize(
    "n, dt_rk0, t_max, extra",
    [
        (3, 1, 3, ""), (3, 1, 6, ""), (4, 0.5, 3, ""), (3, 0.5, 2, ""),
        (3, 3, 20, "solver.herm_tol = 10\n"), (3, 3, 20, "solver.herm_tol = 1e6\n"),
    ],
)
def test_unstable_rk4_step_halves_as_a_long_run_does(tmp_path, n, dt_rk0, t_max, extra):
    # RK4 beyond its stability region gives Hermitian states that are not
    # positive before the Hermiticity gate fires: a short run, or a loose
    # gate, halves to the step of the t_max = 20 run with the default gate
    def halvings(name, text):
        out = tmp_path / name
        cfg = write_cfg(
            tmp_path, f"{name}.cfg",
            f"experiment = evolve\npoint = CH\nn = {n}\nsolver.dt_rk0 = {dt_rk0}\n{text}",
        )
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        assert np.all(distances(out / "distances.csv") <= 1)
        return json.loads((out / "mixing.json").read_text())["halvings"]

    assert halvings("run", f"solver.t_max = {t_max}\n{extra}") == halvings(
        "long", "solver.t_max = 20\n"
    )


@pytest.mark.parametrize(
    "text, artifact",
    [
        (CIRCUIT_N3, "plateau.json"),
        (CIRCUIT_NOISE_N1.replace("n = 1", "n = 3"), "noise_grid.csv"),
    ],
    ids=["circuit", "circuit-noise"],
)
def test_non_finite_output_leaves_earlier_run_unchanged(
    tmp_path, capsys, monkeypatch, text, artifact
):
    # a NaN bound for a JSON or a CSV output exits 1 and writes nothing
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, "earlier.cfg", text), "--out-dir", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert artifact in before
    capsys.readouterr()
    monkeypatch.setattr(gibbsim.cli, "plateau_level", lambda record: float("nan"))
    failing = write_cfg(tmp_path, "failing.cfg", text + "seed = 1\n")
    assert main(["run", failing, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_formatters_refuse_non_finite_values():
    for value in (float("nan"), float("inf"), np.float64(-np.inf)):
        with pytest.raises(GibbsimError):
            csv_text("units", ["x"], [(value,)])
        with pytest.raises(GibbsimError):
            json_text({"x": value})
    # an unconverged mixing time is a JSON null
    assert json_text({"mixing_time": None}) == '{\n  "mixing_time": null\n}\n'


def test_killed_run_leaves_earlier_run_unchanged(tmp_path, monkeypatch):
    # an exception that is no GibbsimError, such as Ctrl-C mid-evolution, writes nothing
    out = tmp_path / "out"
    spectrum = write_cfg(tmp_path, "spec.cfg", "experiment = spectrum\npoint = CH\nn = 3\n")
    assert main(["run", spectrum, "--out-dir", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(gibbsim.cli, "evolve_randomized", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["run", write_cfg(tmp_path, "ev.cfg", EVOLVE_N3), "--out-dir", str(out)])
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def _fresh_python_report(script, *args):
    """Run `script` in a new interpreter with gibbsim on the path; its last
    stdout line, parsed as JSON."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_runs_load_no_scipy(tmp_path):
    # scipy is imported only by mcwf_evolve and the noisefit fits that call
    # it; numpy.ma (which np.unique and np.median import) by none of these
    # runs, one for every experiment that a benchmark workload runs
    configs = {
        "evolve": EVOLVE_N3 + "jumps.count = 4\n",
        "noise-bounds": NOISE_BOUNDS_N3,
        "circuit": CIRCUIT_N3,
        "circuit-noise": CIRCUIT_NOISE_N1.replace("n = 1\njumps.k = 1\n", "n = 3\n"),
        "gap-scan": "experiment = gap-scan\npoint = CH\ngrid.n = 3\ngrid.jumps = 5\n",
        "accuracy-scan": "experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = 5\n",
        "spectrum": "experiment = spectrum\npoint = CH\nn = 3\n",
        "chaos-scan": CHAOS_N3,
    }
    argvs = [
        ["run", write_cfg(tmp_path, f"{name}.cfg", text), "--out-dir", str(tmp_path / name)]
        for name, text in configs.items()
    ]
    script = (
        "import json, sys\n"
        "from gibbsim.cli import main\n"
        "codes, ma = [], []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    codes.append(main(argv))\n"
        "    ma.append('numpy.ma' in sys.modules)\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded, 'numpy.ma': ma}))\n"
    )
    report = _fresh_python_report(script, json.dumps(argvs))
    runs = len(configs)
    assert report == {"codes": [0] * runs, "scipy": [], "numpy.ma": [False] * runs}


def test_import_cli_loads_no_thread_pool():
    # concurrent.futures (and the logging it imports) serve --threads > 1 only
    script = (
        "import json, sys\n"
        "import gibbsim.cli\n"
        "print(json.dumps(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules)))\n"
    )
    assert _fresh_python_report(script) == []


def test_run_paths_build_no_kronecker_product(tmp_path, monkeypatch):
    # Chain Hamiltonians and Pauli strings are built from basis-state bits.
    # chaos-scan is exempt: its Pauli-product eigenbasis is a dense kron of
    # 2x2 unitaries, about 1 ms at n = 8.
    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called on a run path")

    monkeypatch.setattr(np, "kron", no_kron)
    configs = {
        "evolve": EVOLVE_N3 + "jumps.count = 4\n",
        "noise-bounds": NOISE_BOUNDS_N3,
        "circuit": CIRCUIT_N3,
        "circuit-noise": CIRCUIT_NOISE_N1.replace("n = 1\njumps.k = 1\n", "n = 3\n"),
        "gap-scan": "experiment = gap-scan\npoint = CH\ngrid.n = 3\ngrid.jumps = 5\n",
        "accuracy-scan": "experiment = accuracy-scan\npoint = CH\nn = 3\ngrid.jumps = 5\n",
        "spectrum": "experiment = spectrum\npoint = CH\nn = 3\n",
    }
    for name, text in configs.items():
        cfg = write_cfg(tmp_path, f"{name}.cfg", text)
        assert main(["run", cfg, "--out-dir", str(tmp_path / name)]) == 0, name


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
    "fractal_dimension": "the per-state D_1 that fractal_stats averages",
    "evolve_exact": "the exact reference the solver tests compare with",
}


def test_every_public_name_is_used():
    # A name exported by gibbsim must be read by the code of another module
    # of the package or of the acceptance criteria (a name or an attribute,
    # not a word in prose), be a class that a used function of its module
    # builds, or be kept above with a reason.
    package = Path(gibbsim.__file__).parent
    exported = {
        alias.name: node.module
        for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = {path.stem: path.read_text() for path in package.glob("*.py")}

    def names_read(text):
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Name, ast.Attribute))
        }

    acceptance = names_read((Path(__file__).parent / "test_acceptance.py").read_text())
    read_by = {stem: names_read(text) for stem, text in sources.items()}

    def used(name, module):
        others = [names for stem, names in read_by.items() if stem not in (module, "__init__")]
        return any(name in names for names in [acceptance, *others])

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


def test_no_einsum_in_the_package_takes_three_operands():
    # an einsum of three or more operands runs unoptimized as nested C
    # loops; a product of stacked operators goes through BLAS instead
    package = Path(gibbsim.__file__).parent
    wide = [
        f"{path.name}:{call.lineno}"
        for path in sorted(package.glob("*.py"))
        for call in ast.walk(ast.parse(path.read_text()))
        if isinstance(call, ast.Call)
        and (getattr(call.func, "attr", None) or getattr(call.func, "id", None)) == "einsum"
        and len(call.args) - 1 > 2
    ]
    assert wide == []


def test_no_call_in_the_package_passes_fortran_order():
    # the package has one vectorization, numpy's C order (`liouville`'s
    # module docstring); a column-stacked reshape would be a second
    package = Path(gibbsim.__file__).parent
    fortran = [
        f"{path.name}:{call.lineno}"
        for path in sorted(package.glob("*.py"))
        for call in ast.walk(ast.parse(path.read_text()))
        if isinstance(call, ast.Call)
        and any(
            kw.arg == "order" and isinstance(kw.value, ast.Constant) and kw.value.value == "F"
            for kw in call.keywords
        )
    ]
    assert fortran == []


# The functions that may check a run's memory: each library entry point
# once (the RK4 solvers once per attempt, in `_evolve_with_halving`), and
# the CLI's checks of an evolve run before its jump family and of a grid
# before its first point.  A helper that checked the arrays it allocates
# would check them alone, not as parts of its run's sum.
MEMORY_CHECKS = [
    "circuit.require_protocol_memory",
    "cli._evolve",
    "cli._require_grid_memory",
    "dynamics._evolve_with_halving",
    "dynamics.mcwf_evolve",
    "liouville.build_superop",
    "liouville.steady_state_and_gap",
    "model.build_hamiltonian",
]


def test_only_the_entry_points_check_memory():
    # one require_memory call in each function above and in no other, so
    # jump_draws, _run_batched, ProtocolEngine and _jump_family never check
    # their own arrays
    package = Path(gibbsim.__file__).parent
    callers = []

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_ClassDef = visit_scope

        def visit_Call(self, call):
            name = getattr(call.func, "attr", None) or getattr(call.func, "id", None)
            if name == "require_memory":
                callers.append(".".join(self.scope))
            self.generic_visit(call)

    for path in sorted(package.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text()))
    assert sorted(callers) == MEMORY_CHECKS
