"""Library invariant sweep: the three solvers, the circuit's Kraus pairs and
noise channels, and the gap, on seeded random small configs.

`sweep_configs` draws the configs with plain numpy.  `measure` runs one and
returns the worst value it sees of each invariant, and the test holds every
value to its bound in `BOUNDS`.
"""

import numpy as np
import pytest

import gibbsim as gs
from gibbsim.circuit import CircuitConfig, NoiseSpec, ProtocolEngine, apply_noise
from gibbsim.dynamics import POSITIVITY_TOL
from gibbsim.errors import NonUniqueSteadyState
from gibbsim.model import RK_STEP_TABLE

# The worst value each invariant may take: a defect (|Tr rho - 1|,
# max|rho - rho^dag|, -lambda_min, ...) or, for `distance_outside`, how far
# a distance lies outside [0, 1] (negative inside).
BOUNDS = {
    "state_trace": 1e-12,  # every kept trajectory state of the three solvers
    "state_hermiticity": 1e-12,
    "state_negativity": POSITIVITY_TOL,
    "avg_above_max": 1e-12,  # averaged distance over the largest per-trajectory one
    "distance_outside": 0.0,
    "kraus_completeness": 1e-12,  # max|sum_m K_m^dag K_m - I|, every jump, both modes
    "noise_trace": 1e-12,  # apply_noise on pure, mixed and Gibbs states
    "noise_negativity": 1e-12,
    "steady_trace": 1e-12,
    "steady_hermiticity": 1e-12,
    "steady_negativity": 1e-10,
    "zero_count_off": 0,  # |zero_count - the zero modes of S's complex spectrum|
    "markov_row_sum": 1e-12,  # max|sum_j q_ij| over max|q|
}


def sweep_configs(count=40, seed=20261020):
    """`count` small configs: a named point or random (h, m), J, beta, n <= 4,
    k, the jump count, and the table step dt_rk0 times 0.5, 1 or 2."""
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(count):
        n = int(rng.integers(2, 5))
        j = float(rng.choice([0.5, 1.0, 2.0]))
        point = str(rng.choice(list(gs.NAMED_POINTS))) if rng.random() < 0.5 else None
        h, m = gs.NAMED_POINTS[point] if point else rng.uniform(0.0, 3.0, 2)
        configs.append({
            "id": i, "n": n, "J": j, "point": point, "h": float(h), "m": float(m),
            "beta": float(rng.uniform(0.2, 2.0)) / j,
            "k": int(rng.integers(1, n + 1)),
            "jumps": int(rng.integers(2, 9)),
            "dt_rk0": RK_STEP_TABLE.get(point, {}).get(n, 0.1) / j * float(rng.choice([0.5, 1, 2])),
            "dt_ev": float(rng.uniform(0.1, 1.0)),
            "dt_oft": float(rng.uniform(0.1, 0.4)),
            "lam": float(rng.uniform(0.0, 1.0)),
        })
    return configs


def _state_defects(states):
    """Trace, Hermiticity and negativity defects of a (..., D, D) stack."""
    herm = 0.5 * (states + states.conj().swapaxes(-1, -2))
    return {
        "state_trace": np.max(np.abs(np.einsum("...ii->...", states) - 1.0)),
        "state_hermiticity": np.max(np.abs(states - states.conj().swapaxes(-1, -2))),
        "state_negativity": -np.min(np.linalg.eigvalsh(herm)),
    }


def _worst(a, b):
    return {key: max(a.get(key, -np.inf), b.get(key, -np.inf)) for key in a.keys() | b.keys()}


def measure(c):
    """The worst value of each invariant over the config's runs."""
    params = gs.IsingParams(n=c["n"], J=c["J"], h=c["h"] * c["J"], m=c["m"] * c["J"])
    chain = gs.Chain(params, c["beta"])
    jump_set = gs.sample_jump_set(c["n"], c["k"], c["jumps"], c["id"])
    lindblads = np.stack(
        [gs.lindblad_op_exact(a, chain.spec, c["beta"], chain.bohr) for a in jump_set]
    )
    gammas = np.full(c["jumps"], 1.0 / c["jumps"])
    rho0, dim = gs.maximally_mixed(c["n"]), chain.spec.dim
    worst = {}

    solver = gs.SolverConfig(
        dt_rk0=c["dt_rk0"], n_traj=3, t_max=2.0 / c["J"], grid_points=8, state_blocks=3,
        seed=c["id"],
    )
    for record in (
        gs.evolve_randomized(chain.ham, lindblads, rho0, solver, chain.sigma),
        gs.evolve_exact(chain.ham, lindblads, gammas, rho0, solver, chain.sigma),
        gs.mcwf_evolve(chain.ham, lindblads, gammas, None, solver, chain.sigma),
    ):
        dist = np.concatenate([record.per_traj_distance.ravel(), record.avg_distance])
        worst = _worst(worst, {
            **_state_defects(record.traj_states),
            "avg_above_max": np.max(record.avg_distance - record.per_traj_distance.max(axis=0)),
            "distance_outside": max(-np.min(dist), np.max(dist) - 1.0),
        })

    eye = np.eye(dim)
    for mode in ("exact", "trotter2"):
        cfg = CircuitConfig(
            dt_ev=c["dt_ev"], dt_oft=c["dt_oft"], jump_count=c["jumps"], k=c["k"], seed=c["id"],
            coherent_mode=mode, r_delta=2, r_big=2,
        )
        kraus = ProtocolEngine(chain, cfg).kraus
        completeness = np.einsum("jmab,jmac->jbc", kraus.conj(), kraus) - eye
        worst = _worst(worst, {"kraus_completeness": np.max(np.abs(completeness))})

    rng = np.random.default_rng(c["id"])
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    mixed = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mixed = mixed @ mixed.conj().T
    states = np.stack([np.outer(psi, psi.conj()), mixed / np.trace(mixed).real, chain.sigma])
    noises = [
        (NoiseSpec("global_stochastic", lam=c["lam"]), (), 0),
        (NoiseSpec("depolarizing_budget", lambda_g=c["lam"]),
         [np.random.default_rng([c["id"], r]) for r in range(3)], 5),
    ]
    for noise, rngs, n_g in noises:
        defects = _state_defects(apply_noise(states, noise, rngs, n_g))
        worst = _worst(worst, {
            "noise_trace": defects["state_trace"], "noise_negativity": defects["state_negativity"],
        })

    mc = gs.markov_restriction(chain.spec, lindblads, gammas, chain.sigma)
    worst["markov_row_sum"] = np.max(np.abs(mc.q.sum(axis=1))) / np.max(np.abs(mc.q))
    # the zero modes of S's complex spectrum, by the gap's own tolerance rule
    evals = np.linalg.eigvals(gs.build_superop(chain.ham, lindblads, gammas))
    zero_tol = max(1e-9 * np.max(np.abs(evals.real)), 1e-12 * np.max(np.abs(evals)))
    zero_modes = int(np.sum(np.abs(evals) < zero_tol))
    try:
        gap = gs.steady_state_and_gap(chain.ham, lindblads, gammas)
    except NonUniqueSteadyState as exc:
        # a symmetry of H and the jumps, or rates below the zero tolerance:
        # refused only when S has as many zero modes, and more than one
        worst["zero_count_off"] = abs(exc.zero_count - zero_modes) if zero_modes > 1 else np.inf
        return worst
    defects = _state_defects(gap.steady_state)
    return _worst(worst, {
        "steady_trace": defects["state_trace"],
        "steady_hermiticity": defects["state_hermiticity"],
        "steady_negativity": defects["state_negativity"],
        "zero_count_off": abs(gap.zero_count - zero_modes),
    })


@pytest.mark.parametrize("config", sweep_configs(), ids=lambda c: f"cfg{c['id']:02d}")
def test_library_invariants_hold(config):
    # a generator with more than one steady state has no steady-state rows
    worst = measure(config)
    steady = {"steady_trace", "steady_hermiticity", "steady_negativity"}
    assert worst.keys() | steady == BOUNDS.keys()
    broken = {key: value for key, value in worst.items() if not value <= BOUNDS[key]}
    assert broken == {}, config
