import inspect
import math
import re
import resource
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import gibbsim as gs
from gibbsim.circuit import CircuitConfig, NoiseSpec
from gibbsim.cli import _distances_csv
from gibbsim import dynamics
from gibbsim.dynamics import (
    JUMP_PROB_CAP, PROPAGATOR_MAX_DIM, STREAM_BYTES, _taylor4_propagators, jump_draws,
)
from gibbsim.errors import ResourceCeiling, StepUnderflow
from gibbsim.model import RK_STEP_TABLE

from conftest import BETA, apply_lindbladian, gap_setup, lindblad_setup, point_setup


# ------------------------------------------------------------------ rk4 core
def test_rk4_zero_generator_is_identity(rng):
    rho = np.eye(4) / 4
    out = gs.rk4_step(rho, lambda r: np.zeros_like(r), 0.1)
    assert np.array_equal(out, rho)


def test_rk4_fourth_order_on_coherent_evolution(rng):
    setup = point_setup("CH", 3)
    ham, spec = setup["ham"], setup["spec"]
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    rho0 = np.outer(v, v.conj())

    def propagate(dt, t_final=1.0):
        rho = rho0.copy()
        gen = lambda r: -1j * (ham @ r - r @ ham)
        for _ in range(int(round(t_final / dt))):
            rho = gs.rk4_step(rho, gen, dt)
        return rho

    u = gs.expm_phase(spec, 1.0)
    exact = u @ rho0 @ u.conj().T
    coarse = np.max(np.abs(propagate(0.02) - exact))
    fine = np.max(np.abs(propagate(0.01) - exact))
    assert 16 * 0.7 <= coarse / fine <= 16 * 1.3


def test_rk4_amplitude_damping_closed_form():
    gamma = 1.3
    lower = np.sqrt(gamma) * np.array([[0, 1], [0, 0]], dtype=complex)

    def gen(r):
        ldl = lower.conj().T @ lower
        return lower @ r @ lower.conj().T - 0.5 * (ldl @ r + r @ ldl)

    rho = np.diag([0.0, 1.0]).astype(complex)
    dt = 1e-3 / gamma
    steps = 2000
    for _ in range(steps):
        rho = gs.rk4_step(rho, gen, dt)
    assert abs(rho[1, 1].real - np.exp(-gamma * dt * steps)) < 1e-6


def test_rk4_trace_preserved_per_step(rng):
    setup = lindblad_setup("CH", 3, 5)
    L = setup["lindblads"][0]
    ldl = L.conj().T @ L
    ham = setup["ham"]

    def gen(r):
        out = -1j * (ham @ r - r @ ham)
        return out + L @ r @ L.conj().T - 0.5 * (ldl @ r + r @ ldl)

    rho = gs.maximally_mixed(3)
    out = gs.rk4_step(rho, gen, 0.05)
    assert abs(np.trace(out).real - 1.0) < 1e-8


# -------------------------------------------------------------- randomized
def test_identity_jump_set_keeps_state_constant():
    setup = point_setup("CH", 3)
    sigma = setup["sigma"]
    cfg = gs.SolverConfig(dt_rk0=0.1, n_traj=3, t_max=5.0, seed=0, grid_points=10)
    eta0 = float(gs.filter_freq(BETA, 0.0))
    ident = eta0 * np.eye(8)[None]
    rec = gs.evolve_randomized(np.zeros((8, 8)), ident, sigma, cfg, sigma)
    assert rec.halvings == 0
    assert np.max(rec.avg_distance) < 1e-10


def test_determinism_bit_identical():
    setup = lindblad_setup("CH", 3, 10)
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=4, t_max=10.0, seed=42, grid_points=20)
    args = (setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3), cfg, setup["sigma"])
    rec1 = gs.evolve_randomized(*args)
    rec2 = gs.evolve_randomized(*args)
    assert np.array_equal(rec1.avg_distance, rec2.avg_distance)
    assert np.array_equal(rec1.per_traj_distance, rec2.per_traj_distance)


def test_trajectory_count_extension_preserves_streams():
    setup = lindblad_setup("CH", 3, 10)
    base = dict(dt_rk0=0.25, t_max=10.0, seed=42, grid_points=20)
    rec4 = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3),
        gs.SolverConfig(n_traj=4, **base), setup["sigma"],
    )
    rec6 = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3),
        gs.SolverConfig(n_traj=6, **base), setup["sigma"],
    )
    assert np.array_equal(rec6.per_traj_distance[:4], rec4.per_traj_distance)


def test_convexity_of_averaged_distance():
    setup = lindblad_setup("CH", 3, 10)
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=6, t_max=20.0, seed=7, grid_points=40)
    rec = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3), cfg, setup["sigma"],
    )
    worst = np.max(rec.per_traj_distance, axis=0)
    assert np.all(rec.avg_distance <= worst + 1e-12)


def test_step_underflow_raised():
    setup = lindblad_setup("CH", 3, 5)
    cfg = gs.SolverConfig(
        dt_rk0=0.4, n_traj=2, t_max=5.0, seed=0, herm_tol=1e-300, grid_points=5
    )
    with pytest.raises(StepUnderflow):
        gs.evolve_randomized(
            setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3), cfg, setup["sigma"],
        )


def _six_product_rk4(ham, l_ops, gamma, coherent, rho0, dt, draws):
    """States of every trajectory under L rho L^dag - (1/2){L^dag L, rho},
    scaled by gamma, plus -i[H, rho]: the generator written out term by term,
    followed by the solver's symmetrization and renormalization."""
    out = []
    for sels in draws:
        rho = rho0.astype(complex)
        states = [rho]
        for sel in sels:
            L = l_ops[sel]
            ldl = L.conj().T @ L

            def gen(r):
                g = L @ (r @ L.conj().T) - 0.5 * (ldl @ r + r @ ldl)
                g = g * gamma
                if coherent:
                    g = g + -1j * (ham @ r - r @ ham)
                return g

            rho = gs.rk4_step(rho, gen, dt)
            rho = 0.5 * (rho + rho.conj().T)
            rho = rho / np.trace(rho).real
            states.append(rho)
        out.append(states)
    return np.array(out)


@pytest.mark.parametrize("coherent", [True, False])
@pytest.mark.parametrize("gamma", [1.0])
@pytest.mark.parametrize("n", [3, 5])
def test_randomized_generator_matches_six_product_oracle(n, gamma, coherent):
    # coherent=False runs the dissipator alone, with a zero Hamiltonian; the
    # randomized scheme runs each sampled jump at the oracle's unit rate
    setup = lindblad_setup("CH", n, 10)
    cfg = gs.SolverConfig(
        dt_rk0=0.1, n_traj=3, t_max=1.5, seed=4, grid_points=0, state_blocks=3
    )
    ham = setup["ham"] if coherent else np.zeros_like(setup["ham"])
    rec = gs.evolve_randomized(
        ham, list(setup["lindblads"]), gs.maximally_mixed(n), cfg, setup["sigma"]
    )
    assert rec.halvings == 0
    n_steps = rec.meta["n_steps"]
    draws = [np.random.default_rng([cfg.seed, i]).integers(0, 10, size=n_steps) for i in range(3)]
    l_ops = np.stack(setup["lindblads"])
    oracle = _six_product_rk4(
        setup["ham"], l_ops, gamma, coherent, gs.maximally_mixed(n), 0.1, draws
    )
    assert rec.traj_states.shape == oracle.shape
    assert np.max(np.abs(rec.traj_states - oracle)) <= 1e-12


@pytest.mark.parametrize("coherent", [True, False])
def test_exact_generator_matches_einsum_oracle(rng, coherent):
    setup = lindblad_setup("CH", 3, 10)
    ls = list(setup["lindblads"])
    gammas = rng.uniform(0.02, 0.2, len(ls))
    cfg = gs.SolverConfig(dt_rk0=0.2, n_traj=1, t_max=4.0, grid_points=0, state_blocks=1)
    ham = setup["ham"]
    rec = gs.evolve_exact(
        ham if coherent else np.zeros_like(ham), ls, gammas, gs.maximally_mixed(3), cfg,
        setup["sigma"],
    )
    l_ops = np.stack(ls)
    l_weighted = gammas[:, None, None] * l_ops
    decay = np.einsum("a,aij,ajk->ik", gammas, l_ops.conj().transpose(0, 2, 1), l_ops)

    def gen(r):
        out = np.einsum("aij,jk,alk->il", l_weighted, r, l_ops.conj())
        out -= 0.5 * (decay @ r + r @ decay)
        if coherent:
            out += -1j * (ham @ r - r @ ham)
        return out

    rho = gs.maximally_mixed(3).astype(complex)
    for j in range(1, rec.meta["n_steps"] + 1):
        rho = gs.rk4_step(rho, gen, 0.2)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        assert np.max(np.abs(rec.traj_states[0, j] - rho)) <= 1e-12


def test_fused_recording_equals_separate_distance_calls():
    setup = lindblad_setup("CH", 4, 10)
    cfg = gs.SolverConfig(
        dt_rk0=0.2, n_traj=5, t_max=3.0, seed=2, grid_points=0, state_blocks=5
    )
    rec = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(4), cfg, setup["sigma"],
    )
    for j in range(len(rec.times)):
        per = gs.trace_distance(rec.traj_states[:, j], setup["sigma"])
        assert np.array_equal(rec.per_traj_distance[:, j], per)
        avg = rec.traj_states[:, j].mean(axis=0)
        avg = 0.5 * (avg + avg.conj().transpose())
        assert rec.avg_distance[j] == gs.trace_distance(avg, setup["sigma"])


def test_hermiticity_gate_halves_an_unstable_step():
    # X + X^dag is Hermitian element for element, so the gate now sees the
    # roundoff of the jump term and of the RK4 sums; beyond the stability
    # limit RK4 amplifies that roundoff until the gate fires
    setup = lindblad_setup("CH", 3, 10)
    cfg = gs.SolverConfig(dt_rk0=2.0, n_traj=2, t_max=40.0, seed=1)
    rec = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3), cfg, setup["sigma"],
    )
    assert rec.halvings == 3
    assert rec.final_dt_rk == pytest.approx(0.25)


@pytest.mark.parametrize(
    "n, n_traj, propagators, headroom",
    [(6, 10, False, 1), (4, 10, False, 2), (3, 40, True, 2)],
    ids=["n6-rk4", "n4-rk4", "n3-propagators"],
)
def test_randomized_footprint_is_bounded_by_its_arrays(n, n_traj, propagators, headroom):
    # Traced peak of one call at CH n with 20 jumps, grid every step: the
    # step's arrays, the grid record's two (R + 1)-matrix buffers (the
    # difference and its conjugate, whose first R matrices the step
    # borrows) and `headroom` batches.
    # - The staged RK4 step (D > PROPAGATOR_MAX_DIM) holds the A stack and
    #   five batch arrays it reuses: rho, one k, L[sel], A[sel] and the
    #   generator's temporary.  n = 4 pins the selection edge.
    # - The propagator step holds the (J, D^2, D^2) stack and rho, so an
    #   RK4 array on its path would break the bound.  The two D^2 x D^2
    #   work arrays of its build are freed before the run; at R = 40 they
    #   fit in the run's share.
    # The record's eigvalsh temporaries measured R + 1 matrices at n = 3 and
    # 4 (two at n = 6), so those cases get a second batch.
    setup = lindblad_setup("CH", n, 20)
    dim = 2**n
    assert (dim <= PROPAGATOR_MAX_DIM) == propagators
    cfg = gs.SolverConfig(dt_rk0=0.05, n_traj=n_traj, t_max=0.2, grid_points=0)
    matrix = dim * dim * 16
    tracemalloc.start()
    try:
        rec = gs.evolve_randomized(
            setup["ham"], setup["lindblads"], gs.maximally_mixed(n), cfg, setup["sigma"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.meta["n_steps"] == 4 and rec.halvings == 0
    step_arrays = 20 * dim**2 + n_traj if propagators else 20 + 5 * n_traj
    assert peak <= (step_arrays + headroom * n_traj + 2 * (n_traj + 1)) * matrix


# Each entry point's stated sum at CH n = 4 (D = 16), 20 jumps, R = 10
# trajectories in B = R blocks (one of each for the exact solver), over
# 1000 steps and G = 1001 grid points (every step recorded).  Every sum
# holds the record's series, 8 G (R + 2 + 2 B D^2) bytes of times,
# distances and block states, and its two (R + 1)-matrix buffers.
CEILINGS = {
    # beside those, the staged RK4 holds the caller's 20 operators, the
    # A stack and five (R, D, D) arrays, and 8 N bytes of jump draws and a
    # stream for each trajectory
    "run_batched": (
        lambda s, cfg: gs.evolve_randomized(s["ham"], s["lindblads"], s["sigma"], cfg, s["sigma"]),
        8 * 1001 * (10 + 2 + 2 * 10 * 16**2)
        + 16 * 16**2 * (2 * 20 + 5 * 10 + 2 * 11)
        + 10 * (8 * 1000 + STREAM_BYTES),
    ),
    # the operators, their weighted stack, L^dag and two products; A, the
    # state, one k and X
    "evolve_exact": (
        lambda s, cfg: gs.evolve_exact(
            s["ham"], s["lindblads"], s["gammas"], s["sigma"], cfg, s["sigma"]
        ),
        8 * 1001 * (1 + 2 + 2 * 16**2) + 16 * 16**2 * (5 * 20 + 4 + 2 * 2),
    ),
    # the operators and drift_operator's two stacks; H_eff, a propagator
    # and the identity; and per trajectory J + 1 amplitude and state
    # vectors and a stream
    "mcwf_evolve": (
        lambda s, cfg: gs.mcwf_evolve(s["ham"], s["lindblads"], s["gammas"], None, cfg, s["sigma"]),
        8 * 1001 * (10 + 2 + 2 * 10 * 16**2)
        + 16 * (3 * 20 * 16**2 + (2 * 11 + 3) * 16**2)
        + 10 * (16 * 21 * 16 + STREAM_BYTES),
    ),
}


@pytest.mark.parametrize("entry", list(CEILINGS))
def test_solver_arrays_are_checked_before_they_exist(monkeypatch, entry):
    # an address-space limit one byte under the stated sum is refused
    # before the arrays it counts are allocated
    run, nbytes = CEILINGS[entry]
    setup = lindblad_setup("CH", 4, 20)
    cfg = gs.SolverConfig(dt_rk0=0.25, t_max=250.0, grid_points=0, state_blocks=10)
    monkeypatch.setattr(resource, "getrlimit", lambda _: (nbytes - 1, resource.RLIM_INFINITY))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCeiling, match=re.escape(f"needs {nbytes:.3g} bytes")):
            run(setup, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("solver", ["exact", "mcwf"])
def test_a_grid_beyond_memory_is_refused_before_any_array(solver):
    # 10^11 recorded steps of one kept block: the grid is counted, not
    # listed, and the exact solver draws nothing, so the ceiling comes
    # before any step-sized array
    setup = lindblad_setup("CH", 3, 5)
    cfg = gs.SolverConfig(dt_rk0=0.25, max_steps=10**11, grid_points=0, state_blocks=1)
    args = (setup["ham"], setup["lindblads"], setup["gammas"])
    run = {
        "exact": lambda: gs.evolve_exact(*args, gs.maximally_mixed(3), cfg, setup["sigma"]),
        "mcwf": lambda: gs.mcwf_evolve(*args, None, cfg, setup["sigma"]),
    }[solver]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCeiling, match="grid points"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_jump_draws_fill_one_array_from_the_streams():
    # the rows are each stream's one call, as a stack of them would be, and
    # the peak is the array and one row
    rngs = [np.random.default_rng([7, i]) for i in range(10)]
    oracle = np.stack([np.random.default_rng([7, i]).integers(0, 20, 10**4) for i in range(10)])
    draws = jump_draws(rngs, 20, 10**4)
    assert draws.dtype == np.int64 and np.array_equal(draws, oracle)
    n_steps = 10**6
    tracemalloc.start()
    try:
        draws = jump_draws(rngs, 20, n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (10, n_steps)
    assert peak <= 8 * (10 + 1) * n_steps + 64 * 1024


@pytest.mark.parametrize("grid_points", [0, 1, 3, 7, 13, 18])
def test_recorded_times_follow_the_stride_rule(grid_points):
    # the grid of 13 steps: step 0, every stride-th step and the last, the
    # rule the record's index list used to spell out
    setup = lindblad_setup("CH", 3, 5)
    n_steps, dt = 13, 0.25
    cfg = gs.SolverConfig(dt_rk0=dt, n_traj=1, t_max=n_steps * dt, grid_points=grid_points)
    rec = gs.evolve_exact(
        setup["ham"], setup["lindblads"], setup["gammas"], gs.maximally_mixed(3), cfg,
        setup["sigma"],
    )
    assert rec.meta["n_steps"] == n_steps and rec.halvings == 0
    stride = 1 if grid_points <= 0 else max(1, math.ceil(n_steps / grid_points))
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    assert np.array_equal(rec.times, np.array(idx) * dt)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("n", [4, 5, 6])
def test_staged_drift_stack_is_the_batched_matmul_bitwise(monkeypatch, n):
    # the staged RK4's A stack, filled one jump at a time by drift_operator,
    # is -0.5 L^dag L - iH from one batched matmul, bit for bit
    assert 2**n > PROPAGATOR_MAX_DIM
    setup = lindblad_setup("CH", n, 20)
    ham, l_ops = setup["ham"], setup["lindblads"]
    captured = {}

    def capture(generator_for, *_):
        captured.update(inspect.getclosurevars(generator_for).nonlocals)
        raise _Captured

    monkeypatch.setattr(dynamics, "_rk4_advance", capture)
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=2, t_max=0.5)
    with pytest.raises(_Captured):
        gs.evolve_randomized(ham, l_ops, gs.maximally_mixed(n), cfg, setup["sigma"])
    oracle = -0.5 * np.matmul(l_ops.conj().transpose(0, 2, 1), l_ops) - 1j * ham
    assert np.array_equal(captured["a_ops"], oracle)


@pytest.mark.parametrize("n", [2, 3])
def test_propagator_applies_one_rk4_step(rng, n):
    # P_a vec(X) is one RK4 step of X under jump a, for any X, Hermitian or
    # not, in the C-order vectorization of the state batch
    setup = lindblad_setup("CH", n, 3)
    ham, l_ops = setup["ham"], np.stack(setup["lindblads"])
    props = _taylor4_propagators(ham, l_ops, 0.3)
    dim = 2**n
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for a, L in enumerate(l_ops):
        ldl = L.conj().T @ L

        def gen(r):
            return -1j * (ham @ r - r @ ham) + L @ r @ L.conj().T - 0.5 * (ldl @ r + r @ ldl)

        step = gs.rk4_step(x, gen, 0.3)
        assert np.max(np.abs(props[a] @ x.ravel() - step.ravel())) <= 1e-12 * np.max(np.abs(step))


@pytest.mark.parametrize("seed", [0, 3])
def test_propagators_are_the_taylor_polynomial_of_build_superop(seed):
    # each P_a is the Horner polynomial of the one jump's build_superop,
    # bit for bit: both take M_a from the same row kernel
    setup = lindblad_setup("CH", 3, 20, seed=seed)
    ham, l_ops, dt = setup["ham"], np.stack(setup["lindblads"]), 0.25
    eye = np.eye(64)
    props = _taylor4_propagators(ham, l_ops, dt)
    for a, L in enumerate(l_ops):
        hm = gs.build_superop(ham, [L], [1.0]) * dt
        poly = eye + hm * 0.25
        for order in (3, 2, 1):
            poly = eye + (hm @ poly) * (1.0 / order)
        assert np.array_equal(props[a], poly), a


@pytest.mark.parametrize("n", [3, 4])
def test_randomized_states_stay_positive_with_unit_trace(n):
    # both step maps: the propagator step at n = 3, the staged RK4 at n = 4.
    # Every kept trajectory state has a minimum eigenvalue of at least 8.9e-3
    # and |Tr rho - 1| of at most 6.7e-16, so a negative one is a real signal.
    assert (2**n <= PROPAGATOR_MAX_DIM) == (n == 3)
    setup = lindblad_setup("CH", n, 20, seed=3)
    cfg = gs.SolverConfig(
        dt_rk0=RK_STEP_TABLE["CH"][n], n_traj=4, t_max=40.0, seed=3, grid_points=0, state_blocks=4
    )
    rec = gs.evolve_randomized(
        setup["ham"], setup["lindblads"], gs.maximally_mixed(n), cfg, setup["sigma"]
    )
    states = rec.traj_states
    assert np.linalg.eigvalsh(rec.final_avg_state).min() > 0
    assert np.linalg.eigvalsh(states).min() > 0
    assert abs(np.trace(rec.final_avg_state) - 1) <= 1e-14
    assert np.max(np.abs(np.einsum("bgii->bg", states) - 1)) <= 1e-14


# -------------------------------------------------------------------- exact
def test_exact_converges_to_superop_steady_state():
    setup = gap_setup("CH", 3, 20)
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=1, t_max=2000.0, seed=0, grid_points=100)
    rec = gs.evolve_exact(
        setup["ham"], list(setup["lindblads"]), setup["gammas"],
        gs.maximally_mixed(3), cfg, setup["sigma"],
    )
    assert gs.trace_distance(rec.final_avg_state, setup["gap_result"].steady_state) < 1e-8


def test_exact_plateau_matches_steady_to_gibbs_distance():
    setup = gap_setup("CH", 3, 20)
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=1, t_max=2000.0, seed=0, grid_points=100)
    rec = gs.evolve_exact(
        setup["ham"], list(setup["lindblads"]), setup["gammas"],
        gs.maximally_mixed(3), cfg, setup["sigma"],
    )
    plateau = float(np.mean(rec.avg_distance[-10:]))
    reference = gs.trace_distance(setup["gap_result"].steady_state, setup["sigma"])
    assert plateau == pytest.approx(reference, rel=0.05)


def test_infinite_temperature_state_stationary_for_beta_zero_filter():
    setup = point_setup("CH", 3)
    beta0 = 1e-9  # beta -> 0 filter
    jumps = gs.sample_jump_set(3, 2, 10, seed=0)
    bohr = setup["bohr"]
    eta0 = float(gs.filter_freq(beta0, 0.0))
    # rescale to O(1) rates so the residual comparison is meaningful
    ls = [
        gs.lindblad_op_exact(a, setup["spec"], beta0, bohr) / eta0 for a in jumps
    ]
    gammas = np.full(10, 0.1)
    resid = gs.trace_norm(
        apply_lindbladian(gs.maximally_mixed(3), setup["ham"], ls, gammas)
    )
    moving = gs.trace_norm(
        apply_lindbladian(setup["sigma"], setup["ham"], ls, gammas)
    )
    assert resid < 1e-6
    assert moving > 1e-3  # the generator is not trivially small


# --------------------------------------------------------------------- mcwf
def test_mcwf_pure_unitary_norm_conserved():
    setup = point_setup("CH", 2)
    psi = np.eye(4, dtype=complex)[0]
    cfg = gs.SolverConfig(dt_rk0=0.02, n_traj=1, t_max=5.0, seed=1, grid_points=25)
    rec = gs.mcwf_evolve(setup["ham"], [np.zeros((4, 4))], [0.0], psi, cfg, gs.maximally_mixed(2))
    u = gs.expm_phase(setup["spec"], 5.0)
    exact = np.outer(u @ psi, (u @ psi).conj())
    assert abs(np.trace(rec.final_avg_state).real - 1.0) < 1e-8
    assert np.max(np.abs(rec.final_avg_state - exact)) < 1e-8


def test_mcwf_single_decay_channel_within_3_sigma():
    gamma = 0.8
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    ground = np.diag([1.0, 0.0]).astype(complex)
    psi0 = np.array([0, 1], dtype=complex)
    cfg = gs.SolverConfig(dt_rk0=0.05, n_traj=500, t_max=2.0, seed=11, grid_points=40)
    rec = gs.mcwf_evolve(np.zeros((2, 2)), [lower], [gamma], psi0, cfg, ground)
    # distance to the ground state equals the excited population here
    expected = np.exp(-gamma * rec.times)
    sem = np.sqrt(np.maximum(expected * (1 - expected), 1e-12) / cfg.n_traj)
    assert np.all(np.abs(rec.avg_distance - expected) <= 3 * sem + 5e-3)


def test_mcwf_jump_probability_control():
    # strong dissipation forces substeps; the run must stay accurate
    gamma = 30.0
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    ground = np.diag([1.0, 0.0]).astype(complex)
    psi0 = np.array([0, 1], dtype=complex)
    cfg = gs.SolverConfig(dt_rk0=0.1, n_traj=300, t_max=0.3, seed=2, grid_points=3)
    rec = gs.mcwf_evolve(np.zeros((2, 2)), [lower], [gamma], psi0, cfg, ground)
    expected = np.exp(-gamma * rec.times)
    assert np.max(np.abs(rec.avg_distance - expected)) < 0.05


def test_mcwf_distances_match_recorded_pure_states():
    setup = lindblad_setup("CH", 3, 10)
    cfg = gs.SolverConfig(
        dt_rk0=0.2, n_traj=4, t_max=4.0, seed=3, grid_points=8, state_blocks=4
    )
    rec = gs.mcwf_evolve(
        setup["ham"], list(setup["lindblads"]), 5 * setup["gammas"], None, cfg, setup["sigma"]
    )
    for i in range(cfg.n_traj):
        for j in range(len(rec.times)):
            single = gs.trace_distance(rec.traj_states[i, j], setup["sigma"])
            assert rec.per_traj_distance[i, j] == single


def _mcwf_one_at_a_time(ham, l_ops, gammas, psi0, cfg, target, grid):
    """The unraveling stepped one trajectory at a time, as the solver ran
    before its trajectories moved in lock step; per-trajectory distances at
    the recorded step indices `grid`."""
    decay = np.einsum("a,aij,ajk->ik", gammas, l_ops.conj().transpose(0, 2, 1), l_ops)
    h_eff = ham - 0.5j * decay
    dt, dim = cfg.dt_rk0, len(ham)
    propagators = {}

    def rates(psi):
        amps = l_ops @ psi
        r = gammas * np.einsum("ai,ai->a", amps.conj(), amps).real
        return r / max(np.linalg.norm(psi) ** 2, 1e-300), amps

    out = np.zeros((cfg.n_traj, len(grid)))
    for i in range(cfg.n_traj):
        rng = np.random.default_rng([cfg.seed, i])
        if psi0 is None:
            psi = np.zeros(dim, dtype=complex)
            psi[rng.integers(dim)] = 1.0
        else:
            psi = psi0 / np.linalg.norm(psi0)
        threshold = rng.random()
        for pos, j in enumerate(grid):
            for _ in range(j - (grid[pos - 1] if pos else 0)):
                k = max(1, math.ceil(dt * float(rates(psi)[0].sum()) / JUMP_PROB_CAP))
                if k not in propagators:
                    propagators[k] = scipy.linalg.expm(-1j * (dt / k) * h_eff)
                for _ in range(k):
                    candidate = propagators[k] @ psi
                    if np.linalg.norm(candidate) ** 2 <= threshold:
                        r, amps = rates(psi)
                        total = float(r.sum())
                        if total > 0:
                            choice = np.searchsorted(np.cumsum(r / total), rng.random())
                            choice = min(choice, len(r) - 1)
                            candidate = amps[choice] / np.linalg.norm(amps[choice])
                            threshold = rng.random()
                    psi = candidate
            unit = psi / np.linalg.norm(psi)
            out[i, pos] = gs.trace_distance(np.outer(unit, unit.conj()), target)
    return out


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("pure_start", [False, True])
def test_mcwf_lock_step_matches_one_trajectory_at_a_time(seed, pure_start):
    # 5x the uniform rates give 46-67 jumps over the 24 trajectories and
    # mix substep counts k = 1 and 2 (and 3 at seed 8) within almost every
    # step, so both the jump handling and the per-k propagator groups run
    setup = lindblad_setup("CH", 3, 10)
    gammas = 5 * setup["gammas"]
    psi0 = np.arange(1, 9) + 0.5j if pure_start else None
    cfg = gs.SolverConfig(dt_rk0=0.2, n_traj=24, t_max=8.0, seed=seed, grid_points=20)
    rec = gs.mcwf_evolve(setup["ham"], setup["lindblads"], gammas, psi0, cfg, setup["sigma"])
    grid = [int(round(t / cfg.dt_rk0)) for t in rec.times]
    oracle = _mcwf_one_at_a_time(
        setup["ham"], setup["lindblads"], gammas, psi0, cfg, setup["sigma"], grid
    )
    assert grid[-1] == rec.meta["n_steps"] == 40
    assert np.max(np.abs(rec.per_traj_distance - oracle)) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "psi0",
    [[0, 0, 0, 0], [np.nan, 1, 0, 0], [np.inf, 0, 0, 0], [1, 0], np.eye(4)],
    ids=["zero", "nan", "inf", "short", "matrix"],
)
def test_mcwf_rejects_a_bad_initial_state(psi0):
    setup = point_setup("CH", 2)
    cfg = gs.SolverConfig(dt_rk0=0.1, n_traj=2, t_max=1.0)
    with pytest.raises(ValueError, match="psi0"):
        gs.mcwf_evolve(
            setup["ham"], [np.zeros((4, 4))], [0.0], np.asarray(psi0, dtype=complex), cfg,
            gs.maximally_mixed(2),
        )


def test_mcwf_honours_stop_below():
    setup = lindblad_setup("CH", 3, 10)
    cfg = gs.SolverConfig(
        dt_rk0=0.2, n_traj=40, t_max=100.0, seed=1, grid_points=100, stop_below=0.3
    )
    rec = gs.mcwf_evolve(
        setup["ham"], setup["lindblads"], 5 * setup["gammas"], None, cfg, setup["sigma"]
    )
    assert rec.meta["stopped_early"]
    assert rec.avg_distance[-1] < 0.3 <= np.min(rec.avg_distance[:-1])
    assert rec.times[-1] < cfg.t_max


# ------------------------------------------------------------ state blocks
@pytest.mark.parametrize("blocks", [-1, 5])
def test_state_blocks_outside_zero_to_n_traj_are_rejected(blocks):
    with pytest.raises(ValueError, match="state_blocks must lie between 0 and n_traj = 2"):
        gs.SolverConfig(dt_rk0=0.1, n_traj=2, state_blocks=blocks)


def test_state_blocks_average_contiguous_trajectory_blocks():
    # trajectory i belongs to block i B // R: for R = 7, B = 3 the blocks
    # hold trajectories 0-2, 3-4 and 5-6
    setup = lindblad_setup("CH", 3, 10)
    runs = {
        "randomized": lambda cfg: gs.evolve_randomized(
            setup["ham"], setup["lindblads"], gs.maximally_mixed(3), cfg, setup["sigma"]
        ),
        "mcwf": lambda cfg: gs.mcwf_evolve(
            setup["ham"], setup["lindblads"], 5 * setup["gammas"], None, cfg, setup["sigma"]
        ),
    }
    for run in runs.values():
        kept = {
            b: run(gs.SolverConfig(
                dt_rk0=0.2, n_traj=7, t_max=4.0, seed=3, grid_points=8, state_blocks=b
            )).traj_states
            for b in (3, 7)
        }
        assert kept[3].shape == (3,) + kept[7].shape[1:]
        for b, members in enumerate([slice(0, 3), slice(3, 5), slice(5, 7)]):
            expected = kept[7][members].mean(axis=0)
            assert np.max(np.abs(kept[3][b] - expected)) <= 1e-15
    cfg = gs.SolverConfig(dt_rk0=0.2, n_traj=7, t_max=4.0, grid_points=8, state_blocks=3)
    rec = gs.evolve_exact(
        setup["ham"], setup["lindblads"], setup["gammas"], gs.maximally_mixed(3), cfg,
        setup["sigma"],
    )
    assert rec.traj_states.shape == (1, len(rec.times), 8, 8)
    assert np.array_equal(rec.traj_states[0, -1], rec.final_avg_state)


@pytest.mark.parametrize("solver", ["randomized", "exact", "mcwf", "circuit"])
def test_every_solver_reports_one_meta_key_set(solver):
    setup = lindblad_setup("CH", 3, 5)
    ls, gammas, sigma = setup["lindblads"], setup["gammas"], setup["sigma"]
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=2, t_max=2.0, grid_points=4)
    circuit_cfg = CircuitConfig(
        dt_ev=0.25, dt_oft=0.2, T=1.6, t_max=2.0, jump_count=5, k=2, n_rep=2, grid_points=4,
    )
    run = {
        "randomized": lambda: gs.evolve_randomized(
            setup["ham"], ls, gs.maximally_mixed(3), cfg, sigma
        ),
        "exact": lambda: gs.evolve_exact(
            setup["ham"], ls, gammas, gs.maximally_mixed(3), cfg, sigma
        ),
        "mcwf": lambda: gs.mcwf_evolve(setup["ham"], ls, gammas, None, cfg, sigma),
        "circuit": lambda: gs.simulate_protocol(setup["chain"], circuit_cfg, NoiseSpec()),
    }[solver]
    rec = run()
    extra = {"gate_count"} if solver == "circuit" else set()
    assert set(rec.meta) == {"n_steps", "stopped_early"} | extra
    assert rec.meta["n_steps"] == 8 and rec.meta["stopped_early"] is False


# ------------------------------------------------------------- mixing time
def test_mixing_time_zero_when_starting_at_target():
    setup = lindblad_setup("CH", 3, 10)
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=2, t_max=5.0, seed=0, grid_points=10)
    rec = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), setup["sigma"], cfg, setup["sigma"],
    )
    assert gs.mixing_time_estimate(rec) == 0.0


def test_mixing_time_not_converged_sentinel():
    rec = gs.EvolutionRecord(
        times=np.linspace(0, 10, 11),
        per_traj_distance=np.full((1, 11), 0.5),
        avg_distance=np.full(11, 0.5),
        final_dt_rk=0.1,
        halvings=0,
        final_avg_state=np.eye(2) / 2,
    )
    assert gs.mixing_time_estimate(rec) is None


def test_record_csv_roundtrip():
    # the CLI formats every distance series through its one CSV formatter
    setup = lindblad_setup("CH", 3, 5)
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=2, t_max=5.0, seed=0, grid_points=10)
    rec = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3), cfg, setup["sigma"],
    )
    body = _distances_csv(rec).splitlines()
    assert body[0].startswith("#")
    assert body[1].split(",") == ["t", "traj0", "traj1", "avg"]
    data = np.array([[float(x) for x in row.split(",")] for row in body[2:]])
    assert np.array_equal(data[:, 0], rec.times)
    assert np.allclose(data[:, -1], rec.avg_distance)


def test_randomized_vs_exact_plateau_consistency():
    # the trajectory-averaged plateau state approaches the exact solver's
    # plateau state, and the gap shrinks with the trajectory count
    setup = lindblad_setup("CH", 3, 20)
    ls, gm = list(setup["lindblads"]), setup["gammas"]
    cfg_e = gs.SolverConfig(dt_rk0=0.25, n_traj=1, t_max=800.0, seed=0, grid_points=100)
    rec_e = gs.evolve_exact(setup["ham"], ls, gm, gs.maximally_mixed(3), cfg_e, setup["sigma"])
    dists = {}
    for n_traj in (3, 10, 20):
        cfg_r = gs.SolverConfig(dt_rk0=0.25, n_traj=n_traj, t_max=800.0, seed=5, grid_points=100)
        rec_r = gs.evolve_randomized(
            setup["ham"], ls, gs.maximally_mixed(3), cfg_r, setup["sigma"]
        )
        dists[n_traj] = gs.trace_distance(rec_r.final_avg_state, rec_e.final_avg_state)
    assert dists[10] < 5e-2
    assert dists[20] < dists[3]


def test_double_halving_from_coarse_start():
    # starting at twice the Table step triggers two halvings down to 0.125
    setup = lindblad_setup("CH", 5, 20)
    cfg = gs.SolverConfig(dt_rk0=0.5, n_traj=4, t_max=20.0, seed=3)
    rec = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(5), cfg, setup["sigma"],
    )
    assert rec.final_dt_rk == pytest.approx(0.125)
    assert rec.halvings == 2
