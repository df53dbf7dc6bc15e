import math

import numpy as np
import pytest
import scipy.linalg

import gibbsim as gs
from gibbsim.circuit import (
    CircuitConfig,
    NoiseSpec,
    ProtocolEngine,
    _depolarize_adjacent_pairs,
    step_v_reference,
)
from gibbsim.liouville import apply_lindbladian, unvec, vec
from gibbsim.numkernel import PAULI_I, PAULI_X

from conftest import BETA, lindblad_setup, point_setup, random_density_matrix

F = gs.FilterSpec(BETA)


def b_gate(a, g_s, weight, dt_ev, gamma):
    """Dense B_s = exp[-i (sqrt(dt gamma)/2) weight (Re g X_anc + Im g Y_anc) (x) A].

    The generator squares to a multiple of the identity, so the exponential
    is evaluated in closed form.
    """
    amat = np.asarray(a)
    dim = 2 * amat.shape[0]
    mag = abs(g_s)
    theta = 0.5 * math.sqrt(dt_ev * gamma) * weight * mag
    if theta == 0.0:
        return np.eye(dim, dtype=complex)
    direction = np.array(
        [[0.0, g_s.conjugate()], [g_s, 0.0]], dtype=complex
    ) / mag  # (Re g) X + (Im g) Y on the ancilla
    gen = gs.kron(direction, amat)
    return math.cos(theta) * np.eye(dim, dtype=complex) - 1j * math.sin(theta) * gen


def dense_step_v(a, cfg, coherent):
    """V^a as the left-to-right product of dense 2D x 2D factors: the forward
    pass B_s e^{+iH Dt} for s = -S..S times the backward pass e^{-iH Dt} B_s
    for s = S..-S."""
    s_max, dt = cfg.oft_steps, cfg.dt_oft_effective
    amat = np.asarray(a)
    dim = 2 * amat.shape[0]
    u_plus = gs.kron(PAULI_I, coherent.unitary(-dt, cfg.r_big))
    u_minus = gs.kron(PAULI_I, coherent.unitary(dt, cfg.r_big))
    gates = {}
    for s in range(-s_max, s_max + 1):
        weight = dt if abs(s) < s_max else dt / 2.0
        gates[s] = b_gate(amat, complex(gs.filter_time(F, s * dt)), weight, cfg.dt_ev, cfg.gamma)
    forward = np.eye(dim, dtype=complex)
    for s in range(-s_max, s_max + 1):
        forward = forward @ gates[s] @ u_plus
    backward = np.eye(dim, dtype=complex)
    for s in range(s_max, -s_max - 1, -1):
        backward = backward @ u_minus @ gates[s]
    return forward @ backward


# ----------------------------------------------------------------- dilation
def test_dilation_hermitian_and_structure():
    setup = lindblad_setup("CH", 3, 5)
    lbar = gs.lindblad_op_discretized(setup["jump_set"][0], setup["spec"], F, T=1.6, S=8)
    kbar = gs.dilation_discrete(lbar)
    assert np.max(np.abs(kbar - kbar.conj().T)) < 1e-14
    # Hermitian argument collapses the dilation to X_anc (x) L
    herm = 0.5 * (lbar + lbar.conj().T)
    assert np.allclose(gs.dilation_discrete(herm), gs.kron(PAULI_X, herm))
    assert np.max(np.abs(gs.dilation_discrete(np.zeros((8, 8))))) == 0


def test_dilation_identity_second_order(rng):
    setup = lindblad_setup("CH", 3, 5)
    L = setup["lindblads"][0]
    kbar = gs.dilation_discrete(L)
    kspec = gs.eig_hermitian(kbar)
    sup = gs.build_superop(None, [L], [1.0])
    rho = random_density_matrix(8, rng)

    def err(dt):
        u = gs.expm_phase(kspec, np.sqrt(dt))
        big = np.zeros((16, 16), dtype=complex)
        big[:8, :8] = rho
        lhs = gs.partial_trace_ancilla(u @ big @ u.conj().T)
        rhs = unvec(scipy.linalg.expm(dt * sup.matrix) @ vec(rho))
        return np.max(np.abs(lhs - rhs))

    ratio = err(0.1) / err(0.05)
    assert 4 * 0.7 <= ratio <= 4 * 1.3


# ------------------------------------------------------------------- b gate
def test_b_gate_zero_coefficient_is_identity():
    a = gs.sample_jump_set(2, 1, 1, seed=0)[0]
    assert np.allclose(b_gate(a, 0.0, 0.1, 0.1, 1.0), np.eye(8))


def test_b_gate_half_pi_rotation():
    a = gs.sample_jump_set(2, 1, 1, seed=0)[0]
    # choose parameters so theta = (1/2) sqrt(dt gamma) w |g| = pi/2
    g_s = 1.0
    weight = np.pi
    gate = b_gate(a, g_s, weight, dt_ev=1.0, gamma=1.0)
    expected = -1j * gs.kron(PAULI_X, a.matrix())
    assert np.max(np.abs(gate - expected)) < 1e-12


def test_b_gate_matches_dense_exponential(rng):
    a = gs.sample_jump_set(3, 2, 1, seed=5)[0]
    for g_s in (0.3 - 0.2j, -0.1 + 0.7j):
        weight, dt_ev, gamma = 0.2, 0.3, 1.2
        gen = (
            0.5
            * np.sqrt(dt_ev * gamma)
            * weight
            * (
                gs.kron(g_s.real * PAULI_X + g_s.imag * np.array([[0, -1j], [1j, 0]]), a.matrix())
            )
        )
        expected = scipy.linalg.expm(-1j * gen)
        assert np.max(np.abs(b_gate(a, g_s, weight, dt_ev, gamma) - expected)) < 1e-12


def test_b_gate_product_reproduces_static_dilation():
    # without the Heisenberg interleaving, the symmetric B_s product is the
    # second-order formula for the dilation of (sum_s w_s g_s) A
    a = gs.sample_jump_set(2, 1, 1, seed=3)[0]
    cfg = CircuitConfig(dt_ev=0.1, dt_oft=0.2, T=1.6, jump_count=1, seed=3, beta=BETA)
    s_max, dt = cfg.oft_steps, cfg.dt_oft_effective

    def product_and_target(dt_ev):
        theta = np.sqrt(dt_ev * cfg.gamma)
        fwd = np.eye(8, dtype=complex)
        gen_total = np.zeros((8, 8), dtype=complex)
        gates = {}
        for s in range(-s_max, s_max + 1):
            w = dt if abs(s) < s_max else dt / 2
            g_s = complex(gs.filter_time(F, s * dt))
            gates[s] = b_gate(a, g_s, w, dt_ev, cfg.gamma)
            direction = np.array([[0, np.conj(g_s)], [g_s, 0]])
            gen_total += 0.5 * theta * w * gs.kron(direction, a.matrix())
        bwd = np.eye(8, dtype=complex)
        for s in range(-s_max, s_max + 1):
            fwd = fwd @ gates[s]
        for s in range(s_max, -s_max - 1, -1):
            bwd = bwd @ gates[s]
        return fwd @ bwd, scipy.linalg.expm(-2j * gen_total)

    p1, t1 = product_and_target(0.4)
    p2, t2 = product_and_target(0.2)
    e1 = np.linalg.norm(p1 - t1, 2)
    e2 = np.linalg.norm(p2 - t2, 2)
    assert 2.0 < e1 / e2 < 5.2  # second-order Trotter: theta^3 scaling


# ------------------------------------------------------------------- step V
def test_step_v_rejects_degenerate_discretization():
    with pytest.raises(ValueError):
        CircuitConfig(dt_ev=0.1, dt_oft=10.0, T=1.6)


def test_step_v_unitary():
    setup = point_setup("CH", 2)
    a = gs.sample_jump_set(2, 2, 1, seed=1)[0]
    cfg = CircuitConfig(dt_ev=0.1, dt_oft=0.1, T=1.6, jump_count=1, seed=1, beta=BETA)
    v = gs.step_V(a, cfg, setup["spec"])
    assert np.max(np.abs(v @ v.conj().T - np.eye(8))) < 1e-12


def test_step_v_order_against_dense_exponential():
    setup = point_setup("CH", 2)
    a = gs.sample_jump_set(2, 2, 1, seed=1)[0]

    def err(dt_ev):
        cfg = CircuitConfig(dt_ev=dt_ev, dt_oft=0.1, T=1.6, jump_count=1, seed=1, beta=BETA)
        v = gs.step_V(a, cfg, setup["spec"])
        return np.linalg.norm(v - step_v_reference(a, cfg, setup["spec"]), 2)

    ratio = err(0.1) / err(0.05)
    assert 4 * 0.7 <= ratio <= 4 * 1.3


def test_step_v_trotter2_matches_exact_at_high_order():
    params = gs.named_point("CH", 2)
    ham = gs.build_hamiltonian(params)
    a = gs.sample_jump_set(2, 2, 1, seed=1)[0]
    kwargs = dict(dt_ev=0.1, dt_oft=0.2, T=1.6, jump_count=1, seed=1, beta=BETA)
    spec = gs.eig_hermitian(ham)
    v_exact = gs.step_V(a, CircuitConfig(coherent_mode="exact", **kwargs), spec)
    v_trott = gs.step_V(
        a,
        CircuitConfig(coherent_mode="trotter2", r_delta=400, r_big=400, **kwargs),
        spec,
        ham_split=gs.ising_split(params),
    )
    assert np.max(np.abs(v_exact - v_trott)) < 1e-6


@pytest.mark.parametrize("mode", ["exact", "trotter2"])
@pytest.mark.parametrize("n", [3, 4])
def test_kraus_sweep_matches_dense_product(n, mode):
    # the batched right-to-left sweep against the dense product, every jump
    params = gs.named_point("CH", n)
    cfg = CircuitConfig(
        dt_ev=0.25, dt_oft=0.2, T=1.6, jump_count=6, k=2, seed=n, beta=BETA,
        coherent_mode=mode, r_big=2,
    )
    split = gs.ising_split(params) if mode == "trotter2" else None
    engine = ProtocolEngine(gs.build_hamiltonian(params), cfg, split)
    dim = engine.dim
    for a, kraus in zip(engine.jump_set, engine.kraus):
        v = dense_step_v(a, cfg, engine.coherent)
        expected = (v[:, :dim] @ engine.u_ev).reshape(2, dim, dim)
        assert np.max(np.abs(kraus - expected)) <= 1e-13 * np.max(np.abs(expected))
        v_sweep = gs.step_V(a, cfg, engine.spec, split)
        assert np.max(np.abs(v_sweep - v)) <= 1e-13 * np.max(np.abs(v))
        assert np.max(np.abs(v_sweep @ v_sweep.conj().T - np.eye(2 * dim))) < 1e-12


def test_kraus_sweep_gamma_zero_leaves_ancilla_untouched():
    setup = point_setup("CH", 3)
    cfg = CircuitConfig(dt_ev=0.2, dt_oft=0.1, T=1.6, gamma=0.0, jump_count=4, seed=0, beta=BETA)
    engine = ProtocolEngine(setup["ham"], cfg)
    assert np.all(engine.kraus[:, 1] == 0)
    assert np.max(np.abs(engine.kraus[:, 0] - engine.u_ev)) < 1e-13


# -------------------------------------------------------------- step Wtilde
def test_step_wtilde_trace_preserving_and_positive(rng):
    setup = point_setup("CH", 3)
    cfg = CircuitConfig(dt_ev=0.2, dt_oft=0.1, T=1.6, jump_count=4, seed=0, beta=BETA)
    engine = ProtocolEngine(setup["ham"], cfg)
    rho = random_density_matrix(8, rng)
    for out in engine.step_wtilde_batch(np.stack([rho] * 4), np.arange(4)):
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(0.5 * (out + out.conj().T))) > -1e-8


def test_step_wtilde_gamma_zero_is_pure_conjugation(rng):
    setup = point_setup("CH", 3)
    cfg = CircuitConfig(dt_ev=0.2, dt_oft=0.1, T=1.6, gamma=0.0, jump_count=2, seed=0, beta=BETA)
    engine = ProtocolEngine(setup["ham"], cfg)
    rho = random_density_matrix(8, rng)
    u = gs.expm_phase(setup["spec"], cfg.dt_ev)
    out = engine.step_wtilde_batch(rho[None], np.array([0]))[0]
    assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12


def test_step_wtilde_batch_matches_zero_padded_dilation(rng):
    # reference: pad rho with the ancilla in |0>, conjugate by the full V^a,
    # trace the ancilla out
    setup = point_setup("CH", 3)
    cfg = CircuitConfig(dt_ev=0.3, dt_oft=0.2, T=1.6, jump_count=5, seed=2, beta=BETA)
    engine = ProtocolEngine(setup["ham"], cfg)
    u = gs.expm_phase(setup["spec"], cfg.dt_ev)
    rho = np.stack([random_density_matrix(8, rng) for _ in range(cfg.jump_count)])
    out = engine.step_wtilde_batch(rho, np.arange(cfg.jump_count))
    for idx, a in enumerate(engine.jump_set):
        v = gs.step_V(a, cfg, setup["spec"])
        big = np.zeros((16, 16), dtype=complex)
        big[:8, :8] = u @ rho[idx] @ u.conj().T
        expected = gs.partial_trace_ancilla(v @ big @ v.conj().T)
        assert np.max(np.abs(out[idx] - expected)) < 1e-12


def step_w(engine, cfg, rho, a_indices):
    """Boundary-restored step W for each jump index: W-tilde conjugated by
    the OFT boundary evolution u = e^{-iHS Dt}, which cancels along a full
    protocol run; the jump average of W matches e^{dt_ev L} to second order."""
    u = gs.expm_phase(engine.spec, cfg.oft_steps * cfg.dt_oft_effective)
    inner = engine.step_wtilde_batch(np.stack([u.conj().T @ rho @ u] * len(a_indices)), a_indices)
    return u @ inner @ u.conj().T


def test_step_w_average_matches_exact_channel_second_order(rng):
    setup = point_setup("CH", 3)
    spec, bohr = setup["spec"], setup["bohr"]
    rho = random_density_matrix(8, rng)

    def err(dt_ev):
        cfg = CircuitConfig(
            dt_ev=dt_ev, dt_oft=0.05, T=1.6, jump_count=8, k=2, seed=0, beta=BETA
        )
        engine = ProtocolEngine(setup["ham"], cfg)
        ls = [gs.lindblad_op_exact(a, spec, F, bohr) for a in engine.jump_set]
        sup = gs.build_superop(setup["ham"], ls, np.full(8, cfg.gamma / 8))
        ref = unvec(scipy.linalg.expm(dt_ev * sup.matrix) @ vec(rho))
        avg = np.mean(step_w(engine, cfg, rho, np.arange(8)), axis=0)
        return np.max(np.abs(avg - ref))

    ratio = err(0.08) / err(0.04)
    assert 4 * 0.7 <= ratio <= 4 * 1.3


# -------------------------------------------------------------------- noise
def test_noise_none_and_zero_strength(rng):
    rho = random_density_matrix(8, rng)
    assert np.array_equal(gs.apply_noise(rho, NoiseSpec(kind="none"), {}), rho)
    out = gs.apply_noise(rho, NoiseSpec(kind="global_stochastic", lam=0.0), {})
    assert np.max(np.abs(out - rho)) == 0


def test_noise_full_depolarizing(rng):
    rho = random_density_matrix(8, rng)
    out = gs.apply_noise(rho, NoiseSpec(kind="global_stochastic", lam=1.0), {})
    assert np.max(np.abs(out - np.eye(8) / 8)) < 1e-12


def test_budget_survival_probability_bernoulli_product(rng):
    # on two qubits every event hits the same pair, so composing N events
    # gives (1-l)^N rho + (1-(1-l)^N) I/4 exactly
    rho = random_density_matrix(4, rng)
    lam_g, n_g = 0.013, 29
    out = gs.apply_noise(
        rho,
        NoiseSpec(kind="depolarizing_budget", lambda_g=lam_g),
        {"rng": np.random.default_rng(0), "n_g": n_g},
    )
    keep = (1 - lam_g) ** n_g
    expected = keep * rho + (1 - keep) * np.eye(4) / 4
    assert np.max(np.abs(out - expected)) < 1e-12


def _pair_event_oracle(rho, pair, n, lam):
    """One depolarizing event on sites (pair, pair+1): partial trace over the
    pair, re-embedded next to I/4 by explicit tensor-index contraction."""
    t = rho.reshape((2,) * (2 * n))
    idx = list(range(2 * n))
    idx[n + pair] = pair
    idx[n + pair + 1] = pair + 1
    keep = [i for i in range(n) if i not in (pair, pair + 1)]
    red = np.einsum(t, idx, keep + [k + n for k in keep])
    l = 2**pair
    r = 2 ** (n - 2 - pair)
    red_t = red.reshape(l, r, l, r)
    emb = np.einsum("ij,albm->ailbjm", np.eye(4) / 4, red_t).reshape(2**n, 2**n)
    return (1 - lam) * rho + lam * emb


def test_depolarize_pair_against_kron_oracle(rng):
    for n in (3, 4):
        rho = random_density_matrix(2**n, rng)
        for pair in range(n - 1):
            lam = 0.37
            counts = np.zeros((1, n - 1), dtype=int)
            counts[0, pair] = 1
            out = _depolarize_adjacent_pairs(rho[None], counts, lam)[0]
            assert np.max(np.abs(out - _pair_event_oracle(rho, pair, n, lam))) < 1e-13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fused_budget_matches_sequential_events(n, rng):
    # one fused channel per pair reproduces N_g single-pair events drawn one
    # at a time, and leaves every placement stream where the scalar draws do
    reps, lam_g = 3, 0.03
    noise = NoiseSpec(kind="depolarizing_budget", lambda_g=lam_g)
    rho = np.stack([random_density_matrix(2**n, rng) for _ in range(reps)])
    for n_g in (1, 7, 61):
        fused_rngs = [np.random.default_rng([11, r, n_g]) for r in range(reps)]
        seq_rngs = [np.random.default_rng([11, r, n_g]) for r in range(reps)]
        fused = gs.apply_noise(rho, noise, {"rng": fused_rngs, "n_g": n_g})
        for r in range(reps):
            expected = rho[r]
            for _ in range(n_g):
                expected = _pair_event_oracle(expected, int(seq_rngs[r].integers(n - 1)), n, lam_g)
            assert np.max(np.abs(fused[r] - expected)) < 1e-12
            single = gs.apply_noise(
                rho[r], noise, {"rng": np.random.default_rng([11, r, n_g]), "n_g": n_g}
            )
            assert np.max(np.abs(single - expected)) < 1e-12
        for fused_rng, seq_rng in zip(fused_rngs, seq_rngs):
            assert fused_rng.integers(2**62) == seq_rng.integers(2**62)


def test_global_stochastic_batch_matches_single_states(rng):
    rho = np.stack([random_density_matrix(8, rng) for _ in range(3)])
    noise = NoiseSpec(kind="global_stochastic", lam=0.2)
    batch = gs.apply_noise(rho, noise, {})
    for r in range(3):
        assert np.array_equal(batch[r], gs.apply_noise(rho[r], noise, {}))


def test_gate_count_lookup_and_linear_rule():
    budget = NoiseSpec(kind="depolarizing_budget", lambda_g=1e-5)
    assert gs.gate_count(budget, 5, 1.0) == 308
    assert gs.gate_count(budget, 5, 3.0) == 484
    assert gs.gate_count(budget, 5, 5.0) == 644
    assert gs.gate_count(budget, 4, 1.0) == 200
    assert gs.gate_count(budget, 5, 2.0) == 500
    assert gs.gate_count(NoiseSpec(kind="depolarizing_budget", n_g_override=77), 5, 1.0) == 77


# ----------------------------------------------------------------- protocol
def test_protocol_record_is_deterministic_and_valid():
    setup = point_setup("CH", 3)
    cfg = CircuitConfig(
        dt_ev=0.5, dt_oft=0.2, T=1.6, t_max=30.0, jump_count=5, k=2,
        seed=0, beta=BETA, n_rep=3, grid_points=20,
    )
    rec1 = gs.simulate_protocol(setup["ham"], cfg, NoiseSpec(), setup["sigma"])
    rec2 = gs.simulate_protocol(setup["ham"], cfg, NoiseSpec(), setup["sigma"])
    assert np.array_equal(rec1.avg_distance, rec2.avg_distance)
    rho = rec1.final_avg_state
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) > -1e-8


def test_grid_points_zero_records_every_step():
    # grid_points <= 0 records all n_steps + 1 points in the circuit and the RK4 solver alike
    setup = lindblad_setup("CH", 3, 5)
    cfg = CircuitConfig(
        dt_ev=0.5, dt_oft=0.2, T=1.6, t_max=5.0, jump_count=5, k=2,
        seed=0, beta=BETA, n_rep=2, grid_points=0,
    )
    rec = gs.simulate_protocol(setup["ham"], cfg, NoiseSpec(), setup["sigma"])
    assert np.array_equal(rec.times, cfg.dt_ev * np.arange(cfg.n_steps + 1))
    assert rec.per_traj_distance.shape == (2, cfg.n_steps + 1)
    solver = gs.SolverConfig(dt_rk0=0.25, n_traj=2, t_max=2.0, grid_points=0)
    rec_rk = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3), solver, setup["sigma"],
    )
    assert len(rec_rk.times) == rec_rk.meta["n_steps"] + 1 == 9


def test_protocol_noisy_placement_deterministic():
    setup = point_setup("CH", 3)
    cfg = CircuitConfig(
        dt_ev=1.0, dt_oft=0.2, T=1.6, t_max=20.0, jump_count=5, k=2,
        seed=4, beta=BETA, n_rep=2, grid_points=10,
    )
    noise = NoiseSpec(kind="depolarizing_budget", lambda_g=1e-4)
    rec1 = gs.simulate_protocol(setup["ham"], cfg, noise, setup["sigma"])
    rec2 = gs.simulate_protocol(setup["ham"], cfg, noise, setup["sigma"])
    assert np.array_equal(rec1.avg_distance, rec2.avg_distance)


def test_protocol_noiseless_and_noisy_share_jump_streams():
    # with the same seed, turning on noise must not change the jump draws;
    # at lambda_g = 0 the budget channel is the identity and the records match
    setup = point_setup("CH", 3)
    cfg = CircuitConfig(
        dt_ev=1.0, dt_oft=0.2, T=1.6, t_max=20.0, jump_count=5, k=2,
        seed=4, beta=BETA, n_rep=2, grid_points=10,
    )
    rec_none = gs.simulate_protocol(setup["ham"], cfg, NoiseSpec(), setup["sigma"])
    rec_zero = gs.simulate_protocol(
        setup["ham"], cfg, NoiseSpec(kind="depolarizing_budget", lambda_g=0.0), setup["sigma"]
    )
    assert np.allclose(rec_none.avg_distance, rec_zero.avg_distance, atol=1e-12)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="bogus")
    with pytest.raises(ValueError):
        NoiseSpec(kind="global_stochastic", lam=1.5)


def test_gibbs_drift_per_step_follows_taxonomy_regimes():
    # At fine OFT steps the per-step drift of sigma under Wtilde is dt_ev times
    # the detailed-balance defect (1/2)||L(sigma)||_1 of the generator without
    # coherent correction, which no refinement of the OFT step removes.
    # Aliasing of the trapezoid OFT takes over only near the divergence limit
    # Delta t = 2 pi beta / (2 beta ||H|| + 1) of noisefit.error_model; past it
    # the drift rises far above that floor.
    setup = point_setup("CH", 3)
    T = 1.6
    h_norm = np.max(np.abs(setup["spec"].values))
    limit = 2 * np.pi * BETA / (2 * BETA * h_norm + 1.0)

    def drift(dt_oft):
        cfg = CircuitConfig(dt_ev=0.1, dt_oft=dt_oft, T=T, jump_count=6, seed=0, beta=BETA)
        engine = ProtocolEngine(setup["ham"], cfg)
        outs = engine.step_wtilde_batch(np.stack([setup["sigma"]] * 6), np.arange(6))
        return cfg, engine, gs.trace_distance(np.mean(outs, axis=0), setup["sigma"])

    _, _, fine = drift(0.1)
    coarse_cfg, _, coarse = drift(T / math.floor(T / limit))
    assert coarse_cfg.dt_oft_effective >= limit
    assert fine < 0.01
    assert coarse > 10 * fine

    # inside the limit the drift is the discretized generator's own defect
    cfg, engine, mid = drift(0.45)
    lbars = [
        gs.lindblad_op_discretized(a, setup["spec"], F, cfg.T, cfg.oft_steps)
        for a in engine.jump_set
    ]
    gen = apply_lindbladian(setup["sigma"], None, lbars, np.full(6, cfg.gamma / 6))
    expected = gs.trace_distance(setup["sigma"] + cfg.dt_ev * gen, setup["sigma"])
    assert mid == pytest.approx(expected, rel=0.02)
