"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module takes on the order of ten minutes.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

import gibbsim as gs
from gibbsim.circuit import CircuitConfig, NoiseSpec, plateau_level, step_v_reference
from gibbsim.liouville import apply_lindbladian, markov_restriction, conductance_cheeger, unvec, vec
from gibbsim.model import RK_STEP_TABLE
from gibbsim.noisefit import fit_convergence

from conftest import BETA, gap_setup, lindblad_setup, point_setup, random_density_matrix

F = gs.FilterSpec(BETA)


def report(criterion, message):
    print(f"\n[criterion {criterion:>2}] PASS: {message}")


@lru_cache(maxsize=None)
def mixing_record(key, n, t_max, stop_below, seed=5):
    setup = lindblad_setup(key, n, 20)
    cfg = gs.SolverConfig(
        dt_rk0=RK_STEP_TABLE[key][n],
        n_traj=10,
        t_max=t_max,
        stop_below=stop_below,
        seed=seed,
        grid_points=2000,
    )
    return gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(n), cfg, setup["sigma"],
    )


@lru_cache(maxsize=None)
def channel_iteration_fit(n=3, dt_step=1.0, n_steps=400):
    """Exact-channel iteration from the maximally mixed state plus its fit."""
    setup = gap_setup("CH", n, 20)
    channel = scipy.linalg.expm(dt_step * setup["superop"].matrix)
    x = vec(gs.maximally_mixed(n))
    dists = []
    for _ in range(n_steps):
        dists.append(gs.trace_distance(unvec(x), setup["sigma"]))
        x = channel @ x
    fit = fit_convergence(np.arange(n_steps, dtype=float), np.array(dists))
    return setup, channel, fit


def noisy_channel_fixed_point(channel, lam, n, iters=4000):
    eyev = vec(np.eye(2**n) / 2**n)
    x = vec(gs.maximally_mixed(n))
    prev = None
    for _ in range(iters):
        x = channel @ x
        x = (1 - lam) * x + lam * np.trace(unvec(x)).real * eyev
        if prev is not None and np.max(np.abs(x - prev)) < 1e-16:
            break
        prev = x.copy()
    return unvec(x)


# =====================================================================
def test_criterion_01_filter_identities():
    nu_grid = np.concatenate([np.linspace(-6 / BETA, 6 / BETA, 121), [0.0]])
    lhs = gs.filter_freq(F, nu_grid)
    rhs = np.exp(-BETA * nu_grid / 2) * gs.filter_freq(F, -nu_grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-12

    # quadrature normalization of the filter pair: the frequency-domain
    # square integral is exactly 1 (the time-domain integral is 1/(2 pi))
    nu = np.linspace(-60 / BETA, 60 / BETA, 400001)
    norm_nu = np.trapezoid(gs.filter_freq(F, nu) ** 2, nu)
    assert abs(norm_nu - 1.0) < 1e-8
    t = np.linspace(-10 * BETA, 10 * BETA, 80001)
    g = gs.filter_time(F, t)
    norm_t = np.trapezoid(np.abs(g) ** 2, t)
    assert abs(norm_t - 1.0 / (2 * np.pi)) < 1e-10

    for nu_val in (-3.0, -1.0, -0.25, 0.0, 0.7, 2.0):
        ft = np.trapezoid(np.exp(1j * nu_val * t) * g, t)
        assert abs(ft - float(gs.filter_freq(F, nu_val))) < 1e-8
    report(1, "eta DB identity to 1e-12; filter normalization and Fourier pair to 1e-8")


@pytest.mark.xfail(
    strict=True,
    reason="the stated time-domain normalization integral of the pinned filter "
    "formula evaluates to 1/(2 pi), not 1; the frequency-domain filter carries "
    "the unit normalization (see decisions ledger)",
)
def test_criterion_01_time_domain_normalization_as_stated():
    t = np.linspace(-10 * BETA, 10 * BETA, 80001)
    norm_t = np.trapezoid(np.abs(gs.filter_time(F, t)) ** 2, t)
    assert abs(norm_t - 1.0) < 1e-8


# =====================================================================
def test_criterion_02_exact_db_oracle():
    setup = lindblad_setup("CH", 3, 10)
    g_ckg = gs.ckg_coherent_term(setup["jump_set"], setup["spec"], F, setup["bohr"])
    resid_ckg = gs.trace_norm(
        apply_lindbladian(setup["sigma"], g_ckg, setup["lindblads"], setup["gammas"])
    )
    assert resid_ckg < 1e-9

    means = []
    for count in (5, 20, 50):
        vals = []
        for seed in (0, 1, 2):
            s = lindblad_setup("CH", 3, count, seed=seed)
            vals.append(
                gs.trace_norm(
                    apply_lindbladian(s["sigma"], s["ham"], s["lindblads"], s["gammas"])
                )
            )
        means.append(float(np.mean(vals)))
    assert all(m > 0 for m in means)
    assert means[0] > means[1] > means[2]
    report(
        2,
        f"CKG residual {resid_ckg:.1e} < 1e-9; G=H residual falls "
        f"{means[0]:.1e} > {means[1]:.1e} > {means[2]:.1e} over |A|=5,20,50",
    )


# =====================================================================
def test_criterion_03_gap_uniqueness_and_scaling():
    gaps = {}
    for n in (3, 4, 5):
        result = gap_setup("CH", n, 20)["gap_result"]
        assert result.zero_count == 1
        assert result.gap > 0
        nonzero = result.eigenvalues[np.abs(result.eigenvalues) > result.zero_tol]
        assert np.max(nonzero.real) < result.zero_tol
        gaps[n] = result.gap
    kappa, _, _ = gs.power_law_fit(list(gaps), list(gaps.values()))
    assert -2.0 <= kappa <= -0.5
    report(3, f"unique zero mode at n=3..5; gap exponent {kappa:.2f} in [-2, -0.5]")


# =====================================================================
def test_criterion_04_accuracy_scaling_with_jump_count():
    counts = (5, 10, 20, 50, 100)
    dists = []
    for count in counts:
        setup = gap_setup("CH", 5, count)
        dists.append(gs.trace_distance(setup["gap_result"].steady_state, setup["sigma"]))
    kappa, _, _ = gs.power_law_fit(counts, dists)
    assert -0.6 <= kappa <= -0.05

    reg2 = gap_setup("REG2", 5, 20)
    reg2_dist = gs.trace_distance(reg2["gap_result"].steady_state, reg2["sigma"])
    ch_dist = dists[2]
    assert reg2_dist < ch_dist / 10
    report(
        4,
        f"accuracy exponent {kappa:.2f} in [-0.6, -0.05]; REG2 distance "
        f"{reg2_dist:.1e} vs CH {ch_dist:.1e}",
    )


# =====================================================================
def test_criterion_05_mixing_time_scaling():
    horizons = {3: 400.0, 4: 500.0, 5: 600.0, 6: 800.0}
    ch = {}
    for n in (3, 4, 5, 6):
        rec = mixing_record("CH", n, horizons[n], 0.005)
        est = gs.mixing_time_estimate(rec, eps=1e-2)
        assert est is not gs.NOT_CONVERGED
        ch[n] = est
    assert all(ch[n] < ch[n + 1] for n in (3, 4, 5))
    kappa, _, _ = gs.power_law_fit(list(ch), list(ch.values()))
    assert 0.9 <= kappa <= 1.9

    for n in (3, 4):
        rec = mixing_record("REG", n, 20000.0, 0.005)
        reg_est = gs.mixing_time_estimate(rec, eps=1e-2)
        assert reg_est is not gs.NOT_CONVERGED
        assert reg_est >= 5 * ch[n]
    report(
        5,
        f"CH t_mix(n=3..6) = {[round(ch[n], 1) for n in (3, 4, 5, 6)]}, "
        f"exponent {kappa:.2f} in 1.4 +- 0.5; REG/CH ratio >= 5 at n=3,4",
    )


# =====================================================================
def test_criterion_06_solver_stability_gate():
    setup = lindblad_setup("CH", 5, 20)
    args = (setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(5))

    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=10, t_max=30.0, seed=3)
    rec = gs.evolve_randomized(*args, cfg, setup["sigma"])
    assert rec.final_dt_rk == pytest.approx(0.125)
    assert rec.halvings == 1

    cfg_low = gs.SolverConfig(dt_rk0=0.2, n_traj=4, t_max=40.0, seed=3)
    rec_low = gs.evolve_randomized(*args, cfg_low, setup["sigma"])
    assert rec_low.halvings == 0
    assert rec_low.avg_distance[-1] < rec_low.avg_distance[0]

    cfg_high = gs.SolverConfig(dt_rk0=0.3, n_traj=4, t_max=40.0, seed=3)
    rec_high = gs.evolve_randomized(*args, cfg_high, setup["sigma"])
    assert rec_high.halvings >= 1
    report(
        6,
        "CH n=5 accepts J dt_rk = 0.125 from start 0.25; stable at 0.2, "
        f"diverges at 0.3 (halvings {rec_high.halvings})",
    )


# =====================================================================
def test_criterion_07_order_checks(rng):
    # RK4 global order on pure coherent evolution
    setup = point_setup("CH", 3)
    ham, spec = setup["ham"], setup["spec"]
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    rho0 = np.outer(v, v.conj())

    def propagate(dt):
        gen = lambda r: -1j * (ham @ r - r @ ham)
        rho = rho0.copy()
        for _ in range(int(round(1.0 / dt))):
            rho = gs.rk4_step(rho, gen, dt)
        return rho

    u = gs.expm_phase(spec, 1.0)
    exact = u @ rho0 @ u.conj().T
    rk4_ratio = np.max(np.abs(propagate(0.02) - exact)) / np.max(
        np.abs(propagate(0.01) - exact)
    )
    assert 16 * 0.7 <= rk4_ratio <= 16 * 1.3

    # dilation identity order
    lset = lindblad_setup("CH", 3, 5)
    L = lset["lindblads"][0]
    kspec = gs.eig_hermitian(gs.dilation_discrete(L))
    sup = gs.build_superop(None, [L], [1.0])
    rho = random_density_matrix(8, rng)

    def dilation_err(dt):
        u_k = gs.expm_phase(kspec, np.sqrt(dt))
        big = np.zeros((16, 16), dtype=complex)
        big[:8, :8] = rho
        lhs = gs.partial_trace_ancilla(u_k @ big @ u_k.conj().T)
        rhs = unvec(scipy.linalg.expm(dt * sup.matrix) @ vec(rho))
        return np.max(np.abs(lhs - rhs))

    dil_ratio = dilation_err(0.1) / dilation_err(0.05)
    assert 4 * 0.7 <= dil_ratio <= 4 * 1.3

    # product formula vs dense exponential of the dilation
    pset = point_setup("CH", 2)
    a = gs.sample_jump_set(2, 2, 1, seed=1)[0]

    def v_err(dt_ev):
        cfg = CircuitConfig(dt_ev=dt_ev, dt_oft=0.1, T=1.6, jump_count=1, seed=1, beta=BETA)
        v_mat = gs.step_V(a, cfg, pset["spec"])
        return np.linalg.norm(v_mat - step_v_reference(a, cfg, pset["spec"]), 2)

    v_ratio = v_err(0.1) / v_err(0.05)
    assert 4 * 0.7 <= v_ratio <= 4 * 1.3
    report(
        7,
        f"halving ratios: RK4 {rk4_ratio:.1f} (~16), dilation {dil_ratio:.2f} (~4), "
        f"product formula {v_ratio:.2f} (within 4 +- 30%)",
    )


# =====================================================================
def test_criterion_08_circuit_vs_exact():
    setup = gap_setup("CH", 3, 10)
    base = dict(
        dt_oft=0.05, T=1.6, t_max=500.0, jump_count=10, k=2,
        seed=0, beta=BETA, n_rep=10, grid_points=250,
    )
    rec = gs.simulate_protocol(
        setup["ham"], CircuitConfig(dt_ev=0.05, **base), NoiseSpec(), setup["sigma"]
    )
    dist_main = gs.trace_distance(rec.final_avg_state, setup["gap_result"].steady_state)
    assert dist_main <= 5e-2

    plateaus = []
    for dt_ev in (0.05, 0.0158, 0.005):
        r = gs.simulate_protocol(
            setup["ham"], CircuitConfig(dt_ev=dt_ev, **base), NoiseSpec(), setup["sigma"]
        )
        plateaus.append(plateau_level(r))
    assert plateaus[0] > plateaus[1] > plateaus[2]

    flat = []
    for dt_oft in (0.25, 0.16, 0.1, 0.05):
        cfg = CircuitConfig(dt_ev=1.0, **{**base, "dt_oft": dt_oft})
        r = gs.simulate_protocol(setup["ham"], cfg, NoiseSpec(), setup["sigma"])
        flat.append(plateau_level(r))
    spread = (max(flat) - min(flat)) / np.mean(flat)
    assert spread < 0.35
    report(
        8,
        f"|rho_circ - rho_inf| = {dist_main:.2e} <= 5e-2; plateau monotone over "
        f"the dt decade {[f'{p:.1e}' for p in plateaus]}; Dt-independence spread "
        f"{spread:.0%} at J dt = 1",
    )


# =====================================================================
def test_criterion_09_oft_discretization_taxonomy():
    setup = lindblad_setup("CH", 3, 5, seed=2)
    a = setup["jump_set"][0]
    exact = setup["lindblads"][0]
    T = 1.6

    def err(dt):
        bar = gs.lindblad_op_discretized(a, setup["spec"], F, T=T, S=round(T / dt))
        return np.linalg.norm(bar - exact, 2)

    e_01 = err(0.1)
    assert e_01 < 1e-3
    e_02, e_032, e_04 = err(0.2), err(0.32), err(0.4)
    assert e_04 > e_032 > e_02
    assert e_032 / e_02 > 1e3  # aliasing blow-up above J Dt ~ 0.25
    report(
        9,
        f"||Lbar - L|| = {e_01:.1e} at J Dt = 0.1; steep rise "
        f"{e_02:.1e} -> {e_032:.1e} -> {e_04:.1e} across J Dt = 0.2, 0.32, 0.4",
    )


# =====================================================================
def test_criterion_10_noise_bounds_on_exact_channel():
    setup, channel, fit = channel_iteration_fit()
    n = 3
    bounds = []
    for lam in (1e-3, 1e-2, 1e-1):
        rho_inf = noisy_channel_fixed_point(channel, lam, n)
        dist = gs.trace_distance(rho_inf, setup["sigma"])
        bound = gs.bound_asymptotic(fit, lam)
        assert dist <= bound
        bounds.append(bound)

        # measured noisy convergence rate vs alpha - ln(1 - lam)
        eyev = vec(np.eye(2**n) / 2**n)
        x = vec(gs.maximally_mixed(n))
        decay = []
        for _ in range(600):
            x = channel @ x
            x = (1 - lam) * x + lam * np.trace(unvec(x)).real * eyev
            decay.append(gs.trace_distance(unvec(x), rho_inf))
        decay = np.array(decay)
        good = decay > max(10 * decay.min(), 1e-12)
        slope, _ = np.polyfit(np.arange(600)[good], np.log(decay[good]), 1)
        predicted = gs.noisy_rate(fit, lam)
        assert abs(-slope - predicted) / predicted < 0.10
    assert bounds[0] < bounds[1] < bounds[2]
    report(
        10,
        f"fixed-point distances bounded for lam = 1e-3, 1e-2, 1e-1 "
        f"(bounds {[f'{b:.3f}' for b in bounds]}); noisy rate within 10%",
    )


# =====================================================================
def test_criterion_11_bound_orderings():
    _, _, fit = channel_iteration_fit()
    n_g = 150  # 50 n at n = 3
    checked = 0
    for lam in np.geomspace(1e-5, 1e-3, 7):
        asymptotic = gs.bound_asymptotic(fit, lam)
        if asymptotic > 0.2:
            continue
        generic = gs.bound_generic(fit, lam)
        lam_g = 1 - (1 - lam) ** (1 / n_g)
        unitary = gs.bound_unitary_comparison(fit, lam_g, n_g)
        assert generic >= asymptotic and generic / asymptotic > 1.5
        assert unitary >= asymptotic and unitary / asymptotic > 1.5
        checked += 1
    assert checked >= 5
    report(11, f"generic and unitary bounds exceed the stochastic bound (>1.5x) at {checked} noise levels")


# =====================================================================
def test_criterion_12_noisy_circuit_tradeoff():
    setup = point_setup("CH", 5)
    rec = mixing_record("CH", 5, 600.0, None)
    fit_time = fit_convergence(rec.times, rec.avg_distance)

    lambdas = (1e-6, 1e-5, 1e-4)
    dts = (1.0, 3.0, 5.0)
    measured, d0 = {}, {}
    for dt_ev in dts:
        cfg = CircuitConfig(
            dt_ev=dt_ev, dt_oft=0.2, T=1.6, t_max=500.0, jump_count=10, k=2,
            seed=0, beta=BETA, n_rep=10, grid_points=100,
        )
        r0 = gs.simulate_protocol(setup["ham"], cfg, NoiseSpec(), setup["sigma"])
        d0[dt_ev] = plateau_level(r0)
        for lam_g in lambdas:
            noise = NoiseSpec(kind="depolarizing_budget", lambda_g=lam_g)
            r = gs.simulate_protocol(setup["ham"], cfg, noise, setup["sigma"])
            measured[(lam_g, dt_ev)] = plateau_level(r)
            n_g = gs.gate_count(noise, 5, dt_ev)
            lam = 1 - (1 - lam_g) ** n_g
            fit_step = replace(fit_time, alpha=fit_time.alpha * dt_ev)
            bound = gs.bound_asymptotic(fit_step, lam) + d0[dt_ev]
            assert measured[(lam_g, dt_ev)] <= bound

    best_low = min(dts, key=lambda dt: measured[(1e-6, dt)])
    best_high = min(dts, key=lambda dt: measured[(1e-4, dt)])
    assert best_low == 1.0
    assert best_high == 5.0
    report(
        12,
        f"distance curves cross: best dt 1.0 at lam_g = 1e-6 vs 5.0 at 1e-4; "
        f"B(N_g) + d0 bounds all nine grid points",
    )


# =====================================================================
def test_criterion_13_chaos_diagnostics():
    from gibbsim.chaos import fractal_stats, ratios_from_levels

    ch = point_setup("CH", 8)
    reg = point_setup("REG", 8)
    d1_ch = fractal_stats(ch["ham"], "Z" * 8).mean
    d1_reg = fractal_stats(reg["ham"], "Z" * 8).mean
    assert d1_ch > d1_reg

    stats = gs.spacing_ratios(ch["ham"])
    assert abs(stats.mean_r - 0.5307) < 0.03

    ladder = ratios_from_levels(np.arange(40, dtype=float), scale=40.0)
    assert np.allclose(ladder.ratios, 1.0)
    report(
        13,
        f"E[D1]: CH {d1_ch:.3f} > REG {d1_reg:.3f}; CH mean spacing ratio "
        f"{stats.mean_r:.4f} within 0.03 of 0.5307; ladder ratios all 1",
    )


# =====================================================================
def test_criterion_14_markov_restriction_and_cheeger():
    rows = []
    for n in (3, 4):
        setup = gap_setup("CH", n, 20)
        mc = markov_restriction(setup["superop"], setup["spec"], setup["sigma"])
        assert np.max(np.abs(mc.P.sum(axis=1) - 1.0)) < 1e-12
        res = conductance_cheeger(mc, exhaustive_limit=16)
        assert res.exhaustive
        assert res.phi**2 / 2 <= res.gap_P <= 2 * res.phi
        rows.append((n, res.phi, res.gap_P))
    report(
        14,
        "; ".join(
            f"n={n}: phi={phi:.3f}, gap={gap:.3f}, sandwich holds" for n, phi, gap in rows
        ),
    )


# =====================================================================
def test_criterion_15_cross_solver_consistency():
    setup = lindblad_setup("CH", 4, 20)
    t_max = 400.0
    cfg_dm = gs.SolverConfig(
        dt_rk0=RK_STEP_TABLE["CH"][4], n_traj=10, t_max=t_max, seed=5,
        grid_points=50, state_blocks=10,
    )
    rec_dm = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(4), cfg_dm, setup["sigma"],
    )
    cfg_mc = gs.SolverConfig(
        dt_rk0=0.2, n_traj=500, t_max=t_max, seed=5, grid_points=50, state_blocks=10
    )
    rec_mc = gs.mcwf_evolve(
        setup["ham"], list(setup["lindblads"]), setup["gammas"], None, cfg_mc, setup["sigma"],
    )

    def jackknife_sigma(states, target):
        m = states.shape[0]
        full = states.mean(axis=0)
        out = np.zeros(states.shape[1])
        for t_idx in range(states.shape[1]):
            loo = [
                gs.trace_distance((m * full[t_idx] - states[i, t_idx]) / (m - 1), target)
                for i in range(m)
            ]
            loo = np.array(loo)
            out[t_idx] = np.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2))
        return out

    sig_mc = jackknife_sigma(rec_mc.traj_states, setup["sigma"])
    sig_dm_native = jackknife_sigma(rec_dm.traj_states, setup["sigma"])
    d_dm = np.interp(rec_mc.times, rec_dm.times, rec_dm.avg_distance)
    sig_dm = np.interp(rec_mc.times, rec_dm.times, sig_dm_native)

    plateau_mc = float(np.mean(rec_mc.avg_distance[-8:]))
    plateau_dm = float(np.mean(rec_dm.avg_distance[-8:]))
    pre = rec_mc.avg_distance > 4 * plateau_mc
    assert pre.sum() >= 4
    gap = np.abs(d_dm - rec_mc.avg_distance) - 3 * (sig_mc + sig_dm)
    assert np.max(gap[pre]) <= 0
    assert plateau_dm < plateau_mc
    report(
        15,
        f"{int(pre.sum())} pre-plateau points agree within 3 sigma; plateau "
        f"dmRK4 {plateau_dm:.1e} below MCWF {plateau_mc:.1e}",
    )
