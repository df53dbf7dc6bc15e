import numpy as np
import pytest

import gibbsim as gs
from gibbsim.errors import InsufficientDecay
from gibbsim.noisefit import ErrorFitParams, error_model


def synthetic_fit(B=2.0, alpha=0.01, n=400, floor=1e-9):
    steps = np.arange(n, dtype=float)
    return gs.fit_convergence(steps, B * np.exp(-alpha * steps) + floor)


# ------------------------------------------------------------ fit_convergence
def test_fit_recovers_exact_exponential():
    fit = synthetic_fit()
    assert fit.B == pytest.approx(2.0, rel=0.01)
    assert fit.alpha == pytest.approx(0.01, rel=0.01)
    assert fit.B_lsq == pytest.approx(2.0, rel=0.01)


def test_fit_constant_series_rejected():
    with pytest.raises(InsufficientDecay):
        gs.fit_convergence(np.arange(50.0), np.full(50, 0.3))


def test_fit_shallow_decay_rejected():
    steps = np.arange(50.0)
    with pytest.raises(InsufficientDecay):
        gs.fit_convergence(steps, 1.0 - 0.001 * steps)


def test_fit_envelope_dominates_window():
    rng = np.random.default_rng(3)
    steps = np.arange(300, dtype=float)
    wiggle = np.exp(0.2 * rng.standard_normal(300))
    series = 1.5 * np.exp(-0.03 * steps) * wiggle + 1e-8
    fit = gs.fit_convergence(steps, series)
    lo, hi = fit.fit_window
    window = (steps >= lo) & (steps <= hi)
    envelope = fit.B * np.exp(-fit.alpha * steps)
    assert np.all(series[window] <= envelope[window] * (1 + 1e-12))
    assert fit.B >= fit.B_lsq


# ---------------------------------------------------------- asymptotic bound
def test_bound_asymptotic_limits():
    fit = synthetic_fit()
    assert gs.bound_asymptotic(fit, 1e-12) < 1e-9
    big_alpha = synthetic_fit(B=1.7, alpha=40.0, n=10, floor=0.0)
    assert gs.bound_asymptotic(big_alpha, 0.2) == pytest.approx(big_alpha.B * 0.2, rel=1e-10)
    for lam in (0.01, 0.3, 1.0):
        assert 0 < gs.bound_asymptotic(fit, lam) <= fit.B + 1e-12


# -------------------------------------------------------------- generic bound
def test_bound_generic_log_vs_linear_growth():
    lam, alpha = 1e-3, 0.02
    small = ErrorFitParams  # unused; keep namespace quiet
    fit_small = synthetic_fit(B=0.5, alpha=alpha)
    fit_large = synthetic_fit(B=0.5, alpha=alpha)
    # at fixed (lam, alpha), generic grows ~log B while asymptotic grows ~B
    from dataclasses import replace

    b_grid = [0.5, 5.0, 50.0, 500.0]
    gen = [gs.bound_generic(replace(fit_small, B=b), lam) for b in b_grid]
    asy = [gs.bound_asymptotic(replace(fit_small, B=b), lam) for b in b_grid]
    assert gen[-1] < asy[-1]
    assert gs.bound_generic(replace(fit_small, B=0.5), 1e-12) < 1e-8


def test_unitary_comparison_limits_and_rate():
    fit = synthetic_fit(B=1.2, alpha=0.02)
    n_g = 150
    small = gs.bound_unitary_comparison(fit, 1e-12, n_g)
    assert small < 1e-6
    lam = 0.01
    assert gs.noisy_rate(fit, lam) == pytest.approx(fit.alpha - np.log(1 - lam), rel=1e-12)
    assert gs.noisy_rate(fit, lam) > fit.alpha


def test_effective_gates_recovered_within_5_percent():
    fit = synthetic_fit(B=1.5, alpha=0.03)
    d0 = 0.01
    n_true = 170
    data = []
    for lg in (1e-6, 1e-5, 1e-4):
        lam = 1 - (1 - lg) ** n_true
        data.append((lg, gs.bound_asymptotic(fit, lam) + d0))
    n_eff = gs.fit_effective_gates(data, fit, d0)
    assert abs(n_eff - n_true) / n_true < 0.05


def test_effective_gates_requires_three_levels():
    fit = synthetic_fit()
    with pytest.raises(ValueError):
        gs.fit_effective_gates([(1e-5, 0.1), (1e-4, 0.2)], fit, 0.0)


# -------------------------------------------------------------- error model
def test_error_model_fit_recovery_within_10_percent_log():
    true = ErrorFitParams(a1=2.6e-3, a2=1.8e-2, a3=4.1e-4, a4=1.5e-4)
    T, beta, h_norm, bohr_count = 1.6, 0.5, 6.7, 400
    grid = [
        (dt_ev, dt_oft, error_model(true, dt_ev, dt_oft, T, beta, h_norm, bohr_count))
        for dt_ev in np.geomspace(0.01, 0.3, 6)
        for dt_oft in np.geomspace(0.06, 0.37, 8)
    ]
    fit = gs.fit_error_model(grid, T, beta, h_norm, bohr_count)
    for got, want in zip((fit.a1, fit.a2, fit.a3, fit.a4), (true.a1, true.a2, true.a3, true.a4)):
        assert abs(np.log10(got / want)) < 0.1


def test_error_model_divergence_guard_excludes_points():
    # points with 2 pi beta / dt - 2 beta ||H|| - 1 <= 0 must be dropped
    T, beta, h_norm, bohr_count = 1.6, 0.5, 6.7, 400
    limit = 2 * np.pi * beta / (2 * beta * h_norm + 1.0)
    true = ErrorFitParams(a1=1e-3, a2=1e-2, a3=1e-4, a4=1e-4)
    good = [
        (dt_ev, dt_oft, error_model(true, dt_ev, dt_oft, T, beta, h_norm, bohr_count))
        for dt_ev in (0.05, 0.1, 0.2)
        for dt_oft in (0.1, 0.2, 0.3)
    ]
    bad = [(0.1, limit * 1.05, 17.0), (0.2, limit * 2.0, 23.0)]
    fit_clean = gs.fit_error_model(good, T, beta, h_norm, bohr_count)
    fit_mixed = gs.fit_error_model(good + bad, T, beta, h_norm, bohr_count)
    assert fit_clean == fit_mixed


def test_error_model_needs_enough_points():
    with pytest.raises(ValueError):
        gs.fit_error_model([(0.1, 0.1, 0.01)], 1.6, 0.5, 6.7, 400)


def test_power_law_fit():
    x = np.array([3.0, 4.0, 5.0, 6.0])
    y = 2.5 * x**-1.3
    kappa, c, resid = gs.power_law_fit(x, y)
    assert kappa == pytest.approx(-1.3, abs=1e-10)
    assert c == pytest.approx(2.5, rel=1e-10)
    assert resid < 1e-12
    with pytest.raises(ValueError):
        gs.power_law_fit([1.0, -1.0], [1.0, 1.0])
