"""Convergence-curve fits and noise-resilience bound evaluation.

The convergence of the noiseless protocol is summarized by
||rho_M - sigma_beta||_1 <= B e^{-alpha M}; the bounds below propagate a
per-step stochastic error probability through that envelope.

scipy is imported inside the two fits that call it, so that importing
gibbsim loads numpy only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDecay


@dataclass(frozen=True)
class ConvergenceFit:
    """Exponential envelope B e^{-alpha M} of a decaying distance series.

    alpha is the least-squares decay rate; B is lifted to the smallest
    prefactor whose envelope dominates the fitted window, since the noise
    bounds assume distance <= B e^{-alpha M} pointwise.  B_lsq keeps the
    unlifted least-squares prefactor.
    """

    B: float
    alpha: float
    fit_window: tuple
    residual: float
    plateau: float
    B_lsq: float


@dataclass(frozen=True)
class ErrorFitParams:
    """Nonnegative coefficients of the algorithmic-error model."""

    a1: float
    a2: float
    a3: float
    a4: float


def fit_convergence(steps, distances):
    """Least squares of log(distance) against M over the decaying window.

    The plateau level is the median of the last 10% of points; the window
    ends at the first point within twice the plateau.  Raises
    InsufficientDecay when the series never drops a full decade below its
    maximum or the window holds fewer than five points.
    """
    steps = np.asarray(steps, dtype=float)
    d = np.asarray(distances, dtype=float)
    if steps.shape != d.shape or d.ndim != 1:
        raise ValueError("steps and distances must be equal-length vectors")
    # The median by sorting (np.median would load numpy.ma); at odd length
    # both middle indices coincide and 0.5 (x + x) is x exactly.
    tail = np.sort(d[-max(1, int(round(0.1 * len(d)))) :])
    plateau = float(0.5 * (tail[(len(tail) - 1) // 2] + tail[len(tail) // 2]))
    if plateau <= 0 or np.max(d) < 10.0 * plateau:
        raise InsufficientDecay("series never decays a full decade above its plateau")
    below = np.nonzero(d <= 2.0 * plateau)[0]
    end = int(below[0]) if below.size else len(d)
    window = slice(0, end)
    x, y = steps[window], d[window]
    good = y > 0
    x, y = x[good], np.log(y[good])
    if len(x) < 5:
        raise InsufficientDecay(f"only {len(x)} points above the plateau")
    slope, intercept = np.polyfit(x, y, 1)
    if slope >= 0:
        raise InsufficientDecay("window is not decaying")
    resid = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    lift = float(np.max(y - (slope * x + intercept)))
    return ConvergenceFit(
        B=float(np.exp(intercept + lift)),
        alpha=float(-slope),
        fit_window=(float(steps[0]), float(steps[end - 1])),
        residual=resid,
        plateau=plateau,
        B_lsq=float(np.exp(intercept)),
    )


def bound_asymptotic(fit, lam):
    """Steady-state bound B lam / (1 - u0) with u0 = (1 - lam) e^{-alpha}."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    u0 = (1.0 - lam) * math.exp(-fit.alpha)
    return fit.B * lam / (1.0 - u0)


def bound_generic(fit, lam):
    """Channel-distance bound min{B, (2 lam/alpha)(ln(B alpha / 2 lam) + 1)}.

    Evaluated through the constrained optimizer eps* = min{2 lam/alpha, B},
    so the bound degrades gracefully to B instead of turning negative once
    the per-step channel distance dominates the convergence rate.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    if fit.alpha <= 0:
        raise ValueError("need a positive convergence rate")
    c = 2.0 * lam
    eps_star = min(c / fit.alpha, fit.B)
    return (c / fit.alpha) * math.log(fit.B / eps_star) + eps_star


def bound_unitary_comparison(fit, lambda_g, n_g_per_step):
    """Noise floor of a unitary circuit of matched depth.

    Minimizes lam_tot(eps) B + (1 - lam_tot(eps)) eps over eps in (0, B],
    where reaching accuracy eps takes M*(eps) = ln(B/eps)/alpha steps and
    lam_tot = 1 - (1 - lambda_g)^{M* n_g}.  Golden-section search with
    tolerance 1e-6 B.
    """
    if not 0.0 < lambda_g < 1.0:
        raise ValueError("lambda_g must lie in (0, 1)")
    log_keep = math.log1p(-lambda_g)

    def objective(eps):
        m_star = math.log(fit.B / eps) / fit.alpha
        lam_tot = 1.0 - math.exp(m_star * n_g_per_step * log_keep)
        return lam_tot * fit.B + (1.0 - lam_tot) * eps

    # Golden section over log(eps); the objective is unimodal on (0, B].
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = math.log(1e-14 * fit.B), math.log(fit.B)
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = objective(math.exp(x1)), objective(math.exp(x2))
    while math.exp(hi) - math.exp(lo) > 1e-6 * fit.B:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = objective(math.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = objective(math.exp(x2))
    return float(min(f1, f2, objective(fit.B)))


def noisy_rate(fit, lam):
    """Convergence rate of the noisy iteration, alpha - ln(1 - lam)."""
    return fit.alpha - math.log1p(-lam)


def fit_effective_gates(noisy_plateaus, fit, d0):
    """Effective per-step gate count reproducing measured noisy plateaus.

    noisy_plateaus is a list of (lambda_g, distance) pairs; the model
    bound_asymptotic(1 - (1-lambda_g)^N) + d0 is fit to the data by least
    squares in log distance over N > 0.  No CLI experiment calls it; it stays
    in the library because it computes the paper's effective gate count.
    """
    from scipy import optimize

    pairs = [(float(lg), float(dist)) for lg, dist in noisy_plateaus]
    if len(pairs) < 3:
        raise ValueError("need at least three noise levels")

    def loss(log_n):
        n = math.exp(log_n)
        err = 0.0
        for lg, dist in pairs:
            lam = 1.0 - (1.0 - lg) ** n
            model = bound_asymptotic(fit, lam) + d0
            err += (math.log(model) - math.log(dist)) ** 2
        return err

    res = optimize.minimize_scalar(
        loss, bracket=(math.log(1.0), math.log(100.0), math.log(1e6)), method="golden"
    )
    return float(math.exp(res.x))


def _alias_argument(dt_oft, beta, h_norm):
    """2 pi beta/Dt - 2 beta ||H|| - 1, the aliasing exponent's argument."""
    return 2.0 * math.pi * beta / dt_oft - 2.0 * beta * h_norm - 1.0


def in_fit_domain(dt_ev, dt_oft, beta, h_norm):
    """Whether a grid point lies in the validity domain of the error model:
    dt_ev <= 0.3, dt_oft <= 0.37 and a positive aliasing argument."""
    return dt_ev <= 0.3 and dt_oft <= 0.37 and _alias_argument(dt_oft, beta, h_norm) > 0


def _error_features(dt_ev, dt_oft, T, beta, h_norm, bohr_count, coeffs=(1.0, 1.0, 1.0, 1.0)):
    """The four terms of the error ansatz, each times its coefficient: 1,
    dt, T Dt^2/dt and sqrt(beta)|B_H| e^{-(2 pi beta/Dt - 2 beta ||H|| - 1)^2 / 8}.
    With unit coefficients they are the fit's features; the coefficient is
    applied first, as in a3 T Dt^2/dt, so the model keeps its rounding."""
    a1, a2, a3, a4 = coeffs
    dt_ev = np.asarray(dt_ev, dtype=float)
    dt_oft = np.asarray(dt_oft, dtype=float)
    alias = math.sqrt(beta) * bohr_count * np.exp(-(_alias_argument(dt_oft, beta, h_norm) ** 2) / 8.0)
    return a1 * np.ones_like(dt_ev), a2 * dt_ev, a3 * T * dt_oft**2 / dt_ev, a4 * alias


def error_model(params, dt_ev, dt_oft, T, beta, h_norm, bohr_count):
    """Algorithmic-error ansatz
    a1 + a2 dt + a3 T Dt^2/dt + a4 sqrt(beta)|B_H| e^{-(2 pi beta/Dt - 2 beta ||H|| - 1)^2 / 8}."""
    coeffs = (params.a1, params.a2, params.a3, params.a4)
    t1, t2, t3, t4 = _error_features(dt_ev, dt_oft, T, beta, h_norm, bohr_count, coeffs)
    return t1 + t2 + t3 + t4


def fit_error_model(grid, T, beta, h_norm, bohr_count):
    """Fit the four error coefficients in log10 space.

    `grid` is a list of (dt_ev, dt_oft, plateau_distance) triples.  Points
    outside the validity domain of `in_fit_domain` are excluded.
    """
    from scipy import optimize

    pts = [
        (float(dt_ev), float(dt_oft), float(dist))
        for dt_ev, dt_oft, dist in grid
        if in_fit_domain(dt_ev, dt_oft, beta, h_norm)
    ]
    if len(pts) < 4:
        raise ValueError("fewer than four usable grid points")
    dt_ev = np.array([p[0] for p in pts])
    dt_oft = np.array([p[1] for p in pts])
    dist = np.array([p[2] for p in pts])

    features = np.column_stack(_error_features(dt_ev, dt_oft, T, beta, h_norm, bohr_count))
    target = np.log10(dist)

    def loss(log_coeffs):
        model = features @ np.exp(log_coeffs)
        return float(np.sum((np.log10(model) - target) ** 2))

    # Linear least squares seeds the log-space minimization.
    seed, *_ = np.linalg.lstsq(features, dist, rcond=None)
    seed = np.log(np.clip(seed, 1e-12, None))
    res = optimize.minimize(loss, seed, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
    a = np.exp(res.x)
    return ErrorFitParams(a1=float(a[0]), a2=float(a[1]), a3=float(a[2]), a4=float(a[3]))


def power_law_fit(x, y):
    """Fit y = c x^kappa by least squares in log-log space.

    Returns (kappa, c, rms_residual_log).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    kappa, logc = np.polyfit(np.log(x), np.log(y), 1)
    resid = float(np.sqrt(np.mean((kappa * np.log(x) + logc - np.log(y)) ** 2)))
    return float(kappa), float(np.exp(logc)), resid
