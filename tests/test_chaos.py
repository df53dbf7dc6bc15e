import numpy as np
import pytest

import gibbsim as gs
from gibbsim.chaos import (
    even_sector_basis,
    fractal_stats,
    preset_bases,
    ratios_from_levels,
)
from gibbsim.errors import DegenerateSpectrum

from conftest import point_setup


# ------------------------------------------------------- fractal dimensions
def test_fractal_dimension_uniform_state():
    n = 6
    amp = np.full(2**n, 2 ** (-n / 2))
    for q in (1, 2, 3):
        assert gs.fractal_dimension(amp, q) == pytest.approx(1.0, abs=1e-12)


def test_fractal_dimension_single_basis_state():
    amp = np.zeros(64)
    amp[13] = 1.0
    for q in (1, 2):
        assert gs.fractal_dimension(amp, q) == pytest.approx(0.0, abs=1e-12)


def test_fractal_dimension_two_state_superposition():
    n = 5
    amp = np.zeros(2**n)
    amp[3] = amp[17] = 1 / np.sqrt(2)
    assert gs.fractal_dimension(amp, 1) == pytest.approx(1 / n, abs=1e-12)


def test_fractal_dimension_requires_normalization():
    with pytest.raises(ValueError):
        gs.fractal_dimension(np.ones(4), 1)


def test_renyi_hierarchy_d2_below_d1(rng):
    for _ in range(10):
        amp = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        amp /= np.linalg.norm(amp)
        assert gs.fractal_dimension(amp, 2) <= gs.fractal_dimension(amp, 1) + 1e-10


def test_eigenbasis_amplitudes_give_zero_dimension():
    # pathological window: expanding eigenstates in the eigenbasis itself
    setup = point_setup("CH", 4)
    for i in range(0, 16, 5):
        amp = np.eye(16)[i]
        assert gs.fractal_dimension(amp, 1) == pytest.approx(0.0, abs=1e-12)


def test_fractal_stats_windows_and_determinism():
    setup = point_setup("CH", 5)
    by_energy = fractal_stats(setup["spec"], "Z" * 5, window_kind="energy")
    by_index = fractal_stats(setup["spec"], "Z" * 5, window_kind="index")
    again = fractal_stats(setup["spec"], "Z" * 5, window_kind="energy")
    assert np.array_equal(by_energy.per_state_D, again.per_state_D)
    assert len(by_index.per_state_D) == round(0.8 * 32)
    assert len(by_energy.per_state_D) >= len(by_index.per_state_D) - 8
    assert 0 <= by_energy.mean <= 1


def test_preset_bases_are_deterministic():
    assert preset_bases(8) == preset_bases(8)
    assert preset_bases(8)["z"] == "Z" * 8
    assert len(preset_bases(6)) == 5


# --------------------------------------------------------- spacing ratios
def test_harmonic_ladder_all_ratios_one():
    stats = ratios_from_levels(np.arange(30, dtype=float), scale=30.0)
    assert np.allclose(stats.ratios, 1.0)
    assert stats.mean_r == pytest.approx(1.0)


def test_ratios_shift_and_scale_invariant(rng):
    levels = np.sort(rng.standard_normal(40))
    base = ratios_from_levels(levels)
    shifted = ratios_from_levels(5.0 + 2.5 * levels)
    assert np.allclose(base.ratios, shifted.ratios)


def test_ratios_reject_degenerate():
    with pytest.raises(DegenerateSpectrum):
        ratios_from_levels(np.array([0.0, 1.0, 1.0, 2.0]), scale=2.0)


def even_sector_basis_loop(n):
    """The per-state loop that `even_sector_basis` replaced: each basis
    state x not yet seen, its reversal y built bit by bit, gives one
    column."""
    dim = 2**n
    cols = []
    seen = set()
    for x in range(dim):
        if x in seen:
            continue
        bits = [(x >> k) & 1 for k in range(n)]
        y = 0
        for k, b in enumerate(bits[::-1]):
            y |= b << k
        seen.add(x)
        v = np.zeros(dim, dtype=complex)
        if y == x:
            v[x] = 1.0
        else:
            seen.add(y)
            v[x] = v[y] = 1.0 / np.sqrt(2.0)
        cols.append(v)
    return np.column_stack(cols)


@pytest.mark.parametrize("n", range(1, 11))
def test_even_sector_basis_is_the_per_state_loop_bitwise(n):
    basis, loop = even_sector_basis(n), even_sector_basis_loop(n)
    assert basis.dtype == loop.dtype and basis.tobytes() == loop.tobytes()
    assert basis.shape == loop.shape


def test_even_sector_dimension():
    basis = even_sector_basis(4)
    assert basis.shape == (16, 10)  # 4 palindromes + 6 orbit pairs
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(10))) < 1e-12


def test_spacing_ratios_requires_enough_qubits():
    setup = point_setup("CH", 3)
    with pytest.raises(ValueError):
        gs.spacing_ratios(setup["ham"])


def test_spacing_ratios_of_a_zero_hamiltonian_are_degenerate():
    # every level sits at 0, so no spacing ratio exists
    with pytest.raises(DegenerateSpectrum):
        gs.spacing_ratios(np.zeros((16, 16)))


def test_spacing_ratios_ch_midscale():
    setup = point_setup("CH", 6)
    stats = gs.spacing_ratios(setup["ham"])
    assert 0.3 < stats.mean_r < 0.7
    assert np.all((stats.ratios > 0) & (stats.ratios <= 1))


# ------------------------------------------------------------- ETH statistics
def test_eth_identity_observable():
    setup = point_setup("CH", 5)
    stats = gs.eth_statistics(np.eye(32), setup["spec"])
    assert np.nanmax(np.abs(stats.diag_mean - 1.0)) < 1e-12
    filled = stats.off_count > 0
    assert np.nanmax(stats.off_mean_sq[filled]) < 1e-24


def test_eth_offdiagonal_means_near_zero_for_chaotic_point():
    setup = point_setup("CH", 6)
    a = gs.PauliString(n=6, sites=(3,), letters=("Z",))
    stats = gs.eth_statistics(a, setup["spec"], e_bins=6, nu_bins=6)
    good = stats.off_count >= 30
    z_re = np.abs(stats.off_mean_re[good]) / stats.off_sem[good]
    frac_within = np.mean(z_re <= 3.0)
    assert frac_within >= 0.85  # multiplicity-aware 3-sigma consistency
    assert np.max(z_re) < 6.0


def test_eth_diagonal_profile_reported_for_both_regimes():
    # the step structure of the REG diagonal is an observation to report,
    # not an asserted inequality; here we only check both profiles come out
    # well-formed at matched binning
    for key in ("REG", "CH"):
        setup = point_setup(key, 6)
        a = gs.PauliString(n=6, sites=(3,), letters=("Z",))
        stats = gs.eth_statistics(a, setup["spec"], e_bins=8, nu_bins=4)
        prof = stats.diag_mean[stats.diag_count > 0]
        assert prof.size >= 6
        assert np.all(np.isfinite(prof))
        assert np.all(np.abs(prof) <= 1 + 1e-12)


def eth_statistics_loops(a, spec, e_bins=8, nu_bins=8):
    """The two hand-written bin loops that `eth_statistics` replaced: the
    diagonal profile and the off-diagonal table, one bin at a time."""
    tilde = spec.to_eigenbasis(np.asarray(a))
    w = spec.values

    edges = np.linspace(w[0], w[-1], e_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    which = np.clip(np.searchsorted(edges, w, side="right") - 1, 0, e_bins - 1)
    diag = np.real(np.diag(tilde))
    diag_mean = np.full(e_bins, np.nan)
    diag_count = np.zeros(e_bins, dtype=int)
    for b in range(e_bins):
        sel = which == b
        diag_count[b] = sel.sum()
        if diag_count[b]:
            diag_mean[b] = diag[sel].mean()

    ii, jj = np.meshgrid(np.arange(len(w)), np.arange(len(w)), indexing="ij")
    off = ii != jj
    e_avg = 0.5 * (w[ii] + w[jj])[off]
    nu = (w[ii] - w[jj])[off]
    vals = tilde[off]

    e_edges = np.linspace(e_avg.min(), e_avg.max(), e_bins + 1)
    nu_edges = np.linspace(nu.min(), nu.max(), nu_bins + 1)
    be = np.clip(np.searchsorted(e_edges, e_avg, side="right") - 1, 0, e_bins - 1)
    bn = np.clip(np.searchsorted(nu_edges, nu, side="right") - 1, 0, nu_bins - 1)

    shape = (e_bins, nu_bins)
    mean_re = np.full(shape, np.nan)
    mean_im = np.full(shape, np.nan)
    mean_sq = np.full(shape, np.nan)
    sem = np.full(shape, np.nan)
    count = np.zeros(shape, dtype=int)
    flat = be * nu_bins + bn
    for b in range(e_bins * nu_bins):
        sel = flat == b
        c = int(sel.sum())
        i, j = divmod(b, nu_bins)
        count[i, j] = c
        if c:
            chunk = vals[sel]
            mean_re[i, j] = chunk.real.mean()
            mean_im[i, j] = chunk.imag.mean()
            mean_sq[i, j] = float(np.mean(np.abs(chunk) ** 2))
            sem[i, j] = float(np.abs(chunk).std() / np.sqrt(c)) if c > 1 else np.nan
    return {
        "diag_centers": centers,
        "diag_mean": diag_mean,
        "diag_count": diag_count,
        "off_e_centers": 0.5 * (e_edges[:-1] + e_edges[1:]),
        "off_nu_centers": 0.5 * (nu_edges[:-1] + nu_edges[1:]),
        "off_mean_re": mean_re,
        "off_mean_im": mean_im,
        "off_mean_sq": mean_sq,
        "off_sem": sem,
        "off_count": count,
    }


@pytest.mark.parametrize(
    "key, n, observable, bins",
    [
        ("CH", 5, "Z", (8, 8)),
        ("CH", 6, "Z", (6, 6)),
        ("REG", 6, "Z", (8, 4)),
        ("TFIM", 5, "identity", (8, 8)),
        ("CH", 6, "random", (7, 5)),
    ],
)
def test_eth_statistics_matches_the_bin_loops(key, n, observable, bins):
    # bin sums in another order than np.mean: each field matches to 1e-12
    # of its largest entry, the counts and empty bins exactly
    spec = point_setup(key, n)["spec"]
    rng = np.random.default_rng(n)
    a = {
        "Z": np.asarray(gs.PauliString(n=n, sites=(n // 2,), letters=("Z",))),
        "identity": np.eye(2**n),
        "random": rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n)),
    }[observable]
    stats = gs.eth_statistics(a, spec, *bins)
    for field, want in eth_statistics_loops(a, spec, *bins).items():
        got = getattr(stats, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        if field.endswith("count"):
            assert np.array_equal(got, want), field
            continue
        filled = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), ~filled), field
        scale = np.max(np.abs(want[filled]), initial=0.0)
        assert np.max(np.abs(got[filled] - want[filled]), initial=0.0) <= 1e-12 * scale, field
