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


def test_even_sector_dimension():
    basis = even_sector_basis(4)
    assert basis.shape == (16, 10)  # 4 palindromes + 6 orbit pairs
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(10))) < 1e-12


def test_spacing_ratios_requires_enough_qubits():
    setup = point_setup("CH", 3)
    with pytest.raises(ValueError):
        gs.spacing_ratios(setup["ham"])


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
