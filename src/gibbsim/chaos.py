"""Quantum-chaos diagnostics: fractal dimensions, spacing ratios, ETH statistics."""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum

# Fraction of the spectrum, by energy span or by count, kept by fractal_stats.
BULK_WINDOW = 0.8

# Single-qubit eigenbases, columns ordered by eigenvalue (+1, -1).
_EIGENBASES = {
    "Z": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0),
}


def pauli_product_basis(letters):
    """Unitary whose columns are the joint eigenbasis of a Pauli product string."""
    return functools.reduce(np.kron, [_EIGENBASES[l] for l in letters])


def preset_bases(n):
    """Named scan bases: the Z basis plus four fixed random Pauli strings."""
    out = {"z": "Z" * n}
    for i in range(4):
        rng = np.random.default_rng([918273, n, i])
        out[f"random-{i + 1}"] = "".join("XYZ"[j] for j in rng.integers(0, 3, size=n))
    return out


@dataclass(frozen=True)
class FractalStats:
    per_state_D: np.ndarray
    mean: float
    variance: float
    basis_label: str


@dataclass(frozen=True)
class SpacingStats:
    ratios: np.ndarray
    mean_r: float


def fractal_dimension(amplitudes, q):
    """Finite-size generalized fractal dimension of one normalized state.

    D_q = log_dim(sum_z |psi_z|^{2q}) / (1 - q); the q -> 1 limit is the
    Shannon entropy of |psi_z|^2 normalized by log(dim).
    """
    p = np.abs(np.asarray(amplitudes)) ** 2
    norm = p.sum()
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state not normalized: sum |psi|^2 = {norm}")
    dim = p.shape[0]
    if q == 1:
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum() / np.log(dim))
    return float(np.log((p**q).sum()) / ((1.0 - q) * np.log(dim)))


def _window_mask(values, kind):
    n = len(values)
    if kind == "index":
        drop = int(round(0.5 * (1.0 - BULK_WINDOW) * n))
        mask = np.zeros(n, dtype=bool)
        mask[drop : n - drop] = True
        return mask
    if kind == "energy":
        lo, hi = values[0], values[-1]
        pad = 0.5 * (1.0 - BULK_WINDOW) * (hi - lo)
        return (values >= lo + pad) & (values <= hi - pad)
    raise ValueError(f"unknown window kind {kind!r}")


def fractal_stats(spec, basis_letters, window_kind="energy"):
    """Mean and variance of D_1 over the retained bulk of H's spectrum `spec`.

    The window keeps the inner 80% (BULK_WINDOW) of the spectrum by energy span;
    window_kind='index' switches to an eigenvalue-count window.  Raises
    ValueError when the window holds no eigenstate.
    """
    mask = _window_mask(spec.values, window_kind)
    if not mask.any():
        raise ValueError(f"the {window_kind} window holds no eigenstate")
    basis = pauli_product_basis(basis_letters)
    amps = basis.conj().T @ spec.vectors
    dvals = np.array(
        [fractal_dimension(amps[:, i], 1) for i in np.nonzero(mask)[0]]
    )
    return FractalStats(
        per_state_D=dvals,
        mean=float(dvals.mean()),
        variance=float(dvals.var()),
        basis_label="".join(basis_letters),
    )


def even_sector_basis(n):
    """Orthonormal basis of the even sector of site reversal, as columns:
    (e_x + e_rev(x))/sqrt2, or e_x when x = rev(x), for each x <= rev(x),
    where rev reverses the n bits of the basis state x."""
    x = np.arange(2**n)
    rev = np.zeros_like(x)
    for k in range(n):
        rev |= (x >> k & 1) << (n - 1 - k)
    keep = np.flatnonzero(x <= rev)
    cols = np.arange(len(keep))
    basis = np.zeros((2**n, len(keep)), dtype=complex)
    weight = np.where(rev[keep] == keep, 1.0, 1.0 / np.sqrt(2.0))
    basis[keep, cols] = weight
    basis[rev[keep], cols] = weight
    return basis


def ratios_from_levels(values, scale=None):
    """Consecutive-spacing ratios r_i = min(s_{i+1}/s_i, s_i/s_{i+1})."""
    values = np.sort(np.asarray(values, dtype=float))
    if scale is None:
        scale = max(np.max(np.abs(values)), 1e-300)
    spacings = np.diff(values)
    if np.any(spacings < 1e-12 * scale):
        raise DegenerateSpectrum("spacing below 1e-12 of the spectral scale")
    ratios = np.minimum(spacings[1:] / spacings[:-1], spacings[:-1] / spacings[1:])
    return SpacingStats(ratios=ratios, mean_r=float(ratios.mean()))


def spacing_ratios(ham):
    """Spacing-ratio statistics in the even parity sector of the chain.

    The reflection symmetry of the open chain is removed by projecting onto
    its even sector before collecting ratios.
    """
    ham = np.asarray(ham)
    n = int(round(np.log2(ham.shape[0])))
    if n < 4:
        raise ValueError("need n >= 4 for meaningful spacing statistics")
    basis = even_sector_basis(n)
    h_even = basis.conj().T @ ham @ basis
    values = np.linalg.eigvalsh(0.5 * (h_even + h_even.conj().T))
    return ratios_from_levels(values)


@dataclass(frozen=True)
class ETHStats:
    """Binned matrix-element statistics of an observable in the eigenbasis."""

    diag_centers: np.ndarray
    diag_mean: np.ndarray
    diag_count: np.ndarray
    off_e_centers: np.ndarray
    off_nu_centers: np.ndarray
    off_mean_re: np.ndarray
    off_mean_im: np.ndarray
    off_mean_sq: np.ndarray
    off_sem: np.ndarray
    off_count: np.ndarray


def _bins(x, count):
    """`count` equal bins spanning [min x, max x], the top edge in the last:
    each x's bin and the bins' centers."""
    edges = np.linspace(x.min(), x.max(), count + 1)
    which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, count - 1)
    return which, 0.5 * (edges[:-1] + edges[1:])


def _bin_means(which, count, *columns):
    """Per bin of `which`, with `count` bins: the number of entries and the
    mean of each column, NaN for an empty bin."""
    n = np.bincount(which, minlength=count)
    with np.errstate(invalid="ignore"):
        return n, [np.bincount(which, weights=c, minlength=count) / n for c in columns]


def eth_statistics(a, spec, e_bins=8, nu_bins=8):
    """Diagonal profile and off-diagonal bin statistics of <E_i|A|E_j>:
    A_ii binned by E_i, and A_ij (i != j) by (E_i + E_j)/2 and E_i - E_j.

    No CLI experiment writes these; the function stays in the library
    because it computes the paper's ETH matrix-element diagnostic.
    """
    tilde = spec.to_eigenbasis(np.asarray(a))
    w = spec.values

    which, centers = _bins(w, e_bins)
    diag_count, (diag_mean,) = _bin_means(which, e_bins, np.real(np.diag(tilde)))

    off = ~np.eye(len(w), dtype=bool)
    be, e_centers = _bins(0.5 * (w[:, None] + w[None, :])[off], e_bins)
    bn, nu_centers = _bins((w[:, None] - w[None, :])[off], nu_bins)
    flat, size = be * nu_bins + bn, e_bins * nu_bins
    vals = tilde[off]
    mag = np.abs(vals)
    count, (mean_re, mean_im, mean_mag, mean_sq) = _bin_means(
        flat, size, vals.real, vals.imag, mag, mag**2
    )
    _, (var,) = _bin_means(flat, size, (mag - mean_mag[flat]) ** 2)
    sem = np.where(count > 1, np.sqrt(var) / np.sqrt(count), np.nan)
    shape = (e_bins, nu_bins)
    return ETHStats(
        diag_centers=centers,
        diag_mean=diag_mean,
        diag_count=diag_count,
        off_e_centers=e_centers,
        off_nu_centers=nu_centers,
        off_mean_re=mean_re.reshape(shape),
        off_mean_im=mean_im.reshape(shape),
        off_mean_sq=mean_sq.reshape(shape),
        off_sem=sem.reshape(shape),
        off_count=count.reshape(shape),
    )
