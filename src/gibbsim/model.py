"""Mixed-field Ising chain, Gibbs states and Bohr frequencies.

Energies are quoted in units of the coupling J and times in 1/J.  The
default inverse temperature everywhere is beta = 1/(2J).  Operators are
built from basis-state bits: site s is bit n-1-s, Z_s is +1 or -1 on the
diagonal as that bit is 0 or 1, and X_s flips it.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkernel import eig_hermitian, require_memory

DEFAULT_BETA_J = 0.5  # beta * J = 1/2


@dataclass(frozen=True)
class IsingParams:
    """Parameters of the open-boundary mixed-field Ising chain."""

    n: int
    J: float = 1.0
    h: float = 0.0
    m: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not 0 < self.J < np.inf:
            raise ValueError("J sets the energy scale and must be positive and finite")
        if not (np.isfinite(self.h) and np.isfinite(self.m)):
            raise ValueError("fields h and m must be finite")

    @property
    def beta_default(self):
        return DEFAULT_BETA_J / self.J


# Named parameter points (h/J, m/J) and the accepted randomized-solver step
# J*dt_rk per system size n = 3..8.  dt_rk is the integrator step; it is a
# different quantity from the OFT discretization step dt_oft of the circuit.
NAMED_POINTS = {
    "TFIM": (1.0, 0.0),
    "CH2": (1.0, 0.2),
    "CH": (1.0, 0.4),
    "KIH": (0.9045, 0.8090),
    "REG": (0.1585, 3.062),
    "INTER": (0.5623, 1.230),
    "CH3": (1.698, 0.5551),
    "REG2": (6.310, 0.2158),
}

RK_STEP_TABLE = {
    "TFIM": {3: 0.25, 4: 0.25, 5: 0.125, 6: 0.125, 7: 0.125, 8: 0.125},
    "CH2": {3: 0.25, 4: 0.25, 5: 0.125, 6: 0.125, 7: 0.125, 8: 0.125},
    "CH": {3: 0.25, 4: 0.25, 5: 0.125, 6: 0.125, 7: 0.125, 8: 0.125},
    "KIH": {3: 0.25, 4: 0.125, 5: 0.125, 6: 0.125, 7: 0.125, 8: 0.0625},
    "REG": {3: 0.125, 4: 0.0625, 5: 0.0625, 6: 0.0625, 7: 0.0625, 8: 0.03125},
    "INTER": {3: 0.25, 4: 0.125, 5: 0.125, 6: 0.125, 7: 0.0625, 8: 0.0625},
    "CH3": {3: 0.125, 4: 0.125, 5: 0.125, 6: 0.0625, 7: 0.0625, 8: 0.0625},
    "REG2": {3: 0.0625, 4: 0.03125, 5: 0.03125, 6: 0.03125, 7: 0.03125, 8: 0.015625},
}


def named_point(key, n, J=1.0):
    """IsingParams for one of the named parameter points."""
    h, m = NAMED_POINTS[key]
    return IsingParams(n=n, J=J, h=h * J, m=m * J)


@dataclass(frozen=True)
class BohrSpectrum:
    """Grouped set of eigenvalue differences E_i - E_j.

    frequencies : sorted distinct cluster values, symmetric under negation
    pair_index : (D, D) integer array mapping (i, j) to its cluster
    """

    frequencies: np.ndarray
    pair_index: np.ndarray

    @property
    def count(self):
        return self.frequencies.shape[0]

    def pair_frequencies(self):
        """(D, D) array of grouped frequencies nu_ij = E_i - E_j."""
        return self.frequencies[self.pair_index]


def _dense_parts(n):
    """What building and diagonalizing a 2^n x 2^n H hold: H, its
    eigenvectors and the two temporaries of the eigensolve's reconstruction
    check, dense complex arrays; a {part: bytes} dict for
    `numkernel.require_memory`.  n is bounded before 2^n is formed: at
    n = 10^12 forming it alone would not finish."""
    matrix = 16 * 4.0**n if n < 64 else math.inf
    return {
        f"dense H at n={n}": matrix,
        f"its eigenvectors at n={n}": matrix,
        f"the two reconstruction-check temporaries at n={n}": 2 * matrix,
    }


def build_hamiltonian(p):
    """H = -J sum Z_i Z_{i+1} - h sum X_i - m sum Z_i, open boundaries.

    Site 0 is the leftmost (most significant) tensor factor.  Row r's
    z_i = 1 - 2 bit_{n-1-i}(r) is summed into the diagonal by the float
    operations, in the order, of the Kronecker-product sum (same bits);
    0 - h goes to (r, r XOR 2^{n-1-i}).  ResourceCeiling is raised before
    any allocation when building and diagonalizing H would not fit in
    memory (`_dense_parts`).
    """
    n = p.n
    require_memory(_dense_parts(n))
    dim = 2**n
    rows = np.arange(dim)
    z = [1.0 - 2.0 * ((rows >> (n - 1 - i)) & 1) for i in range(n)]
    energy = np.zeros(dim)
    for i in range(n - 1):
        energy -= p.J * (z[i] * z[i + 1])
    for i in range(n):
        energy -= p.m * z[i]
    ham = np.zeros((dim, dim), dtype=complex)
    ham[rows, rows] = energy
    for i in range(n):
        ham[rows, rows ^ (1 << (n - 1 - i))] = 0.0 - p.h  # +0, not -0, at h = 0
    return ham


def gibbs_state(spec, beta):
    """Thermal state e^{-beta H} / Z from the eigendecomposition of H."""
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    w = spec.values - spec.values.min()
    p = np.exp(-beta * w)
    p /= p.sum()
    return spec.vectors @ (p[:, None] * spec.vectors.conj().T)


def _sorted_distinct(x):
    """The distinct values of x in ascending order, as np.unique gives them
    for NaN-free input; np.unique would import numpy.ma."""
    pos = np.sort(x, axis=None)
    return pos[np.concatenate(([True], pos[1:] != pos[:-1]))]


def _cluster_starts(pos, tol):
    """Starts of the greedy clusters of sorted values: a cluster runs from its
    start while values stay within tol of the start value.

    A gap above tol between neighbours always starts a cluster; only inside
    a run of closer neighbours whose span passes tol is the greedy rule
    walked value by value.
    """
    breaks = np.flatnonzero(np.diff(pos) > tol) + 1
    run_starts = np.concatenate(([0], breaks))
    run_ends = np.append(breaks, len(pos))
    wide = pos[run_ends - 1] - pos[run_starts] > tol
    starts = [run_starts]
    for lo, hi in zip(run_starts[wide], run_ends[wide]):
        start = lo
        for k in range(lo + 1, hi):
            if pos[k] - pos[start] > tol:
                starts.append([k])
                start = k
    return np.sort(np.concatenate(starts))


def bohr_frequencies(spec, tol=None):
    """Group all pairwise differences E_i - E_j into clusters of diameter <= tol.

    The default tolerance is 1e-9 * max|E|.  The zero cluster is pinned to
    exactly 0 and the cluster values are symmetrized under negation.
    """
    w = np.asarray(spec.values, dtype=float)
    if tol is None:
        tol = 1e-9 * max(np.max(np.abs(w)), 1e-300)
    if tol <= 0:
        raise ValueError("tol must be positive")
    diffs = w[:, None] - w[None, :]

    # Cluster the nonnegative differences and mirror, so the frequency set
    # is exactly symmetric under negation.
    pos = _sorted_distinct(np.abs(diffs))
    starts = _cluster_starts(pos, tol)
    sizes = np.diff(starts, append=len(pos))
    reps = pos[starts]  # a singleton cluster's value is its mean
    for c in np.flatnonzero(sizes > 1):
        reps[c] = pos[starts[c] : starts[c] + sizes[c]].mean()
    if reps[0] <= tol:
        reps[0] = 0.0
    elif reps[0] > 0:
        reps = np.concatenate(([0.0], reps))
    frequencies = np.concatenate((-reps[:0:-1], reps))

    # Map each (i, j) pair onto its cluster.
    idx_abs = np.searchsorted(reps, np.abs(diffs))
    idx_abs = np.clip(idx_abs, 0, len(reps) - 1)
    below = idx_abs > 0
    dist_here = np.abs(np.abs(diffs) - reps[idx_abs])
    dist_below = np.abs(np.abs(diffs) - reps[np.maximum(idx_abs - 1, 0)])
    idx_abs = np.where(below & (dist_below <= dist_here), idx_abs - 1, idx_abs)
    zero_idx = len(reps) - 1  # index of 0 within `frequencies`
    pair_index = np.where(diffs >= 0, zero_idx + idx_abs, zero_idx - idx_abs)
    return BohrSpectrum(frequencies=frequencies, pair_index=pair_index)


def _diagonal_split(ham):
    """H's diagonal and off-diagonal parts, the terms of the trotter2 product
    formula: -J sum ZZ - m sum Z and -h sum X for the Ising chain."""
    diag = np.diag(np.diag(ham))
    return diag, ham - diag


@dataclass(frozen=True)
class Chain:
    """One chain at one inverse temperature: H, its spectrum, Bohr grouping,
    Gibbs state and `split_spectra`, the spectra of H's diagonal and
    off-diagonal parts (`_diagonal_split`) that the trotter2 circuit
    exponentiates.  Each is computed once, on first read, so a run builds
    and diagonalizes each operator once and forms only the fields it reads."""

    params: IsingParams
    beta: float

    @cached_property
    def ham(self):
        return build_hamiltonian(self.params)

    @cached_property
    def spec(self):
        return eig_hermitian(self.ham)

    @cached_property
    def bohr(self):
        return bohr_frequencies(self.spec)

    @cached_property
    def sigma(self):
        return gibbs_state(self.spec, self.beta)

    @cached_property
    def split_spectra(self):
        return tuple(map(eig_hermitian, _diagonal_split(self.ham)))


def maximally_mixed(n):
    dim = 2**n
    return np.eye(dim, dtype=complex) / dim
