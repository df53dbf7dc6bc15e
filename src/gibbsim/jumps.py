"""Random k-local Pauli jump operators and their filtered-OFT Lindblad operators.

The Lindblad operator attached to a jump A is the operator Fourier transform
L = int g(t) e^{iHt} A e^{-iHt} dt = sum_nu eta_nu A_nu, evaluated either
exactly in the eigenbasis of H or through the trapezoid discretization of
the time integral over [-T, T] (`oft_nodes`).  The Gaussian filter g is
given by the inverse temperature beta alone: energy width sqrt(2)/beta,
shift 1/beta.  Both builders return a finite complex array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLocality

_EXP_UNDERFLOW = -700.0


@dataclass(frozen=True)
class PauliString:
    """k-local Pauli string: non-identity letters on k distinct sites."""

    n: int
    sites: tuple
    letters: tuple

    def __post_init__(self):
        if len(self.sites) != len(self.letters):
            raise InvalidLocality("one letter per site")
        if len(set(self.sites)) != len(self.sites):
            raise InvalidLocality("sites must be distinct")
        if any(s < 0 or s >= self.n for s in self.sites):
            raise InvalidLocality("site index out of range")
        if any(l not in ("X", "Y", "Z") for l in self.letters):
            raise InvalidLocality("letters must be X, Y or Z")

    @property
    def k(self):
        return len(self.sites)

    def matrix(self):
        """Dense 2^n realization, `signed_permutation()` written into a
        zeroed array; site 0 is the leftmost tensor factor."""
        cols, phases = self.signed_permutation()
        out = np.zeros((len(cols), len(cols)), dtype=complex)
        out[np.arange(len(cols)), cols] = phases
        return out

    def signed_permutation(self):
        """The one nonzero of each row of the string: (cols, phases) with
        A[r, cols[r]] = phases[r], a power of i.  X and Y flip their site's
        bit (site s is bit n-1-s); Y gives -i or +i and Z +1 or -1 by it."""
        rows = np.arange(1 << self.n)
        cols = rows.copy()
        phases = np.ones(rows.shape, dtype=complex)
        for site, letter in zip(self.sites, self.letters):
            mask = 1 << (self.n - 1 - site)
            bit = (rows & mask) != 0
            if letter != "Z":
                cols ^= mask
            if letter == "Y":
                phases *= np.where(bit, 1j, -1j)
            elif letter == "Z":
                phases *= np.where(bit, -1.0, 1.0)
        return cols, phases

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix(), dtype=dtype)


def sample_jump_set(n, k, count, seed):
    """Sample `count` k-local Pauli strings, with replacement.

    Positions are a uniform k-subset of the chain and letters are uniform
    over {X, Y, Z} on every chosen site.  Deterministic under `seed`.
    """
    if not 1 <= k <= n:
        raise InvalidLocality(f"k={k} outside [1, {n}]")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    letters = "XYZ"
    out = []
    for _ in range(count):
        sites = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        out.append(
            PauliString(
                n=n,
                sites=sites,
                letters=tuple(letters[i] for i in rng.integers(0, 3, size=k)),
            )
        )
    return out


def jump_set_to_text(jump_set, seed=None):
    """Serialize a jump set as one text record per line."""
    lines = [f"# jump set  n={jump_set[0].n}  k={jump_set[0].k}  seed={seed}"]
    for a in jump_set:
        sites = ",".join(str(s) for s in a.sites)
        letters = ",".join(a.letters)
        lines.append(f"n={a.n} k={a.k} sites={sites} letters={letters}")
    return "\n".join(lines) + "\n"


def filter_time(beta, t):
    """Time-domain Gaussian filter g(t), complex, of energy width
    sqrt(2)/beta and shift 1/beta."""
    d2 = (math.sqrt(2.0) / beta) ** 2
    pref = (d2 / (2.0 * math.pi**3)) ** 0.25
    t = np.asarray(t, dtype=float)
    return pref * np.exp(-d2 * t**2 + 1j * beta * d2 * t / 2.0)


def filter_freq(beta, nu):
    """Frequency-domain filter eta_nu = (beta^2/4pi)^{1/4} e^{-(beta nu + 1)^2/8}.

    This is the Fourier transform int e^{i nu t} g(t) dt of `filter_time`.
    """
    nu = np.asarray(nu, dtype=float)
    pref = (beta**2 / (4.0 * math.pi)) ** 0.25
    expo = -((beta * nu + 1.0) ** 2) / 8.0
    return pref * np.exp(np.maximum(expo, _EXP_UNDERFLOW)) * (expo >= _EXP_UNDERFLOW)


def oft_nodes(T, S):
    """The trapezoid rule over [-T, T] with S steps each side: the times
    s dt, s = -S..S with dt = T/S, and their weights dt, the ends halved."""
    if not (T > 0 and S >= 1):
        raise ValueError("need T > 0 and S >= 1")
    dt = T / S
    steps = np.arange(-S, S + 1)
    return steps * dt, np.where(np.abs(steps) < S, dt, dt / 2.0)


def filter_freq_discretized(beta, nu, T, S):
    """Trapezoid approximation of the filter transform over [-T, T].

    eta_bar(nu) = sum_{s=-S}^{S} w_s g(s dt) e^{i nu s dt} on the nodes of
    `oft_nodes`; complex-valued for finite S.
    """
    times, weights = oft_nodes(T, S)
    g = filter_time(beta, times) * weights
    nu = np.asarray(nu, dtype=float)
    return np.exp(1j * np.multiply.outer(nu, times)) @ g


def _oft(a, spec, eta):
    """V (eta o V^dag A V) V^dag, checked to be finite."""
    matrix = spec.from_eigenbasis(eta * spec.to_eigenbasis(np.asarray(a)))
    if not np.all(np.isfinite(matrix)):
        raise ValueError("non-finite entries in Lindblad operator")
    return matrix


def lindblad_op_exact(a, spec, beta, bohr):
    """Exact OFT Lindblad operator: entry (i,j) in the eigenbasis is
    eta(nu_ij) <E_i|A|E_j> with nu_ij the grouped Bohr frequency."""
    return _oft(a, spec, filter_freq(beta, bohr.pair_frequencies()))


def lindblad_op_discretized(a, spec, beta, T, S):
    """Trapezoid-discretized OFT Lindblad operator over [-T, T] with S steps.

    Uses exact eigenbasis exponentials: in the eigenbasis the sum collapses
    to eta_bar(E_i - E_j) times the jump matrix element.
    """
    nu = spec.values[:, None] - spec.values[None, :]
    return _oft(a, spec, filter_freq_discretized(beta, nu.ravel(), T, S).reshape(nu.shape))
