"""Vectorized generator, spectral gap, detailed balance and the Markov restriction.

Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho).
All superoperators here are dense D^2 x D^2 complex matrices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChain, DimensionMismatch, NonUniqueSteadyState, SingularGibbs
from .jumps import filter_freq
from .numkernel import eig_hermitian


def vec(rho):
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v):
    d = int(round(np.sqrt(v.shape[0])))
    return v.reshape(d, d, order="F")


def apply_lindbladian(rho, coherent, lindblads, gammas, include_coherent=True):
    """Direct action L[rho] = -i[G, rho] + sum_a gamma_a D^a[rho]."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    if include_coherent and coherent is not None:
        out += -1j * (coherent @ rho - rho @ coherent)
    for g, L in zip(gammas, map(np.asarray, lindblads)):
        Ld = L.conj().T
        LdL = Ld @ L
        out += g * (L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL))
    return out


@dataclass(frozen=True)
class Superoperator:
    """Dense vectorized generator acting on column-stacked operators."""

    matrix: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def system_dim(self):
        return int(round(np.sqrt(self.dim)))

    def apply(self, rho):
        return unvec(self.matrix @ vec(rho))

    def trace_defect(self):
        """Max component of the trace functional acting from the left;
        vanishes for a trace-preserving generator."""
        d = self.system_dim
        left = vec(np.eye(d)).conj() @ self.matrix
        return float(np.max(np.abs(left)))


def build_superop(coherent, lindblads, gammas, include_coherent=True):
    """Vectorize -i[G, .] + sum_a gamma_a (L_a . L_a^dag - 1/2 {L_a^dag L_a, .})."""
    mats = [np.asarray(l) for l in lindblads]
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas < 0):
        raise ValueError("gammas must be nonnegative")
    if len(mats) != len(gammas):
        raise DimensionMismatch("one weight per Lindblad operator")
    d = mats[0].shape[0] if mats else np.asarray(coherent).shape[0]
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    if include_coherent and coherent is not None:
        G = np.asarray(coherent, dtype=complex)
        if G.shape[0] != d:
            raise DimensionMismatch("coherent term dimension mismatch")
        out += -1j * (np.kron(eye, G) - np.kron(G.T, eye))
    for g, L in zip(gammas, mats):
        if L.shape[0] != d:
            raise DimensionMismatch("Lindblad operator dimension mismatch")
        LdL = L.conj().T @ L
        out += g * (
            np.kron(L.conj(), L)
            - 0.5 * np.kron(eye, LdL)
            - 0.5 * np.kron(LdL.T, eye)
        )
    return Superoperator(matrix=out)


@dataclass(frozen=True)
class GapResult:
    gap: float
    zero_count: int
    steady_state: np.ndarray
    eigenvalues: np.ndarray
    zero_tol: float

    def to_csv(self, path):
        """Eigenvalue table: index, real part, imaginary part."""
        order = np.argsort(-self.eigenvalues.real)
        with open(path, "w") as fh:
            fh.write(f"# generator eigenvalues in J; gap={self.gap!r} zero_count={self.zero_count}\n")
            fh.write("index,re,im\n")
            for i, idx in enumerate(order):
                ev = self.eigenvalues[idx]
                fh.write(f"{i},{float(ev.real)!r},{float(ev.imag)!r}\n")


def steady_state_and_gap(s):
    """Spectral gap and steady state of a vectorized Lindbladian.

    The zero cluster collects eigenvalues of modulus below
    1e-9 * max|Re lambda| (with a floor of 1e-12 * max|lambda| so that a
    purely coherent generator still exposes its exact fixed points).
    Raises NonUniqueSteadyState when the cluster holds more than one mode.
    """
    evals, evecs = np.linalg.eig(s.matrix)
    scale_re = float(np.max(np.abs(evals.real)))
    scale_all = float(np.max(np.abs(evals)))
    zero_tol = max(1e-9 * scale_re, 1e-12 * scale_all, 1e-300)
    zero_mask = np.abs(evals) < zero_tol
    zero_count = int(np.sum(zero_mask))
    if zero_count != 1:
        raise NonUniqueSteadyState(zero_count)
    nonzero = evals[~zero_mask]
    if np.max(nonzero.real) > zero_tol:
        raise NonUniqueSteadyState(zero_count)
    gap = float(np.min(np.abs(nonzero.real)))
    v = evecs[:, int(np.argmax(zero_mask))]
    rho = unvec(v)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12 * np.max(np.abs(rho)):
        raise NonUniqueSteadyState(zero_count)
    rho = rho / tr
    return GapResult(
        gap=gap,
        zero_count=zero_count,
        steady_state=rho,
        eigenvalues=evals,
        zero_tol=zero_tol,
    )


def ckg_coherent_term(jump_set, spec, f, bohr, gammas=None):
    """Coherent term that makes the filtered dissipator exactly detailed balanced.

    G = (i/2) sum_a gamma_a sum_{nu1,nu2} eta_nu1 eta_nu2
        tanh(beta (nu1 - nu2) / 4) (A^a_nu1)^dag A^a_nu2,
    evaluated in the eigenbasis where the double frequency sum collapses to
    an elementwise tanh weight on (L^a dag L^a).
    """
    if gammas is None:
        gammas = np.full(len(jump_set), 1.0 / len(jump_set))
    nu = bohr.pair_frequencies()
    eta = filter_freq(f, nu)
    # Sign fixed by the exact-DB requirement L[sigma_beta] = 0, which this
    # construction satisfies to machine precision.
    weight = np.tanh(f.beta * nu / 4.0)
    d = spec.dim
    g_eig = np.zeros((d, d), dtype=complex)
    for gamma_a, a in zip(gammas, jump_set):
        a_eig = spec.to_eigenbasis(np.asarray(a))
        l_eig = eta * a_eig
        g_eig += gamma_a * (l_eig.conj().T @ l_eig)
    g_eig *= 0.5j * weight
    return spec.from_eigenbasis(g_eig)


def trace_norm(x):
    """||X||_1 of a (numerically) Hermitian matrix."""
    x = np.asarray(x)
    x = 0.5 * (x + x.conj().T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(x))))


def db_residuals(coherent, lindblads, gammas, sigma_beta, seed=0, n_pairs=10):
    """Detailed-balance diagnostics of the generator against a Gibbs state.

    Returns dict with `action_on_gibbs` = ||L[sigma]||_1 and
    `transition_term` = worst KMS self-adjointness defect of the transition
    part over `n_pairs` random Hermitian operator pairs.
    """
    sig_spec = eig_hermitian(sigma_beta)
    if np.min(sig_spec.values) < 1e-14:
        raise SingularGibbs(f"smallest Gibbs weight {np.min(sig_spec.values):.3e}")
    sqrt_sigma = sig_spec.from_eigenbasis(np.diag(np.sqrt(sig_spec.values)))

    action = trace_norm(apply_lindbladian(sigma_beta, coherent, lindblads, gammas))

    mats = [np.asarray(l) for l in lindblads]
    rng = np.random.default_rng(seed)
    d = sigma_beta.shape[0]

    def transition_heisenberg(y):
        out = np.zeros_like(y)
        for g, L in zip(gammas, mats):
            out += g * (L.conj().T @ y @ L)
        return out

    def kms(x, y):
        return np.trace(x.conj().T @ sqrt_sigma @ y @ sqrt_sigma)

    worst = 0.0
    for _ in range(n_pairs):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = 0.5 * (x + x.conj().T)
        y = 0.5 * (y + y.conj().T)
        defect = abs(kms(x, transition_heisenberg(y)) - kms(transition_heisenberg(x), y))
        worst = max(worst, float(defect))
    return {"action_on_gibbs": action, "transition_term": worst}


@dataclass(frozen=True)
class MarkovRestriction:
    """Restriction of the generator to (grouped) eigenstate projectors."""

    q: np.ndarray
    P: np.ndarray
    r: float
    pi: np.ndarray
    block_energies: np.ndarray

    def to_csv(self, path):
        """Edge table: source, target, rate q, transition probability P."""
        n = len(self.pi)
        with open(path, "w") as fh:
            fh.write(f"# rates in J; shift r={self.r!r}\n")
            fh.write("source,target,energy_source,pi_source,q,P\n")
            for i in range(n):
                for j in range(n):
                    fh.write(
                        f"{i},{j},{float(self.block_energies[i])!r},{float(self.pi[i])!r},"
                        f"{float(self.q[i, j])!r},{float(self.P[i, j])!r}\n"
                    )


def markov_restriction(s, spec, sigma_beta, level_tol=None):
    """Classical rate matrix q_{i->j} = Tr[Pi_j L[Pi_i / d_i]] on eigenlevels.

    Near-degenerate levels (within 1e-9 * max|E| by default) are merged into
    projector blocks so that exactly degenerate spectra collapse gracefully.
    The stochastic matrix is P = q/r + I with r = max_i sum_{k != i} q_{i->k}.
    """
    w = spec.values
    if level_tol is None:
        level_tol = 1e-9 * max(float(np.max(np.abs(w))), 1e-300)
    blocks = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[start] > level_tol:
            blocks.append(list(range(start, k)))
            start = k
    nb = len(blocks)
    d = spec.dim

    projs = []
    energies = np.empty(nb)
    for b, idx in enumerate(blocks):
        cols = spec.vectors[:, idx]
        projs.append(cols @ cols.conj().T)
        energies[b] = w[idx].mean()

    q = np.empty((nb, nb))
    for i, idx in enumerate(blocks):
        rho_i = projs[i] / len(idx)
        image = s.apply(rho_i)
        for j in range(nb):
            q[i, j] = np.trace(projs[j] @ image).real

    r = float(np.max(np.sum(q - np.diag(np.diag(q)), axis=1)))
    if r <= 1e-12 * max(np.max(np.abs(q)), 1e-300) or not np.isfinite(r) or r <= 0:
        raise DegenerateChain("no usable off-diagonal transition rates")
    P = q / r + np.eye(nb)
    pi = np.array([np.trace(pj @ sigma_beta).real for pj in projs])
    pi = pi / pi.sum()
    return MarkovRestriction(q=q, P=P, r=r, pi=pi, block_energies=energies)


@dataclass(frozen=True)
class ConductanceResult:
    phi: float
    gap_P: float
    sandwich_ok: bool
    nonreversibility: float
    exhaustive: bool


def _subset_masks_exhaustive(n):
    for mask in range(1, (1 << n) - 1):
        yield [(mask >> i) & 1 == 1 for i in range(n)]


def _subset_masks_contiguous(n):
    for lo in range(n):
        for hi in range(lo, n):
            if hi - lo + 1 == n:
                continue
            yield [lo <= i <= hi for i in range(n)]


def conductance_cheeger(mc, exhaustive_limit=16):
    """Bottleneck ratio and reversibilized spectral gap of the restriction.

    phi is minimized exhaustively over all subsets with pi_S <= 1/2 when the
    chain has at most `exhaustive_limit` states, else over contiguous
    energy-ordered subsets.  The gap is computed on the additive
    reversibilization (P + hat P) / 2.
    """
    P, pi = mc.P, mc.pi
    n = len(pi)
    if n < 2:
        raise DegenerateChain("need at least two states")
    flow = pi[:, None] * P

    exhaustive = n <= exhaustive_limit
    masks = _subset_masks_exhaustive(n) if exhaustive else _subset_masks_contiguous(n)
    phi = np.inf
    for mask in masks:
        sel = np.asarray(mask)
        pi_s = pi[sel].sum()
        if pi_s <= 0 or pi_s > 0.5 + 1e-12:
            continue
        q_out = flow[np.ix_(sel, ~sel)].sum()
        phi = min(phi, q_out / pi_s)
    if not np.isfinite(phi):
        raise DegenerateChain("no admissible subset with pi_S <= 1/2")

    # pi-reversal and additive reversibilization; the gap is read off the
    # symmetrized similarity transform which has real spectrum in [-1, 1].
    Phat = (pi[None, :] * P.T) / pi[:, None]
    R = 0.5 * (P + Phat)
    sqrt_pi = np.sqrt(pi)
    sym = (sqrt_pi[:, None] * R) / sqrt_pi[None, :]
    ev = np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))
    gap_p = float(1.0 - ev[-2])
    nonrev = float(np.max(np.abs(flow - flow.T)))
    tol = 1e-10 * max(1.0, abs(gap_p))
    ok = (phi**2 / 2.0 <= gap_p + tol) and (gap_p <= 2.0 * phi + tol)
    return ConductanceResult(
        phi=float(phi),
        gap_P=gap_p,
        sandwich_ok=bool(ok),
        nonreversibility=nonrev,
        exhaustive=exhaustive,
    )
