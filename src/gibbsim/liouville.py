"""Vectorized generator, spectral gap, detailed-balance coherent term and Markov restriction.

Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho).
`build_superop` returns the dense D^2 x D^2 complex matrix S.

Row q + D p of S, read as a D x D matrix over columns s + D r, is
sum_a gamma_a conj(L_a[p, :])^T L_a[q, :], plus A[q, :] on its row r = p
and M^T[p, :] on its column s = q (A and M are the left- and right-hand
parts, see `build_superop`).  One row kernel, `_GeneratorFactors.rows`,
builds any block of rows straight from (G, L_a, gamma_a) as one batched
product over the jump index; `build_superop` writes S with it, and
`steady_state_and_gap` gathers its real form from it without ever holding
S.  A gap therefore holds R and the copy LAPACK factors, 16 D^4 bytes in
all; S alone would take 16 D^4 more.

`steady_state_and_gap` never diagonalizes the complex matrix S:

- Real Hermitian-basis eigensolve.  A Lindbladian maps Hermitian operators
  to Hermitian operators, so in the orthonormal Hermitian basis
  {E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2 : i < j} it is a real
  matrix R = U^dag S U.  U is unitary, so R has exactly the spectrum of S,
  and a real eigensolve without eigenvectors gives every eigenvalue.  R is
  gathered by index arithmetic, since each basis vector has two nonzeros:
  a block of rows of R takes two rows of S per basis vector from the row
  kernel and two of their entries per basis vector.
- Direct steady-state solve, the "direct" method of QuTiP's `steadystate`
  (Johansson, Nation and Nori, Comput. Phys. Commun. 184, 1234 (2013)).
  Trace preservation makes the trace functional t (ones on the E_ii
  coordinates) a left null vector of R, so the first E_ii row of R is
  minus the sum of the other E_ii rows and carries no equation of its own.  Replacing
  it by t and solving against e_1 therefore keeps R x = 0 and adds
  Tr rho = 1; with a simple zero eigenvalue the system is nonsingular and
  its one solution is the steady state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChain, DimensionMismatch, NonUniqueSteadyState, NotHermitian
from .jumps import filter_freq
from .numkernel import trace_distance

# Roundoff bound on the imaginary part dropped from the Hermitian-basis form,
# relative to its largest entry; measured parts are about 1e-17.
REAL_FORM_RTOL = 1e-10


def vec(rho):
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v):
    d = int(round(np.sqrt(v.shape[0])))
    return v.reshape(d, d, order="F")


def apply_lindbladian(rho, coherent, lindblads, gammas):
    """Direct action L[rho] = -i[G, rho] + sum_a gamma_a D^a[rho]; G = 0 when
    `coherent` is None."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    if coherent is not None:
        out += -1j * (coherent @ rho - rho @ coherent)
    for g, L in zip(gammas, np.asarray(lindblads, dtype=complex)):
        LdL = L.conj().T @ L
        out += g * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


@dataclass(frozen=True)
class Superoperator:
    """Dense vectorized generator acting on column-stacked operators; a class,
    not a bare array, since the benchmark reads `build_superop(...).matrix.nbytes`."""

    matrix: np.ndarray

    def apply(self, rho):
        return unvec(self.matrix @ vec(rho))


def drift_operator(coherent, l_ops, gammas):
    """A = -iG - (1/2) sum_a gamma_a L_a^dag L_a for a (n_jump, D, D) stack;
    G = 0 when `coherent` is None.

    For Hermitian G the generator is sum_a gamma_a L_a rho L_a^dag +
    A rho + rho A^dag; `dynamics.evolve_exact` and the superoperator rows
    both use this one operator.
    """
    l_dag = l_ops.conj().transpose(0, 2, 1)
    a = -0.5 * np.einsum("a,aij,ajk->ik", gammas, l_dag, l_ops)
    if coherent is not None:
        a = a - 1j * np.asarray(coherent, dtype=complex)
    return a


@dataclass(frozen=True)
class _GeneratorFactors:
    """The factors of -i[G, .] + sum_a gamma_a (L_a . L_a^dag - 1/2 {L_a^dag L_a, .})
    that every row of its superoperator is built from."""

    l_bar: np.ndarray  # (p, r, a) = conj(L_a[p, r])
    l_weighted: np.ndarray  # (q, a, s) = gamma_a L_a[q, s]
    drift: np.ndarray  # A, the left-hand part rho -> A rho
    right: np.ndarray  # M^T, the transposed right-hand part rho -> rho M

    @property
    def dim(self):
        return self.drift.shape[0]

    def rows(self, p, q):
        """Rows q + D p of S, for p and q each an int or a slice, over their
        broadcast; entry [b, r, s] of the (rows, D, D) result is
        S[q_b + D p_b, s + D r]:

            sum_a gamma_a conj(L_a[p, r]) L_a[q, s] + [r = p] A[q, s]
                + [s = q] M^T[p, r].

        The jump sum of the block is one product over the jump index, and
        a slice reads its operands in place.
        """
        d = self.dim
        out = np.matmul(self.l_bar[p], self.l_weighted[q]).reshape(-1, d, d)
        ps, qs = (np.ravel(x) for x in np.broadcast_arrays(np.arange(d)[p], np.arange(d)[q]))
        b = np.arange(len(out))
        out[b, ps] += self.drift[qs]
        out[b, :, qs] += self.right[ps]
        return out


def _generator_factors(coherent, lindblads, gammas):
    """Check (G, L_a, gamma_a) and gather the factors of the generator's rows;
    G = 0 when `coherent` is None."""
    l_ops = np.asarray(lindblads, dtype=complex)
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas < 0):
        raise ValueError("gammas must be nonnegative")
    if len(l_ops) != len(gammas):
        raise DimensionMismatch("one weight per Lindblad operator")
    d = l_ops.shape[1] if len(l_ops) else np.asarray(coherent).shape[0]
    if len(l_ops) and l_ops.shape[1:] != (d, d):
        raise DimensionMismatch("Lindblad operator dimension mismatch")
    if coherent is not None and np.asarray(coherent).shape[0] != d:
        raise DimensionMismatch("coherent term dimension mismatch")
    l_ops = l_ops.reshape(len(l_ops), d, d)
    a = drift_operator(coherent, l_ops, gammas)
    # M^T = conj(A) when G is Hermitian; the correction keeps -i[G, .]
    # exact for any G.
    right = a.conj()
    if coherent is not None:
        g = np.asarray(coherent, dtype=complex)
        right += 1j * (g.T - g.conj())
    return _GeneratorFactors(
        l_bar=np.ascontiguousarray(l_ops.conj().transpose(1, 2, 0)),
        l_weighted=np.ascontiguousarray((gammas[:, None, None] * l_ops).transpose(1, 0, 2)),
        drift=a,
        right=right,
    )


def build_superop(coherent, lindblads, gammas):
    """Vectorize -i[G, .] + sum_a gamma_a (L_a . L_a^dag - 1/2 {L_a^dag L_a, .}),
    with G = 0 when `coherent` is None.

    S = sum_a gamma_a conj(L_a) kron L_a + I kron A + M^T kron I, where
    rho -> rho M is the right-hand part, M = iG - (1/2) sum_a gamma_a
    L_a^dag L_a.  As a 4-D array s4[p, q, r, s] = S[q + D p, s + D r], row
    block p is written by the same row kernel that `steady_state_and_gap`
    gathers its real form from.
    """
    factors = _generator_factors(coherent, lindblads, gammas)
    d = factors.dim
    s4 = np.empty((d, d, d, d), dtype=complex)
    for p in range(d):
        s4[p] = factors.rows(p, slice(None))
    return Superoperator(matrix=s4.reshape(d * d, d * d))


@dataclass(frozen=True)
class GapResult:
    gap: float
    zero_count: int
    steady_state: np.ndarray
    eigenvalues: np.ndarray
    zero_tol: float


def _hermitian_basis(d):
    """The orthonormal Hermitian basis {E_ii, (E_ij + E_ji)/sqrt2,
    i(E_ij - E_ji)/sqrt2 : i < j} as column-stacked vectors, each with two
    nonzeros: basis vector k is w1[k] e_{m1[k]} + w2[k] e_{m2[k]}.  A
    diagonal E_ii is written as two halves on the same index."""
    diag = np.arange(d) * (d + 1)
    iu, ju = np.triu_indices(d, 1)
    upper, lower = iu + d * ju, ju + d * iu
    n_pair = len(iu)
    h = np.sqrt(0.5)
    m1 = np.concatenate([diag, upper, upper])
    m2 = np.concatenate([diag, lower, lower])
    w1 = np.concatenate([np.full(d, 0.5), np.full(n_pair, h), np.full(n_pair, 1j * h)])
    w2 = np.concatenate([np.full(d, 0.5), np.full(n_pair, h), np.full(n_pair, -1j * h)])
    return m1, w1, m2, w2


def _real_form(factors, basis):
    """R = U^dag S U in the Hermitian basis U, one group of rows per index i:
    E_ii and the pairs (i, j > i), whose basis vectors have their nonzeros
    on S rows i + D j and j + D i.  The row kernel builds those as two
    contiguous blocks; the two nonzeros of every basis vector are then
    gathered across them.  Never forms U, S or a complex D^2 x D^2
    temporary.  Returns R and max |Im(U^dag S U)|."""
    m1, w1, m2, w2 = basis
    d = factors.dim
    n = d * d
    n_pair = (n - d) // 2
    r = np.empty((n, n))
    imag = 0.0
    for i in range(d):
        # Basis order of `_hermitian_basis`: E_ii, then the pairs (i, j) in
        # row-major upper-triangle order, symmetric and antisymmetric.
        n_pair_before = i * d - i * (i + 1) // 2
        pairs = d + n_pair_before + np.arange(d - 1 - i)
        ks = np.concatenate(([i], pairs, pairs + n_pair))
        col = factors.rows(i, slice(i, None))  # rows j + D i, j >= i
        row = factors.rows(slice(i + 1, None), i)  # rows i + D j, j > i
        left = np.concatenate((col[:1], row, row)).reshape(-1, n)  # rows m1[ks]
        left *= w1[ks].conj()[:, None]
        other = np.concatenate((col, col[1:])).reshape(-1, n)  # rows m2[ks]
        other *= w2[ks].conj()[:, None]
        left += other
        block = np.take(left, m1, axis=1)
        block *= w1
        np.take(left, m2, axis=1, out=other)
        other *= w2
        block += other
        r[ks] = block.real
        imag = max(imag, float(np.max(np.abs(block.imag))))
    return r, imag


def steady_state_and_gap(coherent, lindblads, gammas):
    """Spectral gap and steady state of the Lindbladian
    -i[G, .] + sum_a gamma_a (L_a . L_a^dag - 1/2 {L_a^dag L_a, .}), with
    G = 0 when `coherent` is None.

    Works on the real Hermitian-basis form R only, built straight from the
    operators (module docstring), so it holds R and the copy LAPACK
    factors, 16 D^4 bytes, and never the complex superoperator.
    The zero cluster collects eigenvalues of modulus below
    1e-9 * max|Re lambda| (with a floor of 1e-12 * max|lambda| so that a
    purely coherent generator still exposes its exact fixed points).
    Raises NonUniqueSteadyState when the cluster holds more than one mode,
    and NotHermitian when the generator does not preserve Hermiticity
    (its Hermitian-basis form has an imaginary part above
    REAL_FORM_RTOL * max|R|).
    """
    factors = _generator_factors(coherent, lindblads, gammas)
    d = factors.dim
    basis = _hermitian_basis(d)
    r, imag = _real_form(factors, basis)
    r_max = float(max(r.max(), -r.min()))
    if imag > REAL_FORM_RTOL * r_max:
        raise NotHermitian(
            f"generator does not preserve Hermiticity: imaginary part {imag:.3e} "
            f"of its real form against max|R| = {r_max:.3e}"
        )
    evals = np.linalg.eigvals(r).astype(complex, copy=False)
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
    # Direct solve (module docstring): the trace functional replaces the
    # first E_ii row.
    r[0] = 0.0
    r[0, :d] = 1.0
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    x = np.linalg.solve(r, rhs)
    m1, w1, m2, w2 = basis
    v = np.zeros(d * d, dtype=complex)
    np.add.at(v, m1, w1 * x)
    np.add.at(v, m2, w2 * x)
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
    """||X||_1 of a (numerically) Hermitian matrix: twice its distance to 0."""
    return 2 * trace_distance(x, np.zeros_like(x))


@dataclass(frozen=True)
class MarkovRestriction:
    """Restriction of the generator to (grouped) eigenstate projectors."""

    q: np.ndarray
    P: np.ndarray
    r: float
    pi: np.ndarray
    block_energies: np.ndarray


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
