"""Vectorized generator, spectral gap, detailed-balance coherent term and Markov restriction.

Vectorization is numpy's C order, ``rho.reshape(-1)``: rho[i, j] sits at
D i + j, so vec(X rho Y) = (X kron Y^T) vec(rho).  The package uses no
other.  `build_superop` returns the dense D^2 x D^2 complex matrix S.

Row D i + j of S, read as a D x D matrix over columns D k + l, is
sum_a gamma_a L_a[i, k] conj(L_a[j, l]), plus A[i, :] on its column l = j
and M^T[j, :] on its row k = i (A and M are the left- and right-hand
parts, see `build_superop`).  One row kernel, `_GeneratorFactors.rows`,
builds any block of rows straight from (G, L_a, gamma_a) as one batched
product over the jump index.  `build_superop` and the RK4 propagators of
`dynamics` take S from it whole, and `steady_state_and_gap` gathers its
real form from it in row blocks without ever holding S.  A gap therefore
holds R and the copy LAPACK factors, and never S.

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

`markov_restriction` takes the jump operators, not S.  For j != i,
Pi_j Pi_i = 0 and Tr[Pi_j [G, Pi_i]] = 0 leave only the jump term of
q_{i->j} = Tr[Pi_j L[Pi_i / d_i]]: the Davies rates (Commun. Math. Phys. 39,
91 (1974)) (1/d_i) sum_{k in B_j, l in B_i} sum_a gamma_a |<k|L_a|l>|^2 over
eigenvectors k, l of the level blocks B.  Trace preservation fixes q_{i->i}.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChain, DimensionMismatch, NonUniqueSteadyState, NotHermitian
from .model import _cluster_starts
from .numkernel import require_memory, trace_distance

# Roundoff bound on the imaginary part dropped from the Hermitian-basis form,
# relative to its largest entry; measured parts are about 1e-17.
REAL_FORM_RTOL = 1e-10


def _jump_sum(l_ops, gammas):
    """sum_a gamma_a L_a^dag L_a of a (n_jump, D, D) stack, as one product of
    the stacked (n_jump D, D) operators, [L_1; ...; L_J]^dag
    [gamma_1 L_1; ...; gamma_J L_J]; zeros for an empty stack."""
    d = l_ops.shape[-1]
    weighted = np.asarray(gammas)[:, None, None] * l_ops
    return l_ops.reshape(-1, d).conj().T @ weighted.reshape(-1, d)


def drift_operator(coherent, l_ops, gammas):
    """A = -iG - (1/2) sum_a gamma_a L_a^dag L_a for the (D, D) coherent term
    G and a (n_jump, D, D) stack, its jump sum from `_jump_sum`.

    For Hermitian G the generator is sum_a gamma_a L_a rho L_a^dag +
    A rho + rho A^dag.  The superoperator rows, `dynamics.evolve_exact`,
    the staged RK4's per-jump A stack and the propagators of `dynamics`,
    and the MCWF effective Hamiltonian iA all use this one operator.  It
    holds two (n_jump, D, D) temporaries: the conjugated and the weighted
    stack.
    """
    return -0.5 * _jump_sum(l_ops, gammas) - 1j * np.asarray(coherent, dtype=complex)


@dataclass(frozen=True)
class _GeneratorFactors:
    """The factors of -i[G, .] + sum_a gamma_a (L_a . L_a^dag - 1/2 {L_a^dag L_a, .})
    that every row of its superoperator is built from."""

    l_weighted: np.ndarray  # (i, k, a) = gamma_a L_a[i, k]
    l_bar: np.ndarray  # (j, a, l) = conj(L_a[j, l])
    drift: np.ndarray  # A, the left-hand part rho -> A rho
    right: np.ndarray  # M^T, the transposed right-hand part rho -> rho M

    @property
    def dim(self):
        return self.drift.shape[0]

    def rows(self, i, j):
        """Rows D i + j of S for every i in `i` and j in `j`, each an int or a
        slice; entry [b, k, l] of the (rows, D, D) result, b running over
        (i, j) in C order, is S[D i_b + j_b, D k + l]:

            sum_a gamma_a L_a[i, k] conj(L_a[j, l]) + [l = j] A[i, k]
                + [k = i] M^T[j, l].

        The jump sum of the block is one product over the jump index, its
        operands read in place, and A and M^T are added on one basic view
        per j and per i: fancy-indexed or diagonal views would copy.
        """
        i, j = (slice(x, x + 1) if isinstance(x, int) else x for x in (i, j))
        out = np.matmul(self.l_weighted[i, None], self.l_bar[j])  # [i, j, k, l]
        for b, l in enumerate(range(self.dim)[j]):
            out[:, b, :, l] += self.drift[i]
        for b, k in enumerate(range(self.dim)[i]):
            out[b, :, k] += self.right[j]
        return out.reshape(-1, self.dim, self.dim)

    def matrix(self):
        """S itself: the rows of every (i, j), as one (D^2, D^2) array."""
        return self.rows(slice(None), slice(None)).reshape(self.dim**2, -1)


def _jump_stack(lindblads, gammas, d):
    """Check D x D jump operators and their weights; a complex (n_jump, D, D) stack and floats."""
    l_ops = np.asarray(lindblads, dtype=complex)
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas < 0):
        raise ValueError("gammas must be nonnegative")
    if len(l_ops) != len(gammas):
        raise DimensionMismatch("one weight per Lindblad operator")
    if len(l_ops) and l_ops.shape[1:] != (d, d):
        raise DimensionMismatch("Lindblad operator dimension mismatch")
    return l_ops.reshape(len(l_ops), d, d), gammas


def _generator_terms(coherent, lindblads, gammas):
    """Check (G, L_a, gamma_a): a complex square G, its dimension D, and the
    `_jump_stack` of D x D operators and weights."""
    g = np.asarray(coherent, dtype=complex)
    d = g.shape[0]
    if g.shape != (d, d):
        raise DimensionMismatch(f"coherent term of shape {g.shape} is not square")
    return (g, *_jump_stack(lindblads, gammas, d))


def _generator_parts(d, n_jump, square):
    """What `build_superop` and `steady_state_and_gap` hold at their peak,
    for J operators of dimension D: the caller's stack with the factors' two
    copies of it, and `square`, the name of the call's D^2 x D^2 array (or
    pair of real ones); a {part: bytes} dict for `numkernel.require_memory`."""
    return {
        f"the {n_jump} Lindblad operators and their two factor copies": 48 * n_jump * d**2,
        square: 16 * d**4,
    }


def _generator_factors(g, l_ops, gammas):
    """Gather the factors of the generator's rows from the checked terms of
    `_generator_terms`; D is G's dimension."""
    a = drift_operator(g, l_ops, gammas)
    # M^T = conj(A) when G is Hermitian; the correction keeps -i[G, .]
    # exact for any G.
    right = a.conj()
    right += 1j * (g.T - g.conj())
    return _GeneratorFactors(
        l_weighted=np.ascontiguousarray((gammas[:, None, None] * l_ops).transpose(1, 2, 0)),
        l_bar=np.ascontiguousarray(l_ops.conj().transpose(1, 0, 2)),
        drift=a,
        right=right,
    )


def build_superop(coherent, lindblads, gammas):
    """Vectorize -i[G, .] + sum_a gamma_a (L_a . L_a^dag - 1/2 {L_a^dag L_a, .})
    for the (D, D) coherent term G (zeros for none).

    S = sum_a gamma_a L_a kron conj(L_a) + A kron I + I kron M^T, where
    rho -> rho M is the right-hand part, M = iG - (1/2) sum_a gamma_a
    L_a^dag L_a.  It is the row kernel's `matrix`, the rows that
    `steady_state_and_gap` gathers its real form from.  ResourceCeiling is
    raised before the factors or S are allocated when they would not fit
    (`_generator_parts`).
    """
    g, l_ops, gammas = _generator_terms(coherent, lindblads, gammas)
    d = len(g)
    require_memory(_generator_parts(d, len(l_ops), f"the {d * d} x {d * d} superoperator"))
    return _generator_factors(g, l_ops, gammas).matrix()


@dataclass(frozen=True)
class GapResult:
    gap: float
    zero_count: int
    steady_state: np.ndarray
    eigenvalues: np.ndarray
    zero_tol: float


def _hermitian_basis(d):
    """The orthonormal Hermitian basis {E_ii, (E_ij + E_ji)/sqrt2,
    i(E_ij - E_ji)/sqrt2 : i < j} as vectors, each with two nonzeros:
    basis vector k is w1[k] e_{m1[k]} + w2[k] e_{m2[k]}, with m1 at (i, j)
    and m2 at (j, i).  A diagonal E_ii is written as two halves on the
    same index."""
    diag = np.arange(d) * (d + 1)
    iu, ju = np.triu_indices(d, 1)
    upper, lower = d * iu + ju, iu + d * ju
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
    on S rows D i + j and D j + i.  The row kernel builds those as two
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
        row = factors.rows(i, slice(i, None))  # rows D i + j, j >= i
        col = factors.rows(slice(i + 1, None), i)  # rows D j + i, j > i
        left = np.concatenate((row, row[1:])).reshape(-1, n)  # rows m1[ks]
        left *= w1[ks].conj()[:, None]
        other = np.concatenate((row[:1], col, col)).reshape(-1, n)  # rows m2[ks]
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
    -i[G, .] + sum_a gamma_a (L_a . L_a^dag - 1/2 {L_a^dag L_a, .}) for the
    (D, D) coherent term G (zeros for none).

    Works on the real Hermitian-basis form R only, built straight from the
    operators (module docstring), so it holds R and the copy LAPACK
    factors and never the complex superoperator; what it holds is checked
    before any of it is allocated (`_generator_parts`).
    The zero cluster collects eigenvalues of modulus below
    1e-9 * max|Re lambda| (with a floor of 1e-12 * max|lambda| so that a
    purely coherent generator still exposes its exact fixed points).
    Raises NonUniqueSteadyState when the cluster holds more than one mode,
    and NotHermitian when the generator does not preserve Hermiticity
    (its Hermitian-basis form has an imaginary part above
    REAL_FORM_RTOL * max|R|).
    """
    g, l_ops, gammas = _generator_terms(coherent, lindblads, gammas)
    d = len(g)
    square = f"the real form of a {d * d} x {d * d} generator and its LAPACK copy"
    require_memory(_generator_parts(d, len(l_ops), square))
    factors = _generator_factors(g, l_ops, gammas)
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
    rho = v.reshape(d, d)
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


def ckg_coherent_term(spec, bohr, beta, lindblads, gammas):
    """Coherent term that makes the filtered dissipator exactly detailed
    balanced (Chen, Kastoryano and Gilyen, arXiv:2311.09207), from the
    (n_jump, D, D) stack of OFT Lindblad operators L_a and their weights.

    G = (i/2) sum_a gamma_a sum_{nu1,nu2} eta_nu1 eta_nu2
        tanh(beta (nu1 - nu2) / 4) (A^a_nu1)^dag A^a_nu2,
    evaluated in the eigenbasis, where the double frequency sum collapses to
    an elementwise tanh weight on the Bohr frequencies of
    V^dag (sum_a gamma_a L_a^dag L_a) V, the jump sum of `_jump_sum`
    rotated once.
    """
    l_ops, gammas = _jump_stack(lindblads, gammas, spec.dim)
    g_eig = spec.to_eigenbasis(_jump_sum(l_ops, gammas))
    # Sign fixed by the exact-DB requirement L[sigma_beta] = 0, which this
    # construction satisfies to machine precision.
    g_eig *= 0.5j * np.tanh(beta * bohr.pair_frequencies() / 4.0)
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


def markov_restriction(spec, lindblads, gammas, sigma_beta, level_tol=None):
    """Classical rate matrix q_{i->j} = Tr[Pi_j L[Pi_i / d_i]] on eigenlevels,
    from the (n_jump, D, D) jump stack and its weights (module docstring);
    a coherent term would drop out, so none is taken.

    Levels within level_tol (1e-9 * max|E| by default) of a block's first
    are merged into its projector block (`model._cluster_starts`, as for the
    Bohr frequencies), so exactly degenerate spectra collapse gracefully.
    The stochastic matrix is P = q/r + I with r = max_i sum_{k != i} q_{i->k}.
    """
    w = spec.values
    l_ops, gammas = _jump_stack(lindblads, gammas, spec.dim)
    if level_tol is None:
        level_tol = 1e-9 * max(float(np.max(np.abs(w))), 1e-300)
    starts = _cluster_starts(w, level_tol)
    sizes = np.diff(starts, append=len(w))

    # rates[k, l] = sum_a gamma_a |<k|L_a|l>|^2; flow[j, i] sums it over k in B_j, l in B_i
    rates = np.tensordot(gammas, np.abs(spec.to_eigenbasis(l_ops)) ** 2, axes=1)
    flow = np.add.reduceat(np.add.reduceat(rates, starts, axis=0), starts, axis=1)
    q = flow.T / sizes[:, None]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))

    r = float(np.max(-np.diag(q)))
    if r <= 1e-12 * max(np.max(np.abs(q)), 1e-300) or not np.isfinite(r) or r <= 0:
        raise DegenerateChain("no usable off-diagonal transition rates")
    P = q / r + np.eye(len(starts))
    pi = np.add.reduceat(np.real(np.diag(spec.to_eigenbasis(sigma_beta))), starts)
    energies = np.add.reduceat(w, starts) / sizes
    return MarkovRestriction(q=q, P=P, r=r, pi=pi / pi.sum(), block_energies=energies)


@dataclass(frozen=True)
class ConductanceResult:
    phi: float
    gap_P: float
    sandwich_ok: bool
    nonreversibility: float
    exhaustive: bool


def conductance_cheeger(mc, exhaustive_limit=16):
    """Bottleneck ratio and reversibilized spectral gap of the restriction.

    phi is minimized exhaustively over all subsets with pi_S <= 1/2 when the
    chain has at most `exhaustive_limit` states, else over contiguous
    energy-ordered subsets.  Subsets are the rows of boolean masks M, in
    blocks of 2^18 // n, each giving pi_S = M pi and the flow out,
    ((M F) * not M) summed over the states, F_ij = pi_i P_ij.  The gap is
    computed on the additive reversibilization (P + hat P) / 2.
    """
    P, pi = mc.P, mc.pi
    n = len(pi)
    if n < 2:
        raise DegenerateChain("need at least two states")
    flow = pi[:, None] * P

    exhaustive = n <= exhaustive_limit
    states = np.arange(n)
    # exhaustive subset c holds the set bits of c + 1; contiguous subset c is
    # [lo[c], hi[c]], every range but [0, n - 1]
    count = 2**n - 2
    if not exhaustive:
        lo, hi = np.delete(np.triu_indices(n), n - 1, axis=1)
        count = len(lo)
    phi = np.inf
    block = 2**18 // n  # 2^18 mask entries, about 18 bytes each at the block's peak
    for first in range(0, count, block):
        c = np.arange(first, min(first + block, count))[:, None]
        if exhaustive:
            m = ((c + 1) >> states & 1).astype(bool)
        else:
            m = (lo[c] <= states) & (states <= hi[c])
        pi_s = m @ pi
        q_out = ((m @ flow) * ~m).sum(axis=1)
        ok = (pi_s > 0) & (pi_s <= 0.5 + 1e-12)
        phi = min(phi, np.min(q_out[ok] / pi_s[ok], initial=np.inf))
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
