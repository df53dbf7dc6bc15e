import resource
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import gibbsim as gs
from gibbsim.errors import (
    DegenerateChain, DimensionMismatch, NonUniqueSteadyState, NotHermitian, ResourceCeiling,
)
from gibbsim.liouville import (
    MarkovRestriction,
    _generator_factors,
    _generator_terms,
    _hermitian_basis,
    _real_form,
    conductance_cheeger,
    drift_operator,
    markov_restriction,
)
from gibbsim.model import bohr_frequencies, gibbs_state

from conftest import (
    BETA,
    apply_lindbladian,
    gap_setup,
    lindblad_setup,
    point_setup,
    random_hermitian,
)


# ------------------------------------------------------------ construction
@pytest.mark.parametrize("key,n", [("CH", 3), ("CH", 4), ("REG", 3), ("REG", 4)])
def test_drift_operator_matches_the_einsum_oracle(key, n):
    # the one-product jump sum against the three-operand einsum it replaced,
    # with non-uniform weights; an empty stack leaves -iG
    s = lindblad_setup(key, n, 12, seed=3)
    l_ops, ham = s["lindblads"], s["ham"]
    gammas = np.linspace(0.2, 1.0, 12)
    decay = np.einsum("a,aij,ajk->ik", gammas, l_ops.conj().transpose(0, 2, 1), l_ops)
    oracle = -0.5 * decay - 1j * ham
    a = drift_operator(ham, l_ops, gammas)
    assert np.max(np.abs(a - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    assert np.array_equal(drift_operator(ham, l_ops[:0], gammas[:0]), -1j * ham)

def test_superop_action_matches_direct_evaluation(rng):
    setup = lindblad_setup("CH", 3, 20)
    sup = gs.build_superop(setup["ham"], list(setup["lindblads"]), setup["gammas"])
    for _ in range(10):
        x = random_hermitian(8, rng)
        direct = apply_lindbladian(x, setup["ham"], setup["lindblads"], setup["gammas"])
        assert np.max(np.abs((sup @ x.reshape(-1)).reshape(8, 8) - direct)) < 1e-10


def test_trace_preservation_functional():
    setup = lindblad_setup("CH", 3, 20)
    sup = gs.build_superop(setup["ham"], list(setup["lindblads"]), setup["gammas"])
    # the trace functional acting from the left vanishes
    left = np.eye(8).reshape(-1) @ sup
    assert np.max(np.abs(left)) < 1e-10


def test_identity_lindblad_no_hamiltonian_gives_zero_superop():
    sup = gs.build_superop(np.zeros((4, 4)), [np.eye(4)], [1.0])
    assert np.max(np.abs(sup)) < 1e-14


def test_hamiltonian_only_eigenvalues_are_bohr_phases():
    setup = point_setup("CH", 3)
    sup = gs.build_superop(setup["ham"], [], [])
    evals = np.linalg.eigvals(sup)
    assert np.max(np.abs(evals.real)) < 1e-10
    w = setup["spec"].values
    expected = sorted((-1j * (wi - wj) for wi in w for wj in w), key=lambda z: z.imag)
    assert np.allclose(
        sorted(evals, key=lambda z: z.imag), expected, atol=1e-8
    )


# ------------------------------------------------------- gap / steady state
def test_unique_steady_state_ch_n3():
    result = gap_setup("CH", 3, 20)["gap_result"]
    assert result.zero_count == 1
    assert result.gap > 0
    nonzero = result.eigenvalues[np.abs(result.eigenvalues) > result.zero_tol]
    assert np.max(nonzero.real) < result.zero_tol


def test_steady_state_is_valid_and_near_gibbs():
    setup = gap_setup("CH", 3, 20)
    rho = setup["gap_result"].steady_state
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-8
    dist = gs.trace_distance(rho, setup["sigma"])
    assert 1e-6 < dist < 5e-3  # order 1e-4 regime


def test_dissipation_free_generator_raises():
    setup = point_setup("CH", 3)
    with pytest.raises(NonUniqueSteadyState) as err:
        gs.steady_state_and_gap(setup["ham"], [np.zeros((8, 8))], [0.0])
    assert err.value.zero_count == 8


def test_gap_vs_mixing_time_bound():
    # measured mixing estimate obeys t_mix <= (1/gap) log(2 ||rho^{-1/2}|| / eps) (+10%)
    setup = gap_setup("CH", 3, 20)
    cfg = gs.SolverConfig(dt_rk0=0.25, n_traj=10, t_max=400.0, seed=5, stop_below=0.005)
    rec = gs.evolve_randomized(
        setup["ham"], list(setup["lindblads"]), gs.maximally_mixed(3), cfg, setup["sigma"],
    )
    est = gs.mixing_time_estimate(rec, eps=1e-2)
    assert est is not None
    rho_inf = setup["gap_result"].steady_state
    norm_inv_sqrt = 1.0 / np.sqrt(np.min(np.linalg.eigvalsh(rho_inf)))
    bound = (1.0 / setup["gap_result"].gap) * np.log(2 * norm_inv_sqrt / 1e-2)
    assert est <= 1.1 * bound


# ------------------------------------------ oracle: per-jump kron and eig
def kron_superop(coherent, lindblads, gammas):
    """The per-jump np.kron build of S in C order: X rho Y, flattened by
    reshape(-1), is (X kron Y^T) applied to rho.reshape(-1)."""
    mats = [np.asarray(l) for l in lindblads]
    d = mats[0].shape[0] if mats else np.asarray(coherent).shape[0]
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    if coherent is not None:
        G = np.asarray(coherent, dtype=complex)
        out += -1j * (np.kron(G, eye) - np.kron(eye, G.T))
    for g, L in zip(gammas, mats):
        LdL = L.conj().T @ L
        out += g * (np.kron(L, L.conj()) - 0.5 * np.kron(LdL, eye) - 0.5 * np.kron(eye, LdL.T))
    return out


def eig_steady_state_and_gap(matrix):
    """The complex-eig gap and eigenvector steady state that
    steady_state_and_gap replaced: (gap, zero_count, rho, eigenvalues)."""
    evals, evecs = np.linalg.eig(matrix)
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
    d = int(round(np.sqrt(len(matrix))))
    rho = evecs[:, int(np.argmax(zero_mask))].reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return gap, zero_count, rho / np.trace(rho).real, evals


def oracle_generators():
    """(id, coherent, lindblads, gammas) at CH and REG, n = 3, 4, with
    non-uniform weights; the dissipative cases have a zero coherent term."""
    cases = []
    for key in ("CH", "REG"):
        for n in (3, 4):
            s = lindblad_setup(key, n, 12, seed=3)
            gammas = np.linspace(0.2, 1.0, 12)
            g_ckg = gs.ckg_coherent_term(s["spec"], s["bohr"], BETA, s["lindblads"], gammas)
            ls = list(s["lindblads"])
            cases.append((f"{key}-n{n}-H", s["ham"], ls, gammas))
            cases.append((f"{key}-n{n}-dissipative", np.zeros((2**n, 2**n)), ls, gammas))
            cases.append((f"{key}-n{n}-ckg", g_ckg, ls, gammas))
    return cases


@pytest.mark.parametrize("case", oracle_generators(), ids=lambda c: c[0])
def test_superop_and_gap_match_kron_eig_oracle(case):
    _, coherent, ls, gammas = case
    old = kron_superop(coherent, ls, gammas)
    sup = gs.build_superop(coherent, ls, gammas)
    assert sup.dtype == complex and sup.shape == old.shape
    assert np.max(np.abs(sup - old)) <= 1e-12
    gap, zero_count, rho, evals = eig_steady_state_and_gap(old)
    result = gs.steady_state_and_gap(coherent, ls, gammas)
    assert result.zero_count == zero_count == 1
    cost = np.abs(evals[:, None] - result.eigenvalues[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= 1e-12  # spectra equal as multisets
    assert abs(result.gap - gap) <= 1e-12
    assert np.max(np.abs(result.steady_state - rho)) <= 1e-12


def non_unique_generators():
    setup = point_setup("CH", 3)
    dephasing = np.diag([1.0, -1.0] * 4)
    decay_01 = np.zeros((8, 8))
    decay_01[0, 1] = 1.0
    return [
        ("dissipation-free", setup["ham"], [np.zeros((8, 8))], [0.0]),
        ("pure-dephasing", np.zeros((8, 8)), [dephasing], [0.7]),
        ("one-decay-channel", np.zeros((8, 8)), [decay_01], [1.3]),
    ]


@pytest.mark.parametrize("case", non_unique_generators(), ids=lambda c: c[0])
def test_non_unique_cases_match_eig_oracle(case):
    _, coherent, ls, gammas = case
    old = kron_superop(coherent, ls, gammas)
    sup = gs.build_superop(coherent, ls, gammas)
    assert np.max(np.abs(sup - old)) <= 1e-12
    with pytest.raises(NonUniqueSteadyState) as expected:
        eig_steady_state_and_gap(old)
    with pytest.raises(NonUniqueSteadyState) as err:
        gs.steady_state_and_gap(coherent, ls, gammas)
    assert err.value.zero_count == expected.value.zero_count > 1


def test_non_hermitian_coherent_term_raises(rng):
    # -i[G, .] with a non-Hermitian G does not map Hermitian operators to
    # Hermitian ones, so the generator has no real Hermitian-basis form.
    setup = lindblad_setup("CH", 3, 10)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ls, gammas = list(setup["lindblads"]), setup["gammas"]
    sup = gs.build_superop(g, ls, gammas)
    assert np.max(np.abs(sup - kron_superop(g, ls, gammas))) <= 1e-12
    with pytest.raises(NotHermitian):
        gs.steady_state_and_gap(g, ls, gammas)


def hermitian_basis_unitary(d):
    """Dense U with columns E_ii, then (E_ij + E_ji)/sqrt2 and
    i(E_ij - E_ji)/sqrt2 over the pairs i < j in row-major order, each
    flattened by reshape(-1)."""

    def unit(i, j):
        m = np.zeros((d, d), dtype=complex)
        m[i, j] = 1.0
        return m

    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    cols = [unit(i, i).reshape(-1) for i in range(d)]
    cols += [(unit(i, j) + unit(j, i)).reshape(-1) / np.sqrt(2) for i, j in pairs]
    cols += [(1j * (unit(i, j) - unit(j, i))).reshape(-1) / np.sqrt(2) for i, j in pairs]
    return np.array(cols).T


@pytest.mark.parametrize("kind", ["none", "hermitian", "non-hermitian"])
@pytest.mark.parametrize("n", [3, 4])
def test_real_form_matches_dense_basis_change(n, kind):
    # R, built from the operators without S, against U^dag S U with S from
    # build_superop and U written out densely.
    s = lindblad_setup("CH", n, 12, seed=3)
    d = 2**n
    gammas = np.linspace(0.2, 1.0, 12)
    ls = list(s["lindblads"])
    rng = np.random.default_rng(n)
    coherent = {
        "none": np.zeros((d, d)),
        "hermitian": s["ham"],
        "non-hermitian": rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
    }[kind]
    u = hermitian_basis_unitary(d)
    dense = u.conj().T @ gs.build_superop(coherent, ls, gammas) @ u
    factors = _generator_factors(*_generator_terms(coherent, ls, gammas))
    r, imag = _real_form(factors, _hermitian_basis(d))
    # 1e-15 per unit of max|U^dag S U|: the dense product sums each entry's
    # four terms in another order, which moves entries near 8 by one ulp.
    tol = 1e-15 * max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(r - dense.real)) <= tol
    assert abs(imag - np.max(np.abs(dense.imag))) <= tol
    if kind == "non-hermitian":
        assert imag > 0.1
        with pytest.raises(NotHermitian):
            gs.steady_state_and_gap(coherent, ls, gammas)
    else:
        assert imag <= 1e-15


def test_gap_holds_less_than_one_complex_superoperator():
    # At n = 5 the complex superoperator alone is 16 D^4 bytes (16 MiB); the
    # gap path holds the real form R (8 D^4) and row-block temporaries.
    setup = lindblad_setup("CH", 5, 20)
    ls = list(setup["lindblads"])
    tracemalloc.start()
    try:
        gs.steady_state_and_gap(setup["ham"], ls, setup["gammas"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 32**4


@pytest.mark.parametrize("build", [gs.steady_state_and_gap, gs.build_superop])
def test_gap_and_superoperator_check_their_bytes_first(monkeypatch, build):
    # R and its LAPACK copy, or S, 16 D^4 bytes (1 MiB at n = 4), and the
    # 20 operators with the factors' two copies, 48 J D^2 bytes, are refused
    # under an address-space limit one byte under their sum, before any exists
    setup = lindblad_setup("CH", 4, 20)
    limits = (16 * 16**4 + 48 * 20 * 16**2 - 1, resource.RLIM_INFINITY)
    monkeypatch.setattr(resource, "getrlimit", lambda _: limits)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCeiling, match=r"needs 1.29e\+06 bytes"):
            build(setup["ham"], setup["lindblads"], setup["gammas"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_trace_norm_equals_the_direct_form_bitwise(rng):
    # through the trace-distance kernel: X - 0 is X, and 2 (s/2) is s
    general = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for x in (random_hermitian(8, rng), general, np.diag([1, -2, 0, 3])):
        direct = float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (x + x.conj().T)))))
        assert gs.trace_norm(x) == direct


# ------------------------------------------------------------ coherent term
def test_ckg_hermitian_and_exact_db():
    setup = lindblad_setup("CH", 3, 10)
    g_ckg = gs.ckg_coherent_term(
        setup["spec"], setup["bohr"], BETA, setup["lindblads"], setup["gammas"]
    )
    assert np.max(np.abs(g_ckg - g_ckg.conj().T)) < 1e-10
    resid = gs.trace_norm(
        apply_lindbladian(setup["sigma"], g_ckg, setup["lindblads"], setup["gammas"])
    )
    assert resid < 1e-9


def ckg_jump_set_loop(jump_set, spec, bohr, gammas):
    """The construction that `ckg_coherent_term` replaced: a loop over the
    jump set that rebuilds each OFT operator eta o (V^dag A V) in the
    eigenbasis from its Pauli string."""
    nu = bohr.pair_frequencies()
    eta = gs.filter_freq(BETA, nu)
    g_eig = np.zeros((spec.dim, spec.dim), dtype=complex)
    for gamma_a, a in zip(gammas, jump_set):
        l_eig = eta * spec.to_eigenbasis(np.asarray(a))
        g_eig += gamma_a * (l_eig.conj().T @ l_eig)
    g_eig *= 0.5j * np.tanh(BETA * nu / 4.0)
    return spec.from_eigenbasis(g_eig)


@pytest.mark.parametrize("key,n", [("CH", 3), ("CH", 4), ("REG", 3), ("REG", 4)])
def test_ckg_from_the_stack_matches_the_jump_set_loop(key, n):
    s = lindblad_setup(key, n, 12, seed=3)
    gammas = np.linspace(0.2, 1.0, 12)
    old = ckg_jump_set_loop(s["jump_set"], s["spec"], s["bohr"], gammas)
    new = gs.ckg_coherent_term(s["spec"], s["bohr"], BETA, s["lindblads"], gammas)
    assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


def test_ckg_checks_its_stack_and_weights():
    s = lindblad_setup("CH", 3, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        gs.ckg_coherent_term(s["spec"], s["bohr"], BETA, s["lindblads"], [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch, match="one weight"):
        gs.ckg_coherent_term(s["spec"], s["bohr"], BETA, s["lindblads"], s["gammas"][:3])
    with pytest.raises(DimensionMismatch, match="dimension"):
        gs.ckg_coherent_term(s["spec"], s["bohr"], BETA, s["lindblads"][:, :4, :4], s["gammas"])


def test_ckg_vanishes_for_identity_jump():
    setup = point_setup("CH", 3)
    l_id = gs.lindblad_op_exact(np.eye(8), setup["spec"], BETA, setup["bohr"])
    g_ckg = gs.ckg_coherent_term(setup["spec"], setup["bohr"], BETA, [l_id], [1.0])
    assert np.max(np.abs(g_ckg)) < 1e-14


def test_ckg_vanishes_for_single_bohr_frequency():
    # one qubit, H = Z: a lowering-type Hermitian jump X couples only +-2;
    # restrict to a spectrum with a single gap so nu1 = nu2 is forced on
    # the diagonal blocks where tanh(0) = 0 applies... use H = 0 instead:
    # every frequency collapses to the zero cluster.
    spec = gs.eig_hermitian(np.zeros((4, 4)))
    bohr = bohr_frequencies(spec, tol=1e-9)
    a = gs.sample_jump_set(2, 1, 1, seed=0)[0]
    l_op = gs.lindblad_op_exact(a, spec, BETA, bohr)
    g_ckg = gs.ckg_coherent_term(spec, bohr, BETA, [l_op], [1.0])
    assert np.max(np.abs(g_ckg)) < 1e-14


def test_steady_state_unchanged_by_commuting_coherent_addition():
    # the exactly-DB generator fixes sigma; adding -i[H, .] (H commutes
    # with sigma) must not move the fixed point
    setup = lindblad_setup("CH", 3, 10)
    g_ckg = gs.ckg_coherent_term(
        setup["spec"], setup["bohr"], BETA, setup["lindblads"], setup["gammas"]
    )
    ls, gm = list(setup["lindblads"]), setup["gammas"]
    r1 = gs.steady_state_and_gap(g_ckg, ls, gm)
    r2 = gs.steady_state_and_gap(g_ckg + setup["ham"], ls, gm)
    assert gs.trace_distance(r1.steady_state, r2.steady_state) < 1e-8
    assert gs.trace_distance(r1.steady_state, setup["sigma"]) < 1e-10


# ------------------------------------------------ KMS detailed balance
def kms_transition_defect(lindblads, gammas, sigma, rng, n_pairs=10):
    """Worst |<X, T^dag(Y)>_KMS - <T^dag(X), Y>_KMS| over random Hermitian
    pairs, with T^dag(Y) = sum_a gamma_a L_a^dag Y L_a the transition part in
    the Heisenberg picture and <X, Y>_KMS = Tr[X^dag sigma^1/2 Y sigma^1/2]."""
    spec = gs.eig_hermitian(sigma)
    sqrt_sigma = spec.from_eigenbasis(np.diag(np.sqrt(spec.values)))
    mats = [np.asarray(L) for L in lindblads]

    def heisenberg(y):
        return sum(g * (L.conj().T @ y @ L) for g, L in zip(gammas, mats))

    def kms(x, y):
        return np.trace(x.conj().T @ sqrt_sigma @ y @ sqrt_sigma)

    d = sigma.shape[0]
    worst = 0.0
    for _ in range(n_pairs):
        x, y = random_hermitian(d, rng), random_hermitian(d, rng)
        worst = max(worst, abs(kms(x, heisenberg(y)) - kms(heisenberg(x), y)))
    return worst


def test_transition_term_kms_self_adjoint(rng):
    setup = lindblad_setup("CH", 3, 10)
    defect = kms_transition_defect(setup["lindblads"], setup["gammas"], setup["sigma"], rng)
    assert defect < 1e-9


# -------------------------------------------------------- Markov restriction
def restriction(setup):
    return markov_restriction(setup["spec"], setup["lindblads"], setup["gammas"], setup["sigma"])


def superop_markov_rates(superop, spec, sigma, level_tol=None):
    """The superoperator loop that markov_restriction replaced: level blocks,
    then q_{i->j} = Tr[Pi_j S(Pi_i / d_i)], diagonal included, and the
    block weights pi_i = Tr[Pi_i sigma] / Tr[sigma]."""
    w = spec.values
    if level_tol is None:
        level_tol = 1e-9 * max(float(np.max(np.abs(w))), 1e-300)
    blocks = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[start] > level_tol:
            blocks.append(list(range(start, k)))
            start = k
    projs = [spec.vectors[:, idx] @ spec.vectors[:, idx].conj().T for idx in blocks]
    q = np.empty((len(blocks), len(blocks)))
    for i, idx in enumerate(blocks):
        image = (superop @ (projs[i] / len(idx)).reshape(-1)).reshape(spec.dim, spec.dim)
        for j in range(len(blocks)):
            q[i, j] = np.trace(projs[j] @ image).real
    pi = np.array([np.trace(proj @ sigma).real for proj in projs])
    return q, pi / pi.sum()


@pytest.mark.parametrize("key, n", [("CH", 3), ("CH", 4), ("REG", 4), ("TFIM", 4)])
def test_markov_restriction_matches_superop_oracle(key, n):
    # The oracle applies the full generator with G = H; the restriction
    # takes the jump operators only, since the coherent term drops out.
    setup = lindblad_setup(key, n, 20)
    superop = gs.build_superop(setup["ham"], setup["lindblads"], setup["gammas"])
    expected, pi = superop_markov_rates(superop, setup["spec"], setup["sigma"])
    mc = restriction(setup)
    assert mc.q.shape == expected.shape
    if key != "CH":
        assert len(mc.q) < 2**n  # degenerate levels merged into blocks
    assert np.max(np.abs(mc.q - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(mc.pi - pi)) <= 1e-12


def test_markov_restriction_checks_its_operands():
    setup = lindblad_setup("CH", 3, 4)
    spec, ls, sigma = setup["spec"], setup["lindblads"], setup["sigma"]
    with pytest.raises(DimensionMismatch):
        markov_restriction(spec, ls, np.full(3, 0.25), sigma)
    with pytest.raises(DimensionMismatch):
        markov_restriction(spec, ls[:, :4, :4], setup["gammas"], sigma)
    with pytest.raises(ValueError):
        markov_restriction(spec, ls, [0.25, 0.25, 0.25, -0.25], sigma)


def test_markov_rows_and_positivity():
    mc = restriction(lindblad_setup("CH", 3, 20))
    assert np.max(np.abs(mc.q.sum(axis=1))) < 1e-10
    assert np.max(np.abs(mc.P.sum(axis=1) - 1.0)) < 1e-12
    assert np.min(mc.P) > -1e-12
    assert mc.r > 0
    assert np.allclose(mc.pi.sum(), 1.0)


def test_markov_restriction_exactly_reversible():
    # The filter identity eta_nu = e^{-beta nu/2} eta_{-nu} makes the
    # diagonal restriction Gibbs-reversible for every realization, so the
    # detailed-balance residual sits at machine zero for any jump count.
    for count in (5, 20, 50):
        mc = restriction(lindblad_setup("CH", 3, count))
        resid = np.max(np.abs(mc.pi[:, None] * mc.P - (mc.pi[:, None] * mc.P).T))
        assert resid < 1e-12


def test_markov_dissipation_free_degenerate():
    setup = point_setup("CH", 3)
    with pytest.raises(DegenerateChain):
        markov_restriction(setup["spec"], [np.zeros((8, 8))], [0.0], setup["sigma"])


def reg_h0_setup():
    """REG at h = 0, whose levels are exactly degenerate: H, its spectrum,
    10 exact OFT jumps of weight 0.1 and the Gibbs state."""
    ham = gs.build_hamiltonian(gs.IsingParams(n=3, J=1.0, h=0.0, m=3.0))
    spec = gs.eig_hermitian(ham)
    bohr = bohr_frequencies(spec)
    jumps = gs.sample_jump_set(3, 2, 10, seed=0)
    ls = np.stack([gs.lindblad_op_exact(a, spec, BETA, bohr) for a in jumps])
    return ham, spec, ls, np.full(10, 0.1), gibbs_state(spec, BETA)


def test_markov_reg_degenerate_levels_grouped():
    # REG at h=0 has exact degeneracies; blocks must absorb them
    ham, spec, ls, gammas, sigma = reg_h0_setup()
    mc = markov_restriction(spec, ls, gammas, sigma, level_tol=1e-8)
    assert len(mc.pi) < 8
    assert np.max(np.abs(mc.P.sum(axis=1) - 1.0)) < 1e-12
    sup = gs.build_superop(ham, ls, gammas)
    expected, _ = superop_markov_rates(sup, spec, sigma, level_tol=1e-8)
    assert np.max(np.abs(mc.q - expected)) <= 1e-12 * np.max(np.abs(expected))


def loop_grouped_restriction(spec, lindblads, gammas, sigma, level_tol=None):
    """`markov_restriction` with the level-grouping loop it replaced: a new
    block starts at each level more than level_tol above its block's first."""
    w = spec.values
    l_ops, gammas = np.asarray(lindblads, dtype=complex), np.asarray(gammas, dtype=float)
    if level_tol is None:
        level_tol = 1e-9 * max(float(np.max(np.abs(w))), 1e-300)
    starts = [0]
    for k in range(1, len(w)):
        if w[k] - w[starts[-1]] > level_tol:
            starts.append(k)
    sizes = np.diff(starts + [len(w)])
    rates = np.tensordot(gammas, np.abs(spec.to_eigenbasis(l_ops)) ** 2, axes=1)
    flow = np.add.reduceat(np.add.reduceat(rates, starts, axis=0), starts, axis=1)
    q = flow.T / sizes[:, None]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    r = float(np.max(-np.diag(q)))
    P = q / r + np.eye(len(starts))
    pi = np.add.reduceat(np.real(np.diag(spec.to_eigenbasis(sigma))), starts)
    return q, P, pi / pi.sum()


@pytest.mark.parametrize(
    "case", ["CH-3", "CH-4", "REG-3", "REG-4", "TFIM-3", "TFIM-4", "REG-h0"]
)
def test_markov_restriction_groups_levels_as_the_loop_did(case):
    # the blocks of model._cluster_starts are the loop's blocks, so q, P and
    # pi are the same bits
    if case == "REG-h0":
        args, level_tol = reg_h0_setup()[1:], 1e-8
    else:
        key, n = case.split("-")
        s = lindblad_setup(key, int(n), 20)
        args, level_tol = (s["spec"], s["lindblads"], s["gammas"], s["sigma"]), None
    mc = markov_restriction(*args, level_tol=level_tol)
    for got, want in zip((mc.q, mc.P, mc.pi), loop_grouped_restriction(*args, level_tol)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ------------------------------------------------------------- conductance
def subset_loop_cheeger(mc, exhaustive_limit):
    """phi and gap_P the way `conductance_cheeger` found them before its
    mask blocks: one Python list per subset, and the flow out of it summed
    over an np.ix_ block."""
    P, pi = mc.P, mc.pi
    n = len(pi)
    flow = pi[:, None] * P
    if n <= exhaustive_limit:
        masks = ([(c >> i) & 1 == 1 for i in range(n)] for c in range(1, (1 << n) - 1))
    else:
        masks = (
            [lo <= i <= hi for i in range(n)]
            for lo in range(n) for hi in range(lo, n) if hi - lo + 1 != n
        )
    phi = np.inf
    for mask in masks:
        sel = np.asarray(mask)
        pi_s = pi[sel].sum()
        if pi_s <= 0 or pi_s > 0.5 + 1e-12:
            continue
        phi = min(phi, flow[np.ix_(sel, ~sel)].sum() / pi_s)
    R = 0.5 * (P + (pi[None, :] * P.T) / pi[:, None])
    sqrt_pi = np.sqrt(pi)
    sym = (sqrt_pi[:, None] * R) / sqrt_pi[None, :]
    ev = np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))
    return phi, 1.0 - ev[-2]


def random_reversible_restriction(n, seed):
    """A chain with random weights pi and symmetric flows pi_i q_ij."""
    rng = np.random.default_rng(seed)
    pi = rng.random(n) + 0.1
    pi /= pi.sum()
    sym = rng.random((n, n))
    q = (sym + sym.T) / pi[:, None]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    r = float(np.max(-np.diag(q)))
    return MarkovRestriction(q=q, P=q / r + np.eye(n), r=r, pi=pi, block_energies=np.arange(n))


@pytest.mark.parametrize("chain", ["CH-4", "random-12"])
@pytest.mark.parametrize("exhaustive_limit", [16, 2])
def test_cheeger_mask_blocks_match_the_subset_loop(chain, exhaustive_limit):
    # both subset families; CH n = 4 has 65534 subsets, several mask blocks
    if chain == "CH-4":
        mc = restriction(lindblad_setup("CH", 4, 20))
    else:
        mc = random_reversible_restriction(12, seed=5)
    res = conductance_cheeger(mc, exhaustive_limit=exhaustive_limit)
    phi, gap = subset_loop_cheeger(mc, exhaustive_limit)
    assert res.exhaustive == (len(mc.pi) <= exhaustive_limit)
    assert abs(res.phi - phi) <= 1e-15 * phi
    assert abs(res.gap_P - gap) <= 1e-15 * gap


def two_state_restriction(p, q):
    P = np.array([[1 - p, p], [q, 1 - q]])
    pi = np.array([q, p]) / (p + q)
    return MarkovRestriction(
        q=P - np.eye(2), P=P, r=1.0, pi=pi, block_energies=np.array([0.0, 1.0])
    )


@pytest.mark.parametrize("p,q", [(0.3, 0.2), (0.05, 0.4), (0.5, 0.5)])
def test_two_state_chain_closed_form(p, q):
    res = conductance_cheeger(two_state_restriction(p, q))
    candidates = []
    pi = np.array([q, p]) / (p + q)
    if pi[0] <= 0.5 + 1e-12:
        candidates.append(p)
    if pi[1] <= 0.5 + 1e-12:
        candidates.append(q)
    assert res.phi == pytest.approx(min(candidates), abs=1e-12)
    assert res.gap_P == pytest.approx(p + q, abs=1e-12)
    assert res.sandwich_ok


@pytest.mark.parametrize("n", [3, 4])
def test_cheeger_sandwich_exhaustive(n):
    mc = restriction(lindblad_setup("CH", n, 20))
    res = conductance_cheeger(mc, exhaustive_limit=16)
    assert res.exhaustive
    assert res.phi**2 / 2 <= res.gap_P <= 2 * res.phi


def test_contiguous_fallback_upper_bounds_exhaustive():
    mc = restriction(lindblad_setup("CH", 4, 20))
    full = conductance_cheeger(mc, exhaustive_limit=16)
    contiguous = conductance_cheeger(mc, exhaustive_limit=2)
    assert not contiguous.exhaustive
    assert contiguous.phi >= full.phi - 1e-14

