from functools import reduce

import numpy as np
import pytest

import gibbsim as gs
from gibbsim.errors import InvalidLocality
from gibbsim.jumps import PauliString, filter_freq_discretized, jump_set_to_text, oft_nodes

from conftest import BETA, lindblad_setup, point_setup

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_matrix(a):
    """A Pauli string as the Kronecker product of its n 2x2 factors, site 0
    leftmost: an oracle independent of the string's bit rule."""
    letters = dict(zip(a.sites, a.letters))
    return reduce(np.kron, [PAULI[letters.get(s, "I")] for s in range(a.n)])


# ---------------------------------------------------------------- sampling
def test_full_locality_covers_all_sites():
    (a,) = gs.sample_jump_set(3, 3, 1, seed=4)
    assert sorted(a.sites) == [0, 1, 2]
    assert all(l in "XYZ" for l in a.letters)


def test_twenty_two_local_strings():
    jumps = gs.sample_jump_set(5, 2, 20, seed=9)
    assert len(jumps) == 20
    for a in jumps:
        assert a.k == 2
        assert len(set(a.sites)) == 2
        mat = a.matrix()
        assert np.max(np.abs(mat - mat.conj().T)) == 0
        assert np.allclose(mat @ mat, np.eye(2**5))
        # every consumer reads a jump by np.asarray
        assert np.array_equal(np.asarray(a), mat)
        assert np.asarray(a, dtype=np.complex64).dtype == np.complex64


def test_sampling_deterministic():
    one = gs.sample_jump_set(6, 3, 15, seed=123)
    two = gs.sample_jump_set(6, 3, 15, seed=123)
    assert [(a.sites, a.letters) for a in one] == [(a.sites, a.letters) for a in two]


@pytest.mark.parametrize("n, k, seed", [(2, 1, 0), (3, 2, 7), (5, 2, 1), (6, 3, 123)])
def test_smaller_jump_set_is_the_head_of_a_larger_one(n, k, seed):
    # gap-scan and accuracy-scan slice the Lindblad stack of their largest count
    full = gs.sample_jump_set(n, k, 100, seed)
    for count in (5, 10, 20, 50):
        assert full[:count] == gs.sample_jump_set(n, k, count, seed)


def test_invalid_locality():
    with pytest.raises(InvalidLocality):
        gs.sample_jump_set(3, 4, 1, seed=0)
    with pytest.raises(InvalidLocality):
        gs.sample_jump_set(3, 0, 1, seed=0)


def test_jump_set_text_golden():
    # the jumps.txt format that the evolve experiment writes
    jumps = [
        PauliString(n=4, sites=(0, 2), letters=("X", "Z")),
        PauliString(n=4, sites=(1, 3), letters=("Y", "Y")),
    ]
    assert jump_set_to_text(jumps, seed=7) == (
        "# jump set  n=4  k=2  seed=7\n"
        "n=4 k=2 sites=0,2 letters=X,Z\n"
        "n=4 k=2 sites=1,3 letters=Y,Y\n"
    )


# ---------------------------------------------------------------- filters
def test_filter_time_at_zero():
    expected = ((np.sqrt(2) / BETA) ** 2 / (2 * np.pi**3)) ** 0.25
    val = complex(gs.filter_time(BETA, 0.0))
    assert val.real == pytest.approx(expected, abs=1e-15)
    assert val.imag == 0.0


def test_filter_time_symmetry():
    t = np.linspace(-2, 2, 41)
    g = gs.filter_time(BETA, t)
    assert np.allclose(np.abs(g), np.abs(g[::-1]), atol=1e-15)
    # phase linear in t: g(t) e^{-i beta Delta^2 t / 2} is real
    stripped = g * np.exp(-1j * BETA * (np.sqrt(2) / BETA) ** 2 * t / 2)
    assert np.max(np.abs(stripped.imag)) < 1e-15


def test_filter_normalization_quadrature():
    # The filter pair is normalized in the frequency domain; equivalently
    # the time-domain square integral is 1/(2 pi).
    t = np.linspace(-10 * BETA, 10 * BETA, 80001)
    norm_t = np.trapezoid(np.abs(gs.filter_time(BETA, t)) ** 2, t)
    assert norm_t == pytest.approx(1.0 / (2 * np.pi), abs=1e-10)
    nu = np.linspace(-60 / BETA, 60 / BETA, 400001)
    norm_nu = np.trapezoid(gs.filter_freq(BETA, nu) ** 2, nu)
    assert norm_nu == pytest.approx(1.0, abs=1e-8)


def test_filter_tail_mass_at_protocol_cutoff():
    t = np.linspace(-12 * BETA, 12 * BETA, 400001)
    g = gs.filter_time(BETA, t)
    full = np.trapezoid(g, t)
    inner = np.trapezoid(np.where(np.abs(t) <= 1.6, g, 0), t)
    ratio = abs((full - inner) / full)
    assert ratio < 1e-6


def test_filter_freq_db_identity():
    for nu in (0.3 / BETA, 1 / BETA, 3 / BETA):
        lhs = float(gs.filter_freq(BETA, nu))
        rhs = np.exp(-BETA * nu / 2) * float(gs.filter_freq(BETA, -nu))
        assert abs(lhs - rhs) < 1e-12


def test_filter_freq_at_zero():
    expected = (BETA**2 / (4 * np.pi)) ** 0.25 * np.exp(-1 / 8)
    assert float(gs.filter_freq(BETA, 0.0)) == pytest.approx(expected, abs=1e-15)


def test_filter_freq_peak_location():
    nu = np.linspace(-4 / BETA, 4 / BETA, 8001)
    eta = gs.filter_freq(BETA, nu)
    assert abs(nu[np.argmax(eta)] + 1 / BETA) < 2e-3


def test_filter_freq_matches_quadrature_transform():
    t = np.linspace(-10 * BETA, 10 * BETA, 80001)
    g = gs.filter_time(BETA, t)
    for nu in (-3.0, -1.0, 0.0, 0.7, 2.0):
        ft = np.trapezoid(np.exp(1j * nu * t) * g, t)
        assert abs(ft - float(gs.filter_freq(BETA, nu))) < 1e-8


# ------------------------------------------------------- exact Lindblad op
def test_identity_jump_gives_eta0_identity():
    setup = point_setup("CH", 3)
    L = gs.lindblad_op_exact(np.eye(8), setup["spec"], BETA, setup["bohr"])
    eta0 = float(gs.filter_freq(BETA, 0.0))
    assert np.max(np.abs(L - eta0 * np.eye(8))) < 1e-12


def test_exact_op_entrywise_in_eigenbasis():
    setup = lindblad_setup("CH", 3, 5, seed=2)
    spec, bohr = setup["spec"], setup["bohr"]
    a = setup["jump_set"][0]
    L = setup["lindblads"][0]
    a_eig = spec.to_eigenbasis(a.matrix())
    l_eig = spec.to_eigenbasis(L)
    nu = spec.values[:, None] - spec.values[None, :]
    assert np.max(np.abs(np.abs(l_eig) - gs.filter_freq(BETA, nu) * np.abs(a_eig))) < 1e-10


def test_exact_op_matches_time_quadrature_oracle():
    setup = lindblad_setup("CH", 3, 5, seed=2)
    spec = setup["spec"]
    a = setup["jump_set"][0]
    L = setup["lindblads"][0]
    t = np.linspace(-8 * BETA, 8 * BETA, 4001)
    weights = np.gradient(t)
    g = gs.filter_time(BETA, t)
    acc = np.zeros((8, 8), dtype=complex)
    amat = a.matrix()
    for w, gv, ti in zip(weights, g, t):
        u = gs.expm_phase(spec, -ti)  # e^{+iHt}
        acc += w * gv * (u @ amat @ u.conj().T)
    assert np.max(np.abs(acc - L)) < 1e-6


def test_lindblad_entries_finite_and_adjoint_closure():
    setup = lindblad_setup("CH", 4, 10, seed=1)
    for L in setup["lindblads"]:
        assert np.all(np.isfinite(L))
    # Hermitian jumps: the adjoint of L(A) is the OFT of A with eta(-nu),
    # which stays inside the span generated by the same jump set.
    spec, bohr = setup["spec"], setup["bohr"]
    nu = bohr.pair_frequencies()
    for a, L in zip(setup["jump_set"], setup["lindblads"]):
        a_eig = spec.to_eigenbasis(a.matrix())
        expected_dag = spec.from_eigenbasis(gs.filter_freq(BETA, -nu) * a_eig)
        assert np.max(np.abs(L.conj().T - expected_dag)) < 1e-12


# ------------------------------------------------- discretized Lindblad op
def test_discretized_close_to_exact_at_fine_step():
    setup = lindblad_setup("CH", 3, 5, seed=2)
    a = setup["jump_set"][0]
    exact = setup["lindblads"][0]
    bar = gs.lindblad_op_discretized(a, setup["spec"], BETA, T=1.6, S=16)
    assert np.linalg.norm(bar - exact, 2) < 1e-3


def test_discretized_identity_jump_scalar_trapezoid():
    setup = point_setup("CH", 3)
    T, S = 1.6, 8
    bar = gs.lindblad_op_discretized(np.eye(8), setup["spec"], BETA, T=T, S=S)
    scalar = complex(filter_freq_discretized(BETA, 0.0, T, S))
    assert np.max(np.abs(bar - scalar * np.eye(8))) < 1e-12


def test_oft_nodes_are_the_trapezoid_rule():
    times, weights = oft_nodes(1.6, 8)
    assert np.array_equal(times, np.arange(-8, 9) * (1.6 / 8))
    assert np.array_equal(weights, np.r_[0.1, np.full(15, 0.2), 0.1])
    for T, S in ((0.0, 8), (-1.0, 8), (float("nan"), 8), (1.6, 0)):
        with pytest.raises(ValueError, match="need T > 0 and S >= 1"):
            oft_nodes(T, S)


def test_discretized_error_taxonomy_in_step():
    # Halving the step drives the error to the truncation floor; the
    # aliasing term makes it blow up once the step is too coarse.
    setup = lindblad_setup("CH", 3, 5, seed=2)
    a = setup["jump_set"][0]
    exact = setup["lindblads"][0]
    T = 1.6

    def err(dt):
        bar = gs.lindblad_op_discretized(a, setup["spec"], BETA, T=T, S=round(T / dt))
        return np.linalg.norm(bar - exact, 2)

    e_04, e_032, e_02, e_01 = err(0.4), err(0.32), err(0.2), err(0.1)
    assert e_04 > e_032 > e_02 > e_01
    assert e_04 / e_02 > 1e3  # steep aliasing rise above JDt ~ 0.25
    assert e_01 < 1e-8  # at fine steps only the truncation floor remains


def test_lindblad_norm_sanity_cap():
    setup = lindblad_setup("CH", 4, 10, seed=1)
    eta_max = float(gs.filter_freq(BETA, -1 / BETA))
    for a, L in zip(setup["jump_set"], setup["lindblads"]):
        cap = np.linalg.norm(a.matrix(), 2) * eta_max * setup["bohr"].count
        assert np.linalg.norm(L, 2) <= cap


def test_pauli_string_invariants_enforced():
    with pytest.raises(InvalidLocality):
        gs.PauliString(n=3, sites=(0, 0), letters=("X", "X"))
    with pytest.raises(InvalidLocality):
        gs.PauliString(n=3, sites=(0, 3), letters=("X", "Z"))
    with pytest.raises(InvalidLocality):
        gs.PauliString(n=3, sites=(0,), letters=("I",))


@pytest.mark.parametrize("n", range(1, 7))
def test_signed_permutation_is_the_dense_matrix(n):
    # every k and letter, checked entry for entry against the kron product
    strings = [a for k in range(1, n + 1) for a in gs.sample_jump_set(n, k, 12, seed=k)]
    assert {letter for a in strings for letter in a.letters} == {"X", "Y", "Z"}
    for a in strings:
        cols, phases = a.signed_permutation()
        sparse = np.zeros((2**n, 2**n), dtype=complex)
        sparse[np.arange(2**n), cols] = phases
        assert np.array_equal(sparse, kron_matrix(a))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("key", ["CH", "REG"])
def test_exact_oft_of_a_string_is_that_of_its_kron_matrix(key, n):
    # matrix() writes the signed permutation into zeros, so it may differ from
    # the kron product in the signs of zeros only; every OFT operator built
    # from it has the same bits
    setup = point_setup(key, n)
    spec, bohr = setup["spec"], setup["bohr"]
    for k in (1, 2, 3):
        for a in gs.sample_jump_set(n, k, 8, seed=k):
            dense = kron_matrix(a)
            assert np.array_equal(a.matrix(), dense)
            built = gs.lindblad_op_exact(a, spec, BETA, bohr)
            assert built.tobytes() == gs.lindblad_op_exact(dense, spec, BETA, bohr).tobytes()


@pytest.mark.parametrize("builder", ["exact", "discretized"])
def test_builders_return_the_eigenbasis_product(builder):
    # a plain complex array V (eta o V^dag A V) V^dag, and finite or nothing
    setup = lindblad_setup("CH", 3, 4)
    spec, bohr = setup["spec"], setup["bohr"]
    T, S = 1.6, 8
    nu = spec.values[:, None] - spec.values[None, :]
    if builder == "exact":
        eta = gs.filter_freq(BETA, bohr.pair_frequencies())
        build = lambda a: gs.lindblad_op_exact(a, spec, BETA, bohr)
    else:
        eta = filter_freq_discretized(BETA, nu.ravel(), T, S).reshape(nu.shape)
        build = lambda a: gs.lindblad_op_discretized(a, spec, BETA, T, S)
    v = spec.vectors
    for a in setup["jump_set"]:
        L = build(a)
        assert type(L) is np.ndarray and L.dtype == complex and L.shape == (8, 8)
        expected = v @ (eta * (v.conj().T @ a.matrix() @ v)) @ v.conj().T
        assert np.max(np.abs(L - expected)) <= 1e-12
    bad = setup["jump_set"][0].matrix()
    bad[2, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        build(bad)
