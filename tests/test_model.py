from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

import gibbsim as gs
from gibbsim.chaos import even_sector_basis
from gibbsim.errors import ResourceCeiling
from gibbsim.model import (
    RK_STEP_TABLE, _diagonal_split, _sorted_distinct, bohr_frequencies, gibbs_state,
)

from conftest import BETA, point_setup


def pauli_sum_oracle(params):
    """Element-wise evaluation of the chain Hamiltonian without any kron."""
    n = params.n
    dim = 2**n
    ham = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        # site s has value bit (reading site 0 as the most significant bit)
        bits = [(x >> (n - 1 - s)) & 1 for s in range(n)]
        z = [1 - 2 * b for b in bits]
        diag = -params.J * sum(z[s] * z[s + 1] for s in range(n - 1))
        diag -= params.m * sum(z)
        ham[x, x] += diag
        for s in range(n):
            y = x ^ (1 << (n - 1 - s))
            ham[y, x] += -params.h
    return ham


def kron_split(params):
    """(diag, transverse), -J sum ZZ - m sum Z and -h sum X, as sums of
    Kronecker-product chains: the bit oracle of the Hamiltonian build."""
    n, dim = params.n, 2**params.n
    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)

    def chain(ops):
        return reduce(np.kron, [ops.get(s, eye) for s in range(n)])

    diag = np.zeros((dim, dim), dtype=complex)
    for i in range(n - 1):
        diag -= params.J * chain({i: z, i + 1: z})
    for i in range(n):
        diag -= params.m * chain({i: z})
    transverse = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        transverse -= params.h * chain({i: x})
    return diag, transverse


def assert_hamiltonian_is_kron_sum(params):
    diag, transverse = kron_split(params)
    assert gs.build_hamiltonian(params).tobytes() == (diag + transverse).tobytes()


@pytest.mark.parametrize("J", [1.0, 0.5, 2.0])
@pytest.mark.parametrize("key", sorted(gs.NAMED_POINTS))
def test_ising_split_is_the_kron_sum_bit_for_bit(key, J):
    for n in range(1, 9):
        assert_hamiltonian_is_kron_sum(gs.named_point(key, n, J=J))


SIGNED_FIELDS = [(0.0, 0.0), (-0.0, -0.0), (-0.7, 0.3), (0.0, -1.2)]


@pytest.mark.parametrize("h, m", SIGNED_FIELDS)
def test_ising_split_keeps_signed_zeros_and_signs_of_fields(h, m):
    for n in range(1, 6):
        assert_hamiltonian_is_kron_sum(gs.IsingParams(n=n, J=1.3, h=h, m=m))


def test_trotter2_parts_are_the_kron_split_bit_for_bit():
    # the diagonal and off-diagonal parts that circuit's trotter2 mode takes from H
    chains = [
        gs.named_point(key, n, J=J)
        for key in gs.NAMED_POINTS for J in (1.0, 0.5, 2.0) for n in range(1, 9)
    ]
    chains += [gs.IsingParams(n=n, J=1.3, h=h, m=m) for h, m in SIGNED_FIELDS for n in range(1, 6)]
    for params in chains:
        parts = _diagonal_split(gs.build_hamiltonian(params))
        for part, old in zip(parts, kron_split(params)):
            assert part.tobytes() == old.tobytes()


@pytest.mark.parametrize("n", [20, 40])
def test_ising_split_too_big_for_memory_raises_ceiling(n):
    with pytest.raises(ResourceCeiling, match=f"n={n}"):
        gs.build_hamiltonian(gs.named_point("CH", n))


def test_ising_split_ceiling_counts_four_dense_arrays(monkeypatch):
    # four complex 8x8 arrays at n = 3 take 4096 bytes
    params = gs.named_point("CH", 3)
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 4 * 16 * 8 * 8}
    monkeypatch.setattr("gibbsim.numkernel.os.sysconf", memory.__getitem__)
    gs.build_hamiltonian(params)
    memory["SC_PHYS_PAGES"] -= 1
    with pytest.raises(ResourceCeiling):
        gs.build_hamiltonian(params)


def test_single_qubit_fields():
    params = gs.IsingParams(n=1, J=1.0, h=0.8, m=0.3)
    ham = gs.build_hamiltonian(params)
    vals = np.linalg.eigvalsh(ham)
    r = np.hypot(0.8, 0.3)
    assert np.allclose(vals, [-r, r])


def test_two_qubit_zz_spectrum():
    params = gs.IsingParams(n=2, J=1.3, h=0.0, m=0.0)
    vals = np.linalg.eigvalsh(gs.build_hamiltonian(params))
    assert np.allclose(vals, [-1.3, -1.3, 1.3, 1.3])


def test_ch_point_matches_pauli_sum_oracle():
    params = gs.named_point("CH", 5)
    ham = gs.build_hamiltonian(params)
    oracle = pauli_sum_oracle(params)
    assert np.max(np.abs(ham - oracle)) < 1e-12
    assert np.allclose(np.linalg.eigvalsh(ham), np.linalg.eigvalsh(oracle))


@pytest.mark.parametrize("key", ["CH", "REG"])
def test_ising_split_parts_sum_to_hamiltonian(key):
    params = gs.named_point(key, 4)
    diag, transverse = _diagonal_split(gs.build_hamiltonian(params))
    assert np.array_equal(diag, np.diag(np.diag(diag)))
    assert np.max(np.abs(np.diag(transverse))) == 0
    expected = -params.h * sum(
        np.kron(np.kron(np.eye(2**i), np.array([[0, 1], [1, 0]])), np.eye(2 ** (3 - i)))
        for i in range(4)
    )
    assert np.max(np.abs(transverse - expected)) < 1e-14
    assert np.array_equal(diag + transverse, gs.build_hamiltonian(params))


def test_named_point_values():
    assert gs.NAMED_POINTS["CH"] == (1.0, 0.4)
    assert gs.NAMED_POINTS["REG"] == (0.1585, 3.062)
    assert gs.NAMED_POINTS["REG2"] == (6.310, 0.2158)
    assert RK_STEP_TABLE["CH"][5] == 0.125


def test_gibbs_infinite_temperature():
    setup = point_setup("CH", 3)
    assert np.allclose(gibbs_state(setup["spec"], 0.0), np.eye(8) / 8)


def test_gibbs_low_temperature_projects_ground_state():
    setup = point_setup("CH", 3)
    spec = setup["spec"]
    beta = 60.0
    gap = spec.values[1] - spec.values[0]
    ground = np.outer(spec.vectors[:, 0], spec.vectors[:, 0].conj())
    dist = gs.trace_distance(gibbs_state(spec, beta), ground)
    assert dist < 8 * 2**3 * np.exp(-beta * gap)


def test_gibbs_single_qubit_closed_form():
    h = 0.9
    ham = -h * np.array([[0, 1], [1, 0]], dtype=complex)
    spec = gs.eig_hermitian(ham)
    beta = 0.7
    sigma = gibbs_state(spec, beta)
    plus = np.array([1, 1]) / np.sqrt(2)
    p_plus = float(np.real(plus @ sigma @ plus))
    assert p_plus == pytest.approx(np.exp(beta * h) / (2 * np.cosh(beta * h)), abs=1e-12)


def test_gibbs_properties():
    setup = point_setup("CH", 4)
    sigma = setup["sigma"]
    assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(sigma)) > 0
    comm = setup["ham"] @ sigma - sigma @ setup["ham"]
    assert np.max(np.abs(comm)) < 1e-10


def test_bohr_two_qubit_zz():
    params = gs.IsingParams(n=2, J=1.0, h=0.0, m=0.0)
    spec = gs.eig_hermitian(gs.build_hamiltonian(params))
    bohr = bohr_frequencies(spec)
    assert np.allclose(bohr.frequencies, [-2.0, 0.0, 2.0])


def test_bohr_single_qubit():
    h = 0.6
    spec = gs.eig_hermitian(-h * np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(bohr_frequencies(spec).frequencies, [-1.2, 0.0, 1.2])


@pytest.mark.parametrize("key,n", [("CH", 4), ("REG", 4), ("TFIM", 5), ("KIH", 5)])
def test_bohr_negation_symmetry_and_zero(key, n):
    setup = point_setup(key, n)
    freqs = setup["bohr"].frequencies
    assert np.allclose(freqs, -freqs[::-1], atol=1e-12)
    assert 0.0 in freqs
    nu = setup["bohr"].pair_frequencies()
    raw = setup["spec"].values[:, None] - setup["spec"].values[None, :]
    assert np.max(np.abs(nu - raw)) < 1e-6


def greedy_cluster_reps(w, tol):
    """Nonnegative Bohr frequencies by the value-by-value greedy rule: a
    cluster of the sorted |E_i - E_j| runs from its start while values stay
    within tol of it, and is represented by its mean; the first is pinned to 0."""
    pos = np.sort(np.unique(np.abs(w[:, None] - w[None, :]).ravel()))
    reps = []
    start = 0
    for k in range(1, len(pos) + 1):
        if k == len(pos) or pos[k] - pos[start] > tol:
            reps.append(pos[start:k].mean())
            start = k
    reps[0] = 0.0
    return np.array(reps), pos


@pytest.mark.parametrize("seed", range(6))
def test_bohr_clusters_match_greedy_loop(seed):
    # Random levels plus planted chains whose neighbours sit 0.3-0.9 tol
    # apart, so runs of close differences span more than tol and the greedy
    # rule has to split them.
    rng = np.random.default_rng(seed)
    tol = 1e-3
    levels = [rng.uniform(-5.0, 5.0, 12)]
    for _ in range(3):
        levels.append(rng.uniform(-5.0, 5.0) + tol * np.cumsum(rng.uniform(0.3, 0.9, 6)))
    w = np.sort(np.concatenate(levels))
    reps, pos = greedy_cluster_reps(w, tol)
    assert len(reps) > np.sum(np.diff(pos) > tol) + 1  # some run was split
    assert _sorted_distinct(np.abs(w[:, None] - w[None, :])).tobytes() == pos.tobytes()
    bohr = bohr_frequencies(SimpleNamespace(values=w), tol=tol)
    assert np.array_equal(bohr.frequencies[bohr.count // 2 :], reps)
    assert np.array_equal(bohr.frequencies, -bohr.frequencies[::-1])


@pytest.mark.parametrize("key,n", [("CH", 4), ("REG", 4), ("TFIM", 5), ("KIH", 5), ("CH", 6)])
def test_bohr_distinct_differences_match_np_unique(key, n):
    # bohr_frequencies sorts and masks instead of calling np.unique (which
    # imports numpy.ma); the distinct |E_i - E_j| must be the same bits.
    w = point_setup(key, n)["spec"].values
    diffs = np.abs(w[:, None] - w[None, :])
    assert _sorted_distinct(diffs).tobytes() == np.unique(diffs).tobytes()


@pytest.mark.parametrize("n", [4, 5])
def test_bohr_reg_far_fewer_clusters_than_ch(n):
    # Grouped at a physical resolution, the near-degenerate REG levels
    # collapse into far fewer distinct frequencies than the chaotic point.
    counts = {}
    for key in ("CH", "REG"):
        spec = point_setup(key, n)["spec"]
        counts[key] = bohr_frequencies(spec, tol=0.02).count
    assert counts["REG"] < counts["CH"] / 3


@pytest.mark.parametrize("key", ["CH", "REG", "KIH"])
def test_parity_commutes_with_hamiltonian(key):
    # H maps the even sector of site reversal into itself, the premise of
    # spacing_ratios: max |(I - B B^dag) H B| vanishes
    ham = point_setup(key, 4)["ham"]
    b = even_sector_basis(4)
    leak = ham @ b - b @ (b.conj().T @ ham @ b)
    assert np.max(np.abs(leak)) < 1e-10


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        gs.IsingParams(n=0)
    with pytest.raises(ValueError):
        gs.IsingParams(n=2, J=0.0)
