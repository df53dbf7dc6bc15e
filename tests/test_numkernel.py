import numpy as np
import pytest

import gibbsim as gs
from gibbsim.errors import DimensionMismatch, NotHermitian
from gibbsim.numkernel import PAULI_I, PAULI_X, PAULI_Z

from conftest import random_density_matrix, random_hermitian


def test_eig_pauli_z():
    spec = gs.eig_hermitian(PAULI_Z)
    assert np.allclose(spec.values, [-1.0, 1.0])


def test_eig_identity():
    spec = gs.eig_hermitian(np.eye(4))
    assert np.allclose(spec.values, 1.0)
    assert np.allclose(np.abs(spec.vectors @ spec.vectors.conj().T), np.eye(4))


def test_eig_two_qubit_zz():
    params = gs.IsingParams(n=2, J=1.0, h=0.0, m=0.0)
    spec = gs.eig_hermitian(gs.build_hamiltonian(params))
    assert np.allclose(spec.values, [-1.0, -1.0, 1.0, 1.0])


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        gs.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("dim", [8, 64, 256])
def test_eig_roundtrip_random(dim, rng):
    a = random_hermitian(dim, rng)
    spec = gs.eig_hermitian(a)
    rebuilt = spec.vectors @ (spec.values[:, None] * spec.vectors.conj().T)
    assert np.max(np.abs(rebuilt - a)) <= 1e-9 * np.max(np.abs(a))
    assert np.all(np.diff(spec.values) >= 0)
    unit = spec.vectors.conj().T @ spec.vectors
    assert np.max(np.abs(unit - np.eye(dim))) < 1e-10


def test_expm_phase_identity_at_zero():
    spec = gs.eig_hermitian(PAULI_X)
    assert np.allclose(gs.expm_phase(spec, 0.0), np.eye(2))


def test_expm_phase_x_half_pi():
    spec = gs.eig_hermitian(PAULI_X)
    assert np.allclose(gs.expm_phase(spec, np.pi / 2), -1j * PAULI_X, atol=1e-12)


def test_expm_phase_z_pi():
    spec = gs.eig_hermitian(PAULI_Z)
    assert np.allclose(gs.expm_phase(spec, np.pi), -np.eye(2), atol=1e-12)


def test_expm_phase_group_law(rng):
    spec = gs.eig_hermitian(random_hermitian(16, rng))
    for _ in range(5):
        a, b = rng.uniform(-3, 3, size=2)
        lhs = gs.expm_phase(spec, a) @ gs.expm_phase(spec, b)
        rhs = gs.expm_phase(spec, a + b)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_expm_phase_unitary(rng):
    spec = gs.eig_hermitian(random_hermitian(32, rng))
    u = gs.expm_phase(spec, 0.37)
    assert np.max(np.abs(u @ u.conj().T - np.eye(32))) < 1e-9


def test_trace_distance_pure_vs_mixed():
    zero = np.diag([1.0, 0.0]).astype(complex)
    assert gs.trace_distance(zero, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_self_is_zero(rng):
    rho = random_density_matrix(8, rng)
    assert gs.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)


def test_trace_distance_orthogonal_pure():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert gs.trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert gs.trace_distance(np.diag([1, 0]), np.diag([0, 1])) == 1.0


def test_trace_distance_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        gs.trace_distance(np.eye(2), np.eye(4))


def test_trace_distance_batch_matches_per_matrix_loop(rng):
    target = random_density_matrix(8, rng)
    stack = np.stack([random_density_matrix(8, rng) for _ in range(6)]).reshape(2, 3, 8, 8)
    batched = gs.trace_distance(stack, target)
    assert batched.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert abs(batched[i, j] - gs.trace_distance(stack[i, j], target)) < 1e-12
    paired = gs.trace_distance(stack, stack[::-1])
    assert paired[0, 0] == pytest.approx(gs.trace_distance(stack[0, 0], stack[1, 0]), abs=1e-12)
    with pytest.raises(DimensionMismatch):
        gs.trace_distance(stack, np.eye(4))
    with pytest.raises(DimensionMismatch):
        gs.trace_distance(stack, stack[0])


@pytest.mark.parametrize("dim", [8, 16, 32, 64])
def test_trace_distance_stack_bitwise_equals_single_calls(rng, dim):
    # grid recording stacks the trajectories and their average into one call
    target = random_density_matrix(dim, rng)
    for size in (1, 2, 5):
        stack = np.stack([random_density_matrix(dim, rng) for _ in range(size)])
        singles = np.array([gs.trace_distance(one, target) for one in stack])
        assert np.array_equal(gs.trace_distance(stack, target), singles)


def test_trace_distance_triangle_inequality(rng):
    for _ in range(20):
        a = random_density_matrix(8, rng)
        b = random_density_matrix(8, rng)
        c = random_density_matrix(8, rng)
        assert gs.trace_distance(a, c) <= (
            gs.trace_distance(a, b) + gs.trace_distance(b, c) + 1e-10
        )


def test_trace_distance_symmetry(rng):
    a = random_density_matrix(16, rng)
    b = random_density_matrix(16, rng)
    assert gs.trace_distance(a, b) == pytest.approx(gs.trace_distance(b, a), abs=1e-13)


def test_partial_trace_ancilla_zero_block(rng):
    rho = random_density_matrix(8, rng)
    anc = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(gs.partial_trace_ancilla(gs.kron(anc, rho)), rho)


def test_partial_trace_ancilla_mixed(rng):
    rho = random_density_matrix(4, rng)
    assert np.allclose(gs.partial_trace_ancilla(gs.kron(np.eye(2) / 2, rho)), rho)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    reduced = gs.partial_trace_ancilla(np.outer(bell, bell.conj()))
    assert np.allclose(reduced, np.eye(2) / 2)


def test_partial_trace_preserves_trace(rng):
    rho = random_density_matrix(16, rng)
    assert np.trace(gs.partial_trace_ancilla(rho)).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_odd_dim_rejected():
    with pytest.raises(DimensionMismatch):
        gs.partial_trace_ancilla(np.eye(3))


def test_kron_identities():
    assert np.allclose(gs.kron(PAULI_I, PAULI_I), np.eye(4))
    assert np.allclose(gs.kron(PAULI_Z, PAULI_I), np.diag([1, 1, -1, -1]))


def test_kron_xx_flips_00():
    xx = gs.kron(PAULI_X, PAULI_X)
    zero = np.zeros(4)
    zero[0] = 1.0
    assert np.allclose(xx @ zero, np.eye(4)[3])


def test_partial_trace_of_kron_scales_by_trace(rng):
    rho = random_density_matrix(8, rng)
    for _ in range(5):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = 0.5 * (m + m.conj().T)
        out = gs.partial_trace_ancilla(gs.kron(m, rho))
        assert np.max(np.abs(out - np.trace(m) * rho)) < 1e-12
