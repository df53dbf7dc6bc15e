import resource

import numpy as np
import pytest

import gibbsim as gs
from gibbsim.errors import DimensionMismatch, NotHermitian, ResourceCeiling
from gibbsim.numkernel import PAULI_I, PAULI_X, PAULI_Z, require_memory

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


def test_trace_distance_work_path_equals_allocating_path_bitwise(rng):
    # The grid record passes its own buffer pair as `work`, with the stack
    # already written into work[0]; the distances must be the same bits.
    dim = 16
    target = random_density_matrix(dim, rng)
    stack = np.stack([random_density_matrix(dim, rng) for _ in range(6)])
    skew = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    stack += 1e-13 * (skew - skew.conj().swapaxes(-1, -2))  # anti-Hermitian roundoff
    work = np.empty((2,) + stack.shape, dtype=complex)
    work[0] = stack
    in_place = gs.trace_distance(work[0], target, work)
    assert in_place.tobytes() == gs.trace_distance(stack, target).tobytes()

    a, b = stack[0], stack[1]
    single = gs.trace_distance(a, b, np.empty((2, dim, dim), dtype=complex))
    assert isinstance(single, float) and single == gs.trace_distance(a, b)

    ints = rng.integers(-3, 4, size=(3, 5, 5))
    ref = np.diag([2, 0, -1, 1, 0])
    pair = np.empty((2, 3, 5, 5))
    assert gs.trace_distance(ints, ref, pair).tobytes() == gs.trace_distance(ints, ref).tobytes()


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
    assert np.allclose(gs.partial_trace_ancilla(np.kron(anc, rho)), rho)


def test_partial_trace_ancilla_mixed(rng):
    rho = random_density_matrix(4, rng)
    assert np.allclose(gs.partial_trace_ancilla(np.kron(np.eye(2) / 2, rho)), rho)


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


def test_partial_trace_of_kron_scales_by_trace(rng):
    rho = random_density_matrix(8, rng)
    for _ in range(5):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = 0.5 * (m + m.conj().T)
        out = gs.partial_trace_ancilla(np.kron(m, rho))
        assert np.max(np.abs(out - np.trace(m) * rho)) < 1e-12


def test_require_memory_honours_a_finite_address_space_limit(monkeypatch):
    # the smaller of physical memory and the RLIMIT_AS soft limit bounds a
    # request; an infinite soft limit leaves physical memory alone
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 10_000}
    soft = {"limit": 4096}
    monkeypatch.setattr("gibbsim.numkernel.os.sysconf", memory.__getitem__)
    monkeypatch.setattr(resource, "getrlimit", lambda _: (soft["limit"], resource.RLIM_INFINITY))
    require_memory(4096, "a request")
    with pytest.raises(ResourceCeiling, match=r"needs 4.1e\+03 bytes, memory is 4.1e\+03"):
        require_memory(4097, "a request")
    soft["limit"] = resource.RLIM_INFINITY
    require_memory(10_000, "a request")
    with pytest.raises(ResourceCeiling, match=r"memory is 1e\+04"):
        require_memory(10_001, "a request")
