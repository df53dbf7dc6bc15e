import math
import re
import resource
import tracemalloc

import numpy as np
import pytest
import scipy.linalg  # noqa: F401 (mcwf_evolve's import, outside the traced runs)

import gibbsim as gs
from gibbsim import circuit, dynamics, liouville, model
from gibbsim.errors import DimensionMismatch, NotHermitian, ResourceCeiling
from gibbsim.numkernel import PAULI_I, PAULI_X, PAULI_Z, require_memory

from conftest import lindblad_setup, point_setup, random_density_matrix, random_hermitian


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
    require_memory({"a request": 4096})
    with pytest.raises(ResourceCeiling, match=r"needs 4.1e\+03 bytes, memory is 4.1e\+03"):
        require_memory({"a request": 4097})
    soft["limit"] = resource.RLIM_INFINITY
    require_memory({"a request": 10_000})
    with pytest.raises(ResourceCeiling, match=r"memory is 1e\+04"):
        require_memory({"a request": 10_001})


def test_require_memory_checks_the_sum_of_its_parts(monkeypatch):
    # parts that each fit but together do not are refused, the message names
    # the largest; an infinite part never fits, and no parts always do
    monkeypatch.setattr(resource, "getrlimit", lambda _: (10_000, resource.RLIM_INFINITY))
    require_memory({})
    require_memory({"the draws": 6_000, "the stack": 4_000})
    with pytest.raises(ResourceCeiling) as refused:
        require_memory({"the draws": 6_000, "the stack": 4_001})
    assert str(refused.value) == (
        "a run whose largest part is the draws needs 1e+04 bytes, memory is 1e+04"
    )
    with pytest.raises(ResourceCeiling, match="largest part is the stack needs 1.2e"):
        require_memory({"the draws": 5_000, "the stack": 7_000})
    with pytest.raises(ResourceCeiling, match="largest part is an operator at n=64 needs inf"):
        require_memory({"the draws": 1, "an operator at n=64": math.inf})


def _solve(solver, n, **cfg):
    s = lindblad_setup("CH", n, 20)
    cfg = gs.SolverConfig(dt_rk0=0.05, grid_points=0, **cfg)
    rho0 = gs.maximally_mixed(n)
    if solver is gs.evolve_randomized:
        return solver(s["ham"], s["lindblads"], rho0, cfg, s["sigma"])
    if solver is gs.evolve_exact:
        return solver(s["ham"], s["lindblads"], s["gammas"], rho0, cfg, s["sigma"])
    return solver(s["ham"], s["lindblads"], s["gammas"], None, cfg, s["sigma"])


def _generator(build, n=4):
    s = lindblad_setup("CH", n, 20)
    return build(s["ham"], s["lindblads"], s["gammas"])


PROTOCOL = {"dt_ev": 0.5, "dt_oft": 0.2, "t_max": 500.0, "n_rep": 100}

# Every library entry point at CH, 20 jumps, sizes where its run holds over
# 1 MB and no part holds all of it.
ENTRY_POINTS = {
    "evolve_randomized.propagators": lambda: _solve(gs.evolve_randomized, 3, max_steps=2000),
    "evolve_randomized.staged": lambda: _solve(
        gs.evolve_randomized, 4, max_steps=1000, state_blocks=2
    ),
    "evolve_exact": lambda: _solve(gs.evolve_exact, 4, max_steps=400, state_blocks=1),
    "mcwf_evolve": lambda: _solve(gs.mcwf_evolve, 4, max_steps=400, state_blocks=1),
    "steady_state_and_gap": lambda: _generator(gs.steady_state_and_gap),
    "build_superop": lambda: _generator(gs.build_superop),
    "build_superop.n5": lambda: _generator(gs.build_superop, 5),
    "build_hamiltonian": lambda: gs.build_hamiltonian(gs.named_point("CH", 8)),
    "simulate_protocol": lambda: gs.simulate_protocol(
        point_setup("CH", 3)["chain"], gs.CircuitConfig(**PROTOCOL), gs.NoiseSpec()
    ),
    "step_V": lambda: gs.step_V(
        gs.sample_jump_set(6, 2, 1, 0)[0],
        gs.CircuitConfig(**PROTOCOL),
        point_setup("CH", 6)["chain"],
    ),
}


class _Checked(Exception):
    pass


def checked_parts(monkeypatch, entry):
    """The {part: bytes} of the one memory check that `entry` makes first,
    read by stopping the run there; the setups it reads are built before."""
    for n in (3, 4, 5):
        lindblad_setup("CH", n, 20)
    point_setup("CH", 6)
    seen = []

    def spy(parts):
        seen.append(dict(parts))
        raise _Checked

    with monkeypatch.context() as patch:
        for module in (model, liouville, dynamics, circuit):
            patch.setattr(module, "require_memory", spy)
        with pytest.raises(_Checked):
            ENTRY_POINTS[entry]()
    (parts,) = seen
    return parts


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_checks_the_sum_of_its_parts_first(monkeypatch, entry):
    # an address-space limit between the largest part and the sum is
    # refused before any part exists, naming the largest
    parts = checked_parts(monkeypatch, entry)
    largest, total = max(parts.values()), sum(parts.values())
    limit = (largest + total) // 2
    assert largest < limit < total and total > 1_000_000
    monkeypatch.setattr(resource, "getrlimit", lambda _: (limit, resource.RLIM_INFINITY))
    name = re.escape(max(parts, key=parts.get))

    def refused():
        with pytest.raises(ResourceCeiling, match=f"largest part is {name} needs"):
            ENTRY_POINTS[entry]()

    assert traced_peak(refused) < 1_000_000


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_peak_stays_within_its_stated_sum(monkeypatch, entry):
    # the parts cover what the run holds: its traced peak exceeds their sum
    # by at most a slack for Python objects and O(D^3) index temporaries
    total = sum(checked_parts(monkeypatch, entry).values())
    assert traced_peak(ENTRY_POINTS[entry]) <= total + 128 * 1024
