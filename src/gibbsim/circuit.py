"""Density-matrix simulation of the randomized single-ancilla protocol.

One evolution step of length dt_ev applies e^{-iH dt_ev}, couples the system
to a fresh ancilla through the second-order product formula V^a built from
the discretized-OFT dilation of a sampled jump operator, traces the ancilla
out, and finally applies the configured noise channel.  The ancilla is the
most significant qubit.

The Kraus pairs of every jump are built by one sweep that applies V^a's
factors right to left to the start block [e^{-iH dt_ev}; 0]: an ancilla
rotation B_s is a signed row permutation of the other ancilla block, O(D^2)
per jump, and each e^{-+iH Delta t} is one GEMM over the whole jump set.
That costs 4(2S + 1) D^3 complex multiply-adds per jump, against
4(2S + 1) (2D)^3 for the dense product of V^a's 2D x 2D factors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _run_batched
from .errors import DimensionMismatch
from .jumps import FilterSpec, filter_time, sample_jump_set
from .model import maximally_mixed
from .numkernel import PAULI_I, eig_hermitian, expm_phase, kron

GATE_COUNT_LOOKUP_N5 = {1.0: 308, 3.0: 484, 5.0: 644}
GATE_COUNT_PER_QUBIT_TIME = 50.0


@dataclass(frozen=True)
class CircuitConfig:
    """Protocol knobs; times in 1/J, rates in J.

    dt_ev : Trotter evolution step (delta t)
    dt_oft : OFT discretization step; S = round(T / dt_oft), at least 1
    T : OFT cutoff time
    coherent_mode : 'exact' eigenbasis exponentials, or 'trotter2' with
        r_delta substeps for e^{-iH dt_ev} and r_big substeps per
        e^{+-iH Delta t} (requires a Hamiltonian split)
    """

    dt_ev: float
    dt_oft: float
    T: float = 1.6
    gamma: float = 1.0
    t_max: float = 500.0
    jump_count: int = 10
    k: int = 2
    seed: int = 0
    beta: float = 0.5
    coherent_mode: str = "exact"
    r_delta: int = 1
    r_big: int = 1
    n_rep: int = 10
    grid_points: int = 2000

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.dt_ev, self.dt_oft, self.T, self.t_max)):
            raise ValueError("dt_ev, dt_oft, T and t_max must be positive and finite")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if not (self.n_rep >= 1 and self.r_delta >= 1 and self.r_big >= 1):
            raise ValueError("n_rep, r_delta and r_big must be at least 1")
        if round(self.T / self.dt_oft) < 1:
            raise ValueError("dt_oft too coarse: T/dt_oft rounds below 1")
        if self.coherent_mode not in ("exact", "trotter2"):
            raise ValueError(f"unknown coherent mode {self.coherent_mode!r}")

    @property
    def oft_steps(self):
        return round(self.T / self.dt_oft)

    @property
    def dt_oft_effective(self):
        return self.T / self.oft_steps

    @property
    def n_steps(self):
        return max(1, math.ceil(self.t_max / self.dt_ev))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-step error budget.

    kind 'none', 'global_stochastic' (probability `lam` of replacing the
    state by the maximally mixed one) or 'depolarizing_budget' (N_g
    two-qubit depolarizing events of strength lambda_g per evolution step,
    each on a uniformly random adjacent pair).
    """

    kind: str = "none"
    lam: float = 0.0
    lambda_g: float = 0.0
    n_g_override: int | None = None

    def __post_init__(self):
        if self.kind not in ("none", "global_stochastic", "depolarizing_budget"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0 or not 0.0 <= self.lambda_g <= 1.0:
            raise ValueError("error probabilities must lie in [0, 1]")
        if self.n_g_override is not None and not self.n_g_override >= 1:
            raise ValueError("n_g must be at least 1")


def gate_count(noise, n, dt_ev):
    """Two-qubit-gate budget per evolution step.

    Uses the measured compiled counts for the n = 5 benchmarks at
    J dt_ev in {1, 3, 5}; otherwise the linear rule 50 * n * J dt_ev.
    """
    if noise.n_g_override is not None:
        return int(noise.n_g_override)
    if n == 5:
        for key, count in GATE_COUNT_LOOKUP_N5.items():
            if abs(dt_ev - key) < 1e-12:
                return count
    return max(1, round(GATE_COUNT_PER_QUBIT_TIME * n * dt_ev))


def dilation_discrete(lbar):
    """Hermitian dilation |1><0| (x) L + |0><1| (x) L^dag on dim 2D."""
    lower = np.array([[0, 0], [1, 0]], dtype=complex)
    return kron(lower, lbar) + kron(lower.T, lbar.conj().T)


class _CoherentFactory:
    """Produces e^{-iHt} either exactly or by second-order Trotter split."""

    def __init__(self, spec, mode, ham_split=None):
        self.spec = spec
        self.mode = mode
        if mode == "trotter2":
            if ham_split is None:
                raise ValueError("trotter2 mode needs a Hamiltonian split (A, B)")
            self.spec_a = eig_hermitian(ham_split[0])
            self.spec_b = eig_hermitian(ham_split[1])

    def unitary(self, t, substeps):
        if self.mode == "exact":
            return expm_phase(self.spec, t)
        half_a = expm_phase(self.spec_a, t / (2 * substeps))
        full_b = expm_phase(self.spec_b, t / substeps)
        step = half_a @ full_b @ half_a
        return np.linalg.matrix_power(step, substeps)


def step_V(a, cfg, spec, ham_split=None):
    """Second-order product formula for the dilated dissipative step.

    Interleaves the closed-form ancilla rotations B_s with coherent steps
    e^{+-iH Delta t}: the forward pass multiplies B_s e^{+iH Dt} for
    s = -S..S, the backward pass e^{-iH Dt} B_s for s = S..-S.  The OFT
    boundary factors e^{-+iHS Dt} cancel between consecutive protocol steps
    and are dropped, so V approximates the exponential of the dilation
    conjugated by e^{iHS Dt}; `step_v_reference` builds that target.  `a` is
    the jump's `PauliString` and `spec` the Hamiltonian's `Spectrum`.
    """
    dim = 2 * spec.dim
    coherent = _CoherentFactory(spec, cfg.coherent_mode, ham_split)
    return _sweep([a], cfg, coherent, np.eye(dim, dtype=complex))[0].reshape(dim, dim)


def step_v_reference(a, cfg, spec):
    """Dense-exponential target of step_V: the boundary-conjugated
    e^{-i sqrt(dt_ev gamma) K_bar}, exact up to the product-formula error."""
    from .jumps import lindblad_op_discretized

    f = FilterSpec(cfg.beta)
    lbar = lindblad_op_discretized(a, spec, f, cfg.T, cfg.oft_steps)
    kbar = dilation_discrete(lbar)
    kspec = eig_hermitian(kbar)
    theta = math.sqrt(cfg.dt_ev * cfg.gamma)
    boundary = kron(PAULI_I, expm_phase(spec, -cfg.oft_steps * cfg.dt_oft_effective))
    return boundary @ expm_phase(kspec, theta) @ boundary.conj().T


def _sweep(jump_set, cfg, coherent, start):
    """V^a @ start for every jump a, applied factor by factor right to left.

    start is (2D, W); returns (J, 2, D, W), the rows of ancilla block m.
    V^a is the forward pass of B_s e^{+iH Dt} over s = -S..S times the
    backward pass of e^{-iH Dt} B_s over s = S..-S, so the sweep applies
    B_s then e^{-iH Dt} for s = -S..S, then e^{+iH Dt} then B_s for
    s = S..-S.  B_s = cos(theta_s) I - i sin(theta_s) (d_s (x) A) with
    d_s = [[0, conj(u_s)], [u_s, 0]], u_s = g_s / |g_s|: each ancilla block
    gains the other block's rows permuted and signed by the Pauli string A.
    The coherent factors are shared by every jump and act as one GEMM over
    the (D, J * 2W) layout.
    """
    s_max, dt = cfg.oft_steps, cfg.dt_oft_effective
    dim, width = start.shape[0] // 2, start.shape[1]
    n_jump = len(jump_set)
    steps = np.arange(-s_max, s_max + 1)
    g = filter_time(FilterSpec(cfg.beta), steps * dt)
    mag = np.abs(g)
    weights = np.where(np.abs(steps) < s_max, dt, dt / 2.0)
    theta = 0.5 * math.sqrt(cfg.dt_ev * cfg.gamma) * weights * mag
    unit = np.divide(g, mag, out=np.zeros_like(g), where=mag > 0)
    # mix[s, m]: weight of old ancilla block m in the other new block
    mix = -1j * np.sin(theta)[:, None] * np.stack([unit, unit.conj()], axis=1)
    cosine = np.cos(theta)
    u_plus = coherent.unitary(-dt, cfg.r_big)
    u_minus = coherent.unitary(dt, cfg.r_big)

    # Built from the strings' bits: dense D x D temporaries here measurably
    # raised the page faults of the later steps.
    perms = [a.signed_permutation() for a in jump_set]
    cols = np.stack([c for c, _ in perms], axis=1)  # (D, J)
    phases = np.stack([p for _, p in perms], axis=1)[:, :, None, None]
    # row (r, j) of a (D * J, 2W) half reads row (cols[r, j], j)
    gather = (cols * n_jump + np.arange(n_jump)).ravel()
    rows = (dim * n_jump, 2 * width)

    # One array, halves in turn: fresh per-layer arrays move glibc's mmap threshold and fault later.
    work = np.empty((2, dim, n_jump, 2, width), dtype=complex)
    work[0] = start.reshape(2, dim, width).transpose(1, 0, 2)[:, None]
    cur = 0

    def gate(s):
        x, other = work[cur], work[1 - cur]
        # mode 'clip' writes straight into `out`; the default 'raise' buffers it
        np.take(x.reshape(rows), gather, axis=0, out=other.reshape(rows), mode="clip")
        other *= phases * mix[s + s_max, :, None]
        x *= cosine[s + s_max]
        x[:, :, 0] += other[:, :, 1]
        x[:, :, 1] += other[:, :, 0]

    def evolve(u):
        nonlocal cur
        np.matmul(u, work[cur].reshape(dim, -1), out=work[1 - cur].reshape(dim, -1))
        cur = 1 - cur

    for s in range(-s_max, s_max + 1):
        gate(s)
        evolve(u_minus)
    for s in range(s_max, -s_max - 1, -1):
        evolve(u_plus)
        gate(s)
    return np.ascontiguousarray(work[cur].transpose(1, 2, 0, 3))


class ProtocolEngine:
    """Precomputed Kraus operators of W-tilde for the M-step loop.

    The ancilla enters in |0>, so only the 0-column blocks of V^a act:
    W-tilde(rho) = sum_m K_m rho K_m^dag with K_m = V^a[m-block, 0-block] U_ev.
    """

    def __init__(self, ham, cfg, ham_split=None):
        ham = np.asarray(ham, dtype=complex)
        self.dim = ham.shape[0]
        self.n = int(round(math.log2(self.dim)))
        self.spec = eig_hermitian(ham)
        self.coherent = _CoherentFactory(self.spec, cfg.coherent_mode, ham_split)
        self.jump_set = sample_jump_set(self.n, cfg.k, cfg.jump_count, cfg.seed)
        self.u_ev = self.coherent.unitary(cfg.dt_ev, cfg.r_delta)
        start = np.concatenate([self.u_ev, np.zeros_like(self.u_ev)])
        # (jump, m, D, D): rows of ancilla block m, columns of ancilla block 0
        self.kraus = _sweep(self.jump_set, cfg, self.coherent, start)
        self.kraus_dag = self.kraus.conj().swapaxes(-1, -2)

    def step_wtilde_batch(self, rho, a_indices):
        """W-tilde on a stack of states, state r with jump a_indices[r]."""
        branches = self.kraus[a_indices] @ rho[:, None] @ self.kraus_dag[a_indices]
        return branches[:, 0] + branches[:, 1]


def _depolarize_adjacent_pairs(rho, counts, lam):
    """Fused two-qubit depolarizing events on the adjacent pairs of a stack.

    rho has shape (R, D, D) and counts (R, n - 1): counts[r, p] events of
    strength `lam` hit sites (p, p+1) of state r.  Pauli channels commute
    and k events on one pair compose to one of strength 1 - (1 - lam)^k, so
    each pair is applied once, with a per-state strength.  Adjacent sites
    occupy contiguous bits, so a pair factors out of the row and column
    indices by reshaping alone (no axis moves).
    """
    reps, dim = rho.shape[0], rho.shape[-1]
    n = counts.shape[1] + 1
    out = rho
    for pair in np.flatnonzero(counts.any(axis=0)):
        keep = (1.0 - lam) ** counts[:, pair]
        left = 1 << pair
        right = 1 << (n - 2 - pair)
        t = out.reshape(reps, left, 4, right, left, 4, right)
        quarter = 0.25 * (1.0 - keep)
        reduced = quarter[:, None, None, None, None] * np.einsum("raibcid->rabcd", t)
        out = keep[:, None, None, None, None, None, None] * t
        for i in range(4):
            out[:, :, i, :, :, i, :] += reduced
        out = out.reshape(reps, dim, dim)
    return out


def apply_noise(rho, noise, step_context):
    """Apply the per-step noise channel to one state (D, D) or a stack (R, D, D).

    step_context carries the placement RNG (a sequence of R generators for
    a stack) and the per-step gate budget for the depolarizing mode; it is
    ignored for the global channels.  Each state draws its N_g pair indices
    in one call, which leaves its stream where N_g single draws would.
    """
    if noise.kind == "none":
        return rho
    dim = rho.shape[-1]
    if noise.kind == "global_stochastic":
        tr = np.einsum("...ii->...", rho)
        return (1.0 - noise.lam) * rho + noise.lam * tr[..., None, None] * np.eye(dim) / dim
    n = int(round(math.log2(dim)))
    if n < 2:
        raise DimensionMismatch("two-qubit noise needs at least two qubits")
    rngs = step_context["rng"] if rho.ndim == 3 else [step_context["rng"]]
    n_g = step_context["n_g"]
    counts = np.stack([np.bincount(rng.integers(n - 1, size=n_g), minlength=n - 1) for rng in rngs])
    out = _depolarize_adjacent_pairs(rho.reshape(-1, dim, dim), counts, noise.lambda_g)
    return out.reshape(rho.shape)


def simulate_protocol(ham, cfg, noise, target, ham_split=None):
    """Run the full randomized single-ancilla protocol from the maximally
    mixed state.

    Repetitions evolve in lock step; the recorded series is the trace
    distance of the repetition-averaged state to `target`, and
    final_avg_state is the protocol's steady-state estimate.  Jump sampling
    and noise placement use separate per-repetition streams, so noiseless
    and noisy runs at the same seed share jump trajectories.
    """
    engine = ProtocolEngine(ham, cfg, ham_split)
    n_g = gate_count(noise, engine.n, cfg.dt_ev) if noise.kind == "depolarizing_budget" else 0

    jump_rngs = [np.random.default_rng([cfg.seed, rep, 0]) for rep in range(cfg.n_rep)]
    noise_rngs = [np.random.default_rng([cfg.seed, rep, 1]) for rep in range(cfg.n_rep)]
    draws = np.stack(
        [rng.integers(0, cfg.jump_count, size=cfg.n_steps) for rng in jump_rngs]
    )
    noise_context = {"rng": noise_rngs, "n_g": n_g}

    def step(rho, j, _scratch):
        return apply_noise(engine.step_wtilde_batch(rho, draws[:, j]), noise, noise_context)

    rho0 = np.broadcast_to(maximally_mixed(engine.n), (cfg.n_rep, engine.dim, engine.dim))
    record = _run_batched(step, rho0, cfg.n_steps, cfg.dt_ev, cfg.grid_points, target)
    record.meta.update(gate_count=n_g, engine_jumps=len(engine.jump_set))
    return record


def plateau_level(record):
    """Mean averaged distance over the trailing 20% of the series."""
    n = len(record.avg_distance)
    start = max(0, n - max(1, int(round(0.2 * n))))
    return float(np.mean(record.avg_distance[start:]))
