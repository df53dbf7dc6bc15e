"""Time evolution of the Lindblad equation.

Three solvers share one record format: the randomized density-matrix RK4
scheme (one jump operator sampled per step, Hermiticity-gated adaptive step),
the exact full-Lindbladian RK4, and a Monte-Carlo wave-function unraveling
used as a cross-check.  Times are in units of 1/J.  Each solver takes the
prebuilt Lindblad operators as `(ham, lindblads, ...)`, one (n_jump, D, D)
array; the randomized scheme runs each sampled jump at unit rate.

All three, and the circuit protocol in `circuit.simulate_protocol`, run one
trajectory loop, `_run_batched`: a batch of states advanced in lock step by
a per-step map and recorded at step 0, every stride-th step and the last
(`SolverConfig.grid_points` sets the stride) through a state-to-density
map (psi -> psi psi^dag / |psi|^2 for MCWF, else the identity), keeping
block-mean states per `SolverConfig.state_blocks`.
The exact solver is a batch of one state.  The grid record forms its trace
distances in two (R + 1)-matrix buffers allocated once per run, and lends
their first R matrices to the step between grid points.

Both RK4 solvers run `_evolve_with_halving`: one attempt per step size,
restarted with half the step when it fails, each step followed by the gate,
symmetrization and renormalization.  The map that advances the batch one
step is one of two:

- *Staged RK4* (`_rk4_advance`): the exact solver, and randomized runs
  with D > PROPAGATOR_MAX_DIM.  Four generator calls per step, keeping the
  k-sum and stage input in the record's buffers.
- *Propagators* (`_taylor4_propagators`, `_propagator_advance`): randomized
  runs with D <= PROPAGATOR_MAX_DIM (three qubits or fewer).  For a linear
  generator one RK4 step is the Taylor polynomial P = I + hM + (hM)^2/2 +
  (hM)^3/6 + (hM)^4/24 of its superoperator M, so each attempt builds P_a
  for every jump once, and a step is one matrix-vector product per
  trajectory.  M_a is `liouville`'s superoperator of the one jump, in its
  vectorization, which is the state batch's own C order.  It computes
  the same polynomial as the staged step, so the two agree to roundoff
  (about 1e-13 relative in the recorded distances), not bit for bit.

What a run holds at its peak is one {part: bytes} dict per solver, checked
as a sum by `numkernel.require_memory` before its first run-sized array:
once per attempt for the RK4 solvers, whose attempts build their arrays in
`make_advance`, and once for MCWF.  `_record_parts` is the record's share.

The staged step writes the Lindblad generator in three products,

    L(rho) = sum_a gamma_a L_a rho L_a^dag + X + X^dag,   X = A rho,
    A = -iH - (1/2) sum_a gamma_a L_a^dag L_a,

with A from `liouville.drift_operator`: one jump at a time, at gamma_a = 1,
into the randomized scheme's A stack, and summed for the exact one.  The
propagators, MCWF's effective Hamiltonian iA and `build_superop` share it.
This equals -i[H, rho] + sum_a gamma_a D^a(rho) exactly whenever rho is
Hermitian, since then rho A^dag = (A rho)^dag.  Every RK4
stage input is Hermitian in exact arithmetic: the state is symmetrized
after each step and the generator preserves Hermiticity.  Only roundoff
moves, and X + X^dag is Hermitian element for element, so the
Hermiticity gate sees the roundoff of the jump term and of the RK4 sums.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepUnderflow
from .liouville import _generator_factors, drift_operator
from .numkernel import require_memory, trace_distance

DT_FLOOR = 1e-6
# A final trajectory state with an eigenvalue below -POSITIVITY_TOL fails its
# attempt: stable runs end at >= +5e-6, RK4 steps past stability at <= -1.1e-2.
POSITIVITY_TOL = 1e-3
# Largest dimension D whose randomized runs step with precomputed RK4
# propagators.  Measured per step, three runs each (CH, 20 jumps, R = 10,
# one BLAS thread, 2-vCPU Xeon VM): at D = 8 the propagator step takes
# 48-76 us against 141-225 us for the staged RK4 (60-86 against 141-202 us
# at 100 jumps), after a 10-22 ms build per attempt; at D = 16, reading its
# 20 MiB stack, it takes 670-820 us against 330-440 us, after a 0.17 s build.
PROPAGATOR_MAX_DIM = 8
# mcwf_evolve splits each step into substeps of jump probability below this.
JUMP_PROB_CAP = 0.05
# Bytes of one random stream, a numpy Generator with its PCG64 state and
# seed sequence (1.7 KB traced with numpy 2.4), in the budgets of runs
# that hold one per trajectory.
STREAM_BYTES = 2048


@dataclass
class SolverConfig:
    """Integrator controls.

    dt_rk0 : initial Runge-Kutta step (units 1/J)
    max_steps : hard cap on the number of steps per run
    n_traj : trajectory count of the randomized scheme and of MCWF
    herm_tol : element-wise Hermiticity gate; violation halves the step
    seed : base seed; trajectory i uses the stream (seed, i)
    t_max : optional positive time horizon; the run covers min(max_steps, t_max/dt)
    stop_below : optional early stop once the averaged distance crosses it
    grid_points : distance series is downsampled to about this many points
    state_blocks : B in [0, n_traj]; B > 0 keeps the mean state of B contiguous
        trajectory blocks (trajectory i in block i B // n_traj) at each of the
        G grid points as `traj_states`; B = n_traj keeps every
        trajectory's state, and the exact solver keeps its one state
    """

    dt_rk0: float
    max_steps: int = 300_000
    n_traj: int = 10
    herm_tol: float = 1e-6
    seed: int = 0
    t_max: float | None = None
    stop_below: float | None = None
    grid_points: int = 2000
    state_blocks: int = 0

    def __post_init__(self):
        if not 0 < self.dt_rk0 < math.inf:
            raise ValueError("dt_rk0 must be positive and finite")
        if not 0 < self.herm_tol < math.inf:
            raise ValueError("herm_tol must be positive and finite")
        if not (self.n_traj >= 1 and self.max_steps >= 1):
            raise ValueError("n_traj and max_steps must be at least 1")
        if not 0 <= self.state_blocks <= self.n_traj:
            raise ValueError(f"state_blocks must lie between 0 and n_traj = {self.n_traj}")
        if self.t_max is not None and not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if self.stop_below is not None and not 0 < self.stop_below < math.inf:
            raise ValueError("stop_below must be positive and finite")


@dataclass
class EvolutionRecord:
    """Common output of all solvers.

    per_traj_distance has shape (n_traj, n_grid); avg_distance is the
    distance of the trajectory-averaged state, which by convexity of the
    trace norm never exceeds the per-trajectory maximum.
    """

    times: np.ndarray
    per_traj_distance: np.ndarray
    avg_distance: np.ndarray
    final_dt_rk: float
    halvings: int
    final_avg_state: np.ndarray
    traj_states: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def validate(self):
        if self.per_traj_distance.size:
            worst = np.max(self.per_traj_distance, axis=0)
            if np.any(self.avg_distance > worst + 1e-12):
                raise AssertionError("trace-norm convexity violated")
        return self


class _StepFailure(Exception):
    pass


def rk4_step(rho, generator, dt):
    """One classical fourth-order Runge-Kutta step of d rho/dt = generator(rho);
    the acceptance order check and the oracle tests step their references with it."""
    k1 = generator(rho)
    k2 = generator(rho + 0.5 * dt * k1)
    k3 = generator(rho + 0.5 * dt * k2)
    k4 = generator(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _n_steps(cfg, dt):
    n = cfg.max_steps
    if cfg.t_max is not None:
        n = min(n, max(1, math.ceil(cfg.t_max / dt)))
    return n


def jump_draws(rngs, n_jump, n_steps):
    """The (R, n_steps) int64 jump indices in [0, n_jump) of R = len(rngs)
    trajectories, row r drawn in one call from rngs[r].  The rows fill one
    preallocated array, so the peak is that array and one row; its caller
    counts it in the run's budget."""
    draws = np.empty((len(rngs), n_steps), dtype=np.int64)
    for rng, row in zip(rngs, draws):
        row[:] = rng.integers(0, n_jump, size=n_steps)
    return draws


def evolve_randomized(ham, lindblads, rho0, cfg, target):
    """Randomized dmRK4: one uniformly sampled jump operator per step.

    Each trajectory evolves under L^a = -i[H, .] + D^a (a zero `ham` leaves
    only the dissipator) by one RK4 step of the sampled jump per step.  At
    D <= PROPAGATOR_MAX_DIM that step is the precomputed propagator P_a of
    `_taylor4_propagators`, one matrix-vector product per trajectory; above
    it, the staged RK4 of `_rk4_advance` on the stack of
    A_a = -iH - (1/2) L_a^dag L_a, with each step's L_a gathered into reused
    arrays.  Each attempt draws its jumps with `jump_draws` on the streams
    (seed, i).  A step or run that fails the checks of `_evolve_with_halving`
    halves the step and restarts every trajectory from rho0; survivors are
    symmetrized and renormalized after every step.
    """
    l_ops = np.asarray(lindblads, dtype=complex)
    dim = l_ops.shape[-1]
    n_jump, n_traj = len(l_ops), cfg.n_traj

    def draw(n_steps):
        rngs = [np.random.default_rng([cfg.seed, i]) for i in range(n_traj)]
        return jump_draws(rngs, n_jump, n_steps)

    if dim <= PROPAGATOR_MAX_DIM:
        def make_advance(dt, n_steps):
            draws = draw(n_steps)
            return _propagator_advance(_taylor4_propagators(ham, l_ops, dt), draws)

    else:
        def make_advance(dt, n_steps):
            draws = draw(n_steps)
            l_sel, a_sel, tmp = np.empty((3, n_traj) + l_ops.shape[1:], dtype=complex)
            a_ops = np.empty_like(l_ops)
            for l_op, a_op in zip(l_ops, a_ops):
                a_op[...] = drift_operator(ham, l_op[None], np.ones(1))

            def generator(rho, out):
                # `out` holds conj(L[sel]) until L rho L^dag lands in it.
                l_dag = np.conjugate(l_sel, out=out).transpose(0, 2, 1)
                np.matmul(l_sel, np.matmul(rho, l_dag, out=tmp), out=out)
                return _add_hermitian_part(out, a_sel, rho, tmp)

            def generator_for(j):
                # mode "raise" would buffer `out`
                np.take(l_ops, draws[:, j], axis=0, out=l_sel, mode="clip")
                np.take(a_ops, draws[:, j], axis=0, out=a_sel, mode="clip")
                return generator

            return _rk4_advance(generator_for, dt, n_traj, dim)

    def parts(n_steps):
        return _randomized_parts(n_jump, dim, cfg, n_steps)

    return _evolve_with_halving(make_advance, parts, n_traj, rho0, cfg, target)


def _randomized_parts(n_jump, dim, cfg, n_steps):
    """What an attempt of `evolve_randomized` of n_steps steps holds at its
    peak, for J operators of dimension D and R = cfg.n_traj trajectories:
    the jump draws and a stream a trajectory, the caller's operators, the
    propagators with their two work arrays and the state batch (D <=
    PROPAGATOR_MAX_DIM) or the staged RK4's A stack and five (R, D, D)
    arrays, and the record's share; a {part: bytes} dict for
    `numkernel.require_memory`."""
    n_traj = cfg.n_traj
    if dim <= PROPAGATOR_MAX_DIM:
        step_parts = {
            f"the propagators of {n_jump} jumps and their two work arrays":
                16 * (n_jump + 2) * dim**4,
            f"the state batch of {n_traj} trajectories": 16 * n_traj * dim**2,
        }
    else:
        step_parts = {
            f"the A stack of {n_jump} jumps": 16 * n_jump * dim**2,
            f"the state batch, one k, L[sel], A[sel] and a generator temporary of {n_traj} "
            "trajectories": 80 * n_traj * dim**2,
        }
    return {
        f"the jump-draw array of {n_steps} steps and its streams":
            n_traj * (8 * n_steps + STREAM_BYTES),
        f"the {n_jump} Lindblad operators": 16 * n_jump * dim**2,
        **step_parts,
        **_record_parts(n_traj, dim, n_steps, cfg.grid_points, min(cfg.state_blocks, n_traj)),
    }


def evolve_exact(ham, lindblads, gammas, rho0, cfg, target):
    """Deterministic RK4 with the full Lindbladian (all jump channels at once);
    a zero `ham` leaves only the dissipator.  No CLI experiment runs it; it is
    the exact reference that the solver tests compare the randomized scheme with."""
    l_ops = np.asarray(lindblads, dtype=complex)
    gammas = np.asarray(gammas, dtype=float)
    n_jump, dim = len(l_ops), l_ops.shape[-1]

    def parts(n_steps):
        return {
            f"the {n_jump} Lindblad operators, their weighted stack, L^dag and the generator's "
            "two products": 80 * n_jump * dim**2,
            "A, the state, one k and the generator's X": 64 * dim**2,
            **_record_parts(1, dim, n_steps, cfg.grid_points, min(cfg.state_blocks, 1)),
        }

    def make_advance(dt, n_steps):
        l_weighted = gammas[:, None, None] * l_ops
        l_dag = l_ops.conj().transpose(0, 2, 1)
        a_op = drift_operator(ham, l_ops, gammas)

        def generator(rho, out):
            np.matmul(l_weighted, np.matmul(rho, l_dag)).sum(axis=0, keepdims=True, out=out)
            return _add_hermitian_part(out, a_op, rho)

        return _rk4_advance(lambda j: generator, dt, 1, dim)

    return _evolve_with_halving(make_advance, parts, 1, rho0, cfg, target)


def _add_hermitian_part(out, a, rho, x=None):
    """out + X + X^dag with X = a rho, formed in `x` when given.  For
    a = -iH - (1/2) sum gamma L^dag L this adds -i[H, rho] - (1/2) sum gamma
    {L^dag L, rho}, exactly so for Hermitian rho."""
    x = np.matmul(a, rho, out=x)
    out += x
    out += np.conjugate(x, out=x).transpose(0, 2, 1)
    return out


def _rk4_advance(generator_for, dt, n_traj, dim):
    """The staged RK4 step map of one attempt at step dt: advance(rho, j,
    scratch) adds to the (n_traj, D, D) batch rho its step j.

    generator_for(j) returns the generator of step j on the batch (for the
    randomized scheme, trajectory r under its jump drawn for step j), called
    as generator(rho, out); it is called once per step and its result serves
    all four stages.  The step keeps its k-sum and stage input in
    `scratch`, the record's buffers lent between grid points, and its k in
    one array that outlives the steps: fresh arrays cost heap trims and
    page faults.
    """
    k_out = np.empty((n_traj, dim, dim), dtype=complex)

    def advance(rho, j, scratch):
        # `rk4_step`'s operations in order, in place; `acc` sums k1 + 2 k2 + 2 k3 + k4.
        acc, stage = scratch
        generator = generator_for(j)
        generator(rho, acc)
        np.add(rho, np.multiply(acc, 0.5 * dt, out=stage), out=stage)
        for scale in (0.5 * dt, dt):
            k = generator(stage, k_out)
            np.add(rho, np.multiply(k, scale, out=stage), out=stage)
            k *= 2.0
            acc += k
        acc += generator(stage, k_out)
        acc *= dt / 6.0
        rho += acc

    return advance


def _taylor4_propagators(ham, l_ops, dt):
    """The (J, D^2, D^2) stack of P_a = I + hM (I + hM/2 (I + hM/3 (I + hM/4))),
    h = dt, for each jump's superoperator M = M_a of -i[H, .] + D^a: the
    Taylor polynomial that one RK4 step of y' = M y applies, so P_a vec(rho)
    is that step exactly in exact arithmetic.  M_a is the `liouville` row
    kernel's matrix at gamma = 1 (its module docstring has the
    vectorization), built one jump at a time and freed before the next;
    the Horner products alternate between one work array and the stack's
    slot."""
    n = l_ops.shape[-1] ** 2
    props = np.empty((len(l_ops), n, n), dtype=complex)
    work = np.empty((n, n), dtype=complex)
    for l_op, prop in zip(l_ops, props):
        hm = _generator_factors(ham, l_op[None], np.ones(1)).matrix()
        hm *= dt
        np.multiply(hm, 0.25, out=work)
        work.reshape(-1)[:: n + 1] += 1.0
        for order, src, dst in ((3, work, prop), (2, prop, work), (1, work, prop)):
            np.matmul(hm, src, out=dst)
            if order > 1:
                dst *= 1.0 / order
            dst.reshape(-1)[:: n + 1] += 1.0
        del hm
    return props


def _propagator_advance(props, draws):
    """The propagator step map of one attempt: advance(rho, j, scratch) sets
    each trajectory r of the (R, D, D) batch rho to P[draws[r, j]] vec(rho_r),
    one matrix-vector product per trajectory (a gather of P[sel] would copy
    R D^4 entries per step), formed in scratch[0]."""

    ops = list(props)

    def advance(rho, j, scratch):
        vecs, outs = rho.reshape(len(rho), -1), scratch[0].reshape(len(rho), -1)
        for a, vec, out in zip(draws[:, j].tolist(), vecs, outs):
            np.dot(ops[a], vec, out=out)
        np.copyto(rho, scratch[0])

    return advance


def _evolve_with_halving(make_advance, parts, n_traj, rho0, cfg, target):
    """A batch of n_traj trajectories from rho0 through `_run_batched`,
    restarted from rho0 with half the step whenever the attempt fails.

    make_advance(dt, n_steps) returns the step map of an attempt of n_steps
    steps of dt, advance(rho, j, scratch), which overwrites the batch rho
    with its step j and may use the record's buffers `scratch`; an attempt
    builds all its arrays there, and a randomized one draws its jumps
    there.  parts(n_steps) is what the attempt holds, the record's share
    (`_record_parts`) included; it is checked as one sum before
    make_advance, and a failed attempt's arrays go before the next one's
    check.  The gate (Hermitian to herm_tol, positive trace), the
    symmetrization and the renormalization follow it here, in those
    buffers.  RK4 beyond its stability region gives Hermitian states that
    are not positive some steps before the gate fires, so an attempt also
    fails when a recorded trace distance exceeds 1 or a final trajectory
    state has an eigenvalue below -POSITIVITY_TOL.
    """
    dt = cfg.dt_rk0
    halvings = 0
    final = None
    blocks = min(cfg.state_blocks, n_traj)
    while True:
        n_steps = _n_steps(cfg, dt)
        require_memory(parts(n_steps))
        advance = make_advance(dt, n_steps)

        def step(rho, j, scratch):
            nonlocal final
            advance(rho, j, scratch)
            rho_dag = np.conjugate(rho, out=scratch[0]).transpose(0, 2, 1)
            dev = np.abs(np.subtract(rho, rho_dag, out=scratch[1])).max()
            tr = np.einsum("tii->t", rho).real  # symmetrizing keeps the real diagonal
            if not (dev <= cfg.herm_tol and tr.min() > 0):  # NaN fails both
                raise _StepFailure
            rho += rho_dag
            rho *= 0.5
            rho /= tr[:, None, None]
            final = rho
            return rho

        try:
            record = _run_batched(
                step, np.broadcast_to(rho0, (n_traj,) + np.shape(rho0)), n_steps,
                dt, cfg.grid_points, target, cfg.stop_below, blocks,
            )
            lowest = np.linalg.eigvalsh(final).min()
            if not (record.per_traj_distance.max() <= 1.0 and lowest >= -POSITIVITY_TOL):
                raise _StepFailure
        except _StepFailure:
            halvings += 1
            dt *= 0.5
            if dt < DT_FLOOR:
                raise StepUnderflow(f"step fell below {DT_FLOOR}/J after {halvings} halvings")
            advance = record = final = None
            continue
        record.halvings = halvings
        return record


def _grid(n_steps, grid_points):
    """The stride of a run's grid and its point count G (`_run_batched`)."""
    stride = 1 if grid_points <= 0 else max(1, math.ceil(n_steps / grid_points))
    return stride, n_steps // stride + 1 + (n_steps % stride > 0)


def _record_parts(n_traj, dim, n_steps, grid_points, state_blocks):
    """What `_run_batched` holds itself for R trajectories of dimension D:
    its two (R + 1)-matrix buffers, and at each of the G grid points a time,
    R + 1 distances and B block states; a {part: bytes} dict."""
    n_grid = _grid(n_steps, grid_points)[1]
    return {
        f"the record's two buffers of {n_traj + 1} matrices": 32 * (n_traj + 1) * dim**2,
        f"the distances and block states of {n_grid} grid points":
            8 * n_grid * (n_traj + 2 + 2 * state_blocks * dim**2),
    }


def _run_batched(
    step, states, n_steps, dt, grid_points, target, stop_below=None, state_blocks=0,
    to_density=np.copyto,
):
    """The trajectory loop of every solver.

    All R = len(states) trajectories advance in lock step: step j maps the
    batch to step(states, j, scratch), j = 0 .. n_steps - 1.  The grid is
    step 0, every stride-th step and step n_steps, with stride 1 for
    grid_points <= 0 and else ceil(n_steps / grid_points), so about
    grid_points points.  At each grid point the record writes each
    trajectory's density matrix with to_density(out, states), by default a
    copy, and takes the trace distance to `target` of every trajectory and
    of the symmetrized trajectory average, stacked into one batched call.
    The run stops early at the
    first grid point whose averaged distance is below `stop_below`.  With
    state_blocks = B > 0 the record also keeps the mean density of each of
    B contiguous blocks of trajectories (trajectory i in block i B // R) as
    `traj_states`.  The series are allocated once, a row per grid point,
    and a run that stops early returns their head; its callers count its
    arrays in their budgets (`_record_parts`).

    The record forms the (R + 1)-matrix difference and its conjugate in two
    buffers allocated once per run.  Between grid points their first R
    matrices are lent to the step as `scratch`, one (2, R, D, D) array: the
    step may overwrite them freely, but what it leaves there does not
    survive the next record, and the state it returns must not live in them.
    """
    stride, n_grid = _grid(n_steps, grid_points)
    states = np.array(states, dtype=complex, order="C")
    n_traj = len(states)
    work = np.empty((2, n_traj + 1) + np.shape(target), dtype=complex)
    scratch = work[:, :n_traj]
    block = np.arange(n_traj) * state_blocks // n_traj
    starts = np.flatnonzero(np.diff(block, prepend=-1))  # each block's first trajectory
    sizes = np.bincount(block)[:, None, None]

    times, avg_dist = np.empty((2, n_grid))
    per_dist = np.empty((n_grid, n_traj))
    kept = np.empty((n_grid, state_blocks) + np.shape(target), dtype=complex)
    count = 0

    def record_point(j, states):
        nonlocal count
        stack = work[0]
        to_density(stack[:-1], states)
        if state_blocks:
            np.add.reduceat(stack[:-1], starts, axis=0, out=kept[count])
            kept[count] /= sizes
        avg = stack[:-1].mean(axis=0)
        avg = 0.5 * (avg + avg.conj().transpose())
        stack[-1] = avg
        dist = trace_distance(stack, target, work)
        times[count], avg_dist[count] = j * dt, dist[-1]
        per_dist[count] = dist[:-1]
        count += 1
        return avg

    avg = record_point(0, states)
    stopped = False
    for j in range(1, n_steps + 1):
        states = step(states, j - 1, scratch)
        if j % stride == 0 or j == n_steps:
            avg = record_point(j, states)
            if stop_below is not None and avg_dist[count - 1] < stop_below:
                stopped = True
                break

    return EvolutionRecord(
        times=times[:count],
        per_traj_distance=per_dist[:count].T,
        avg_distance=avg_dist[:count],
        final_dt_rk=dt,
        halvings=0,
        final_avg_state=avg,
        traj_states=kept[:count].transpose(1, 0, 2, 3) if state_blocks else None,
        meta={"n_steps": n_steps, "stopped_early": stopped},
    ).validate()


def mcwf_evolve(ham, lindblads, gammas, psi0, cfg, target):
    """Monte-Carlo wave-function unraveling: the waiting-time quantum-jump
    method of Dalibard, Castin and Molmer (PRL 68, 580, 1992).

    Pure trajectories evolve under H - (i/2) sum_a gamma_a L_a^dag L_a until
    their squared norm falls to a uniform threshold, then jump to L_a psi
    with probability proportional to gamma_a |L_a psi|^2 and draw a new
    threshold; each step is split into k substeps that keep the jump
    probability per substep below JUMP_PROB_CAP.  The trajectories advance
    in lock step through `_run_batched` as an (R, D) batch of unnormalized
    vectors: one product with the flattened operator stack gives every
    rate, each group sharing a k gets one propagator, and only the
    trajectories that jump are handled one by one.  Trajectory i draws from
    the stream (seed, i): its basis state when psi0 is None, its first
    threshold, then a channel and a new threshold per jump.  The density
    estimate is the trajectory mean of psi psi^dag / |psi|^2; state_blocks
    and stop_below act as for the other solvers, and what the run holds is
    checked before any of it is allocated.

    psi0 is a length-D vector of finite nonzero norm (normalized here), or
    None to unravel the maximally mixed state by drawing a computational
    basis state per trajectory.  No CLI experiment runs it; acceptance
    criterion 15 checks the randomized scheme against it.
    """
    import scipy.linalg  # imported here so that importing gibbsim loads numpy only

    l_ops = np.asarray(lindblads, dtype=complex)
    gammas = np.asarray(gammas, dtype=float)
    n_jump, dim = len(l_ops), l_ops.shape[-1]
    dt = cfg.dt_rk0
    n_steps = _n_steps(cfg, dt)
    require_memory({
        f"the {n_jump} Lindblad operators and drift_operator's two stacks (then the flattened "
        "stack)": 48 * n_jump * dim**2,
        f"one rate call's amplitudes and the states and streams of {cfg.n_traj} trajectories":
            cfg.n_traj * (16 * (n_jump + 1) * dim + STREAM_BYTES),
        "H_eff, a propagator and the identity the basis states come from": 48 * dim**2,
        **_record_parts(cfg.n_traj, dim, n_steps, cfg.grid_points, cfg.state_blocks),
    })
    h_eff = 1j * drift_operator(ham, l_ops, gammas)  # H - (i/2) sum_a gamma_a L_a^dag L_a
    rngs = [np.random.default_rng([cfg.seed, i]) for i in range(cfg.n_traj)]
    if psi0 is None:
        psi_start = np.eye(dim, dtype=complex)[[rng.integers(dim) for rng in rngs]]
    else:
        psi0 = np.asarray(psi0, dtype=complex)
        norm = np.linalg.norm(psi0)
        if psi0.shape != (dim,) or not 0 < norm < math.inf:
            raise ValueError(f"psi0 must be a length-{dim} vector of finite nonzero norm")
        psi_start = psi0 / norm
    thresholds = np.array([rng.random() for rng in rngs])
    # psi @ l_flat stacks the amplitudes L_a psi of every channel a.
    l_flat = l_ops.transpose(2, 0, 1).reshape(dim, -1)
    propagators = {}

    def rates(psi):
        # Rates of the normalized states; psi itself may carry norm < 1
        # between jumps (the norm is the survival probability).
        amps = (psi @ l_flat).reshape(len(psi), -1, dim)
        parts = amps.view(float)  # |L_a psi|^2 sums the squares of these
        r = gammas * np.einsum("tai,tai->ta", parts, parts)
        return r / np.maximum(np.linalg.norm(psi, axis=1) ** 2, 1e-300)[:, None], amps

    def step(psi, _j, _scratch):
        k_all = np.maximum(1, np.ceil(dt * rates(psi)[0].sum(axis=1) / JUMP_PROB_CAP))
        for k in np.unique(k_all).astype(int):
            if k not in propagators:
                propagators[k] = scipy.linalg.expm(-1j * (dt / k) * h_eff).T
            group = np.flatnonzero(k_all == k)
            sub = psi[group]
            for _ in range(k):
                candidate = sub @ propagators[k]
                below = np.linalg.norm(candidate, axis=1) ** 2 <= thresholds[group]
                for m in np.flatnonzero(below):
                    # The channel is drawn from the rates before the substep.
                    r, amps = rates(sub[m : m + 1])
                    total, rng = float(r.sum()), rngs[group[m]]
                    if total > 0:
                        choice = np.searchsorted(np.cumsum(r[0] / total), rng.random())
                        new = amps[0, min(choice, len(l_ops) - 1)]
                        candidate[m] = new / np.linalg.norm(new)
                        thresholds[group[m]] = rng.random()
                sub = candidate
            psi[group] = sub
        return psi

    def to_density(out, psi):
        unit = psi / np.linalg.norm(psi, axis=1, keepdims=True)
        np.multiply(unit[:, :, None], unit.conj()[:, None, :], out=out)

    return _run_batched(
        step, np.broadcast_to(psi_start, (cfg.n_traj, dim)), n_steps, dt,
        cfg.grid_points, target, cfg.stop_below, cfg.state_blocks, to_density,
    )


def mixing_time_estimate(record, eps=1e-2):
    """First grid time with averaged distance below eps, or None when the
    record never gets there."""
    below = np.nonzero(record.avg_distance < eps)[0]
    return float(record.times[below[0]]) if below.size else None
