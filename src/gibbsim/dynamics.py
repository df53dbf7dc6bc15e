"""Time evolution of the Lindblad equation.

Three solvers share one record format: the randomized density-matrix RK4
scheme (one jump operator sampled per step, Hermiticity-gated adaptive step),
the exact full-Lindbladian RK4, and a Monte-Carlo wave-function unraveling
used as a cross-check.  Times are in units of 1/J.  Each solver takes the
prebuilt Lindblad operators as `(ham, lindblads, ...)`, one (n_jump, D, D)
array; the randomized scheme runs each sampled jump at unit rate.

Both RK4 solvers, and the circuit protocol in `circuit.simulate_protocol`,
run one trajectory loop, `_run_batched`: a batch of states advanced by a
per-step map chosen by pre-drawn indices, recorded on the grid of
`_grid_indices` (which `mcwf_evolve` also uses).  The exact solver is a
batch of one state with a single index.  The grid record forms its
trace distances in two (R + 1)-matrix buffers allocated once per run, and
lends their first R matrices to the step between grid points; the RK4
step keeps its k-sum and stage input there.  A randomized run thus holds
16 D^2 (J + 5R + 2(R + 1)) bytes beside the caller's J operators: the A
stack, the state, one k, L[sel], A[sel], one generator temporary and the
two record buffers.

Both RK4 solvers write the Lindblad generator in three products,

    L(rho) = sum_a gamma_a L_a rho L_a^dag + X + X^dag,   X = A rho,
    A = -iH - (1/2) sum_a gamma_a L_a^dag L_a,

with A precomputed (per jump, at gamma_a = 1, for the randomized scheme;
summed for the exact one by `liouville.drift_operator`, which
`build_superop` shares).
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
from .liouville import drift_operator
from .numkernel import trace_distance

DT_FLOOR = 1e-6
# mcwf_evolve splits each step into substeps of jump probability below this.
JUMP_PROB_CAP = 0.05


class _NotConverged:
    """Sentinel for mixing-time estimates that never cross the threshold."""

    def __repr__(self):
        return "NOT_CONVERGED"

    def __bool__(self):
        return False


NOT_CONVERGED = _NotConverged()


@dataclass
class SolverConfig:
    """Integrator controls.

    dt_rk0 : initial Runge-Kutta step (units 1/J)
    max_steps : hard cap on the number of steps per run
    n_traj : trajectory count for the randomized scheme
    herm_tol : element-wise Hermiticity gate; violation halves the step
    seed : base seed; trajectory i uses the stream (seed, i)
    t_max : optional positive time horizon; the run covers min(max_steps, t_max/dt)
    stop_below : optional early stop once the averaged distance crosses it
    grid_points : distance series is downsampled to about this many points
    """

    dt_rk0: float
    max_steps: int = 300_000
    n_traj: int = 10
    herm_tol: float = 1e-6
    seed: int = 0
    t_max: float | None = None
    stop_below: float | None = None
    grid_points: int = 2000
    store_traj_states: bool = False

    def __post_init__(self):
        if not 0 < self.dt_rk0 < math.inf:
            raise ValueError("dt_rk0 must be positive and finite")
        if not self.herm_tol > 0:
            raise ValueError("herm_tol must be positive")
        if not (self.n_traj >= 1 and self.max_steps >= 1):
            raise ValueError("n_traj and max_steps must be at least 1")
        if self.t_max is not None and not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if self.stop_below is not None and not self.stop_below > 0:
            raise ValueError("stop_below must be positive")


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

    def to_csv(self, path):
        header = ["t"] + [f"traj{i}" for i in range(self.per_traj_distance.shape[0])]
        header.append("avg")
        rows = np.column_stack([self.times, self.per_traj_distance.T, self.avg_distance])
        with open(path, "w") as fh:
            fh.write("# times in 1/J, trace distances dimensionless\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


class _HermiticityViolation(Exception):
    pass


def rk4_step(rho, generator, dt):
    """One classical fourth-order Runge-Kutta step of d rho/dt = generator(rho);
    the acceptance order check and the oracle tests step their references with it."""
    k1 = generator(rho)
    k2 = generator(rho + 0.5 * dt * k1)
    k3 = generator(rho + 0.5 * dt * k2)
    k4 = generator(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _grid_indices(n_steps, grid_points):
    """Recorded step indices: every step for grid_points <= 0, else a stride
    giving about grid_points points; always 0 and n_steps."""
    stride = 1 if grid_points <= 0 else max(1, math.ceil(n_steps / grid_points))
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return idx


def _n_steps(cfg, dt):
    n = cfg.max_steps
    if cfg.t_max is not None:
        n = min(n, max(1, math.ceil(cfg.t_max / dt)))
    return n


def evolve_randomized(ham, lindblads, rho0, cfg, target):
    """Randomized dmRK4: one uniformly sampled jump operator per step.

    `lindblads` is the operator stack; the run also holds the stack of
    A_a = -iH - (1/2) L_a^dag L_a, and gathers each step's L_a into reused
    arrays.  Each trajectory evolves under L^a = -i[H, .] + D^a (a zero `ham`
    leaves only the dissipator).  After every step the state is checked
    element-wise for Hermiticity; a violation halves the step and restarts
    every trajectory from rho0; survivors are symmetrized and renormalized.
    """
    l_ops = np.asarray(lindblads, dtype=complex)
    l_sel, a_sel, tmp = np.empty((3, cfg.n_traj) + l_ops.shape[1:], dtype=complex)
    # L^dag L one batch of operators at a time, conjugated in `tmp`: a
    # conjugated copy of the whole stack left a heap hole that the run's
    # later arrays did not fit.
    a_ops = np.empty_like(l_ops)
    for lo in range(0, len(l_ops), cfg.n_traj):
        chunk = l_ops[lo : lo + cfg.n_traj]
        l_dag = np.conjugate(chunk, out=tmp[: len(chunk)]).transpose(0, 2, 1)
        np.matmul(l_dag, chunk, out=a_ops[lo : lo + cfg.n_traj])
    a_ops *= -0.5
    a_ops -= 1j * np.asarray(ham, dtype=complex)

    def generator_for(sel):
        np.take(l_ops, sel, axis=0, out=l_sel, mode="clip")  # "raise" would buffer out
        np.take(a_ops, sel, axis=0, out=a_sel, mode="clip")

        def generator(rho, out):
            # `out` holds conj(L[sel]) until L rho L^dag lands in it.
            l_dag = np.conjugate(l_sel, out=out).transpose(0, 2, 1)
            np.matmul(l_sel, np.matmul(rho, l_dag, out=tmp), out=out)
            return _add_hermitian_part(out, a_sel, rho, tmp)

        return generator

    def draw(n_steps):
        rngs = [np.random.default_rng([cfg.seed, i]) for i in range(cfg.n_traj)]
        return np.stack([rng.integers(0, len(l_ops), size=n_steps) for rng in rngs])

    return _rk4_with_halving(generator_for, draw, rho0, cfg, target)


def evolve_exact(ham, lindblads, gammas, rho0, cfg, target):
    """Deterministic RK4 with the full Lindbladian (all jump channels at once);
    `ham` = None leaves only the dissipator.  No CLI experiment runs it; it is
    the exact reference that the solver tests compare the randomized scheme with."""
    l_ops = np.asarray(lindblads, dtype=complex)
    gammas = np.asarray(gammas, dtype=float)
    l_weighted = gammas[:, None, None] * l_ops
    l_dag = l_ops.conj().transpose(0, 2, 1)
    a_op = drift_operator(ham, l_ops, gammas)

    def generator(rho, out):
        np.matmul(l_weighted, np.matmul(rho, l_dag)).sum(axis=0, keepdims=True, out=out)
        return _add_hermitian_part(out, a_op, rho)

    def draw(n_steps):
        return np.zeros((1, n_steps), dtype=int)

    return _rk4_with_halving(lambda sel: generator, draw, rho0, cfg, target)


def _add_hermitian_part(out, a, rho, x=None):
    """out + X + X^dag with X = a rho, formed in `x` when given.  For
    a = -iH - (1/2) sum gamma L^dag L this adds -i[H, rho] - (1/2) sum gamma
    {L^dag L, rho}, exactly so for Hermitian rho."""
    x = np.matmul(a, rho, out=x)
    out += x
    out += np.conjugate(x, out=x).transpose(0, 2, 1)
    return out


def _rk4_with_halving(generator_for, draw, rho0, cfg, target):
    """RK4 on a trajectory batch, restarted from rho0 with half the step
    whenever a step fails the Hermiticity gate.

    generator_for(sel) returns the generator on the (R, D, D) batch with
    trajectory r under jump sel[r], called as generator(rho, out); it is
    called once per step and its result serves all four stages.
    draw(n_steps) returns the (R, n_steps) jump indices for one attempt.
    """
    dt = cfg.dt_rk0
    halvings = 0
    while True:
        draws = draw(_n_steps(cfg, dt))
        k_out = np.empty((len(draws),) + np.shape(rho0), dtype=complex)

        def step(rho, sel, scratch):
            # `rk4_step`'s operations in order, in place; `acc` sums k1 + 2 k2 + 2 k3 + k4.
            # `acc` and `stage` are the record's buffers, lent between grid points.
            # The arrays outlive the step: fresh ones cost heap trims and page faults.
            acc, stage = scratch
            generator = generator_for(sel)
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
            rho_dag = np.conjugate(rho, out=k_out).transpose(0, 2, 1)
            dev = np.abs(np.subtract(rho, rho_dag, out=stage)).max()
            if not np.isfinite(dev) or dev > cfg.herm_tol:
                raise _HermiticityViolation
            rho += rho_dag
            rho *= 0.5
            tr = np.einsum("tii->t", rho).real
            rho /= tr[:, None, None]
            return rho

        try:
            record = _run_batched(
                step, rho0, draws, dt, cfg.grid_points, target,
                cfg.stop_below, cfg.store_traj_states,
            )
        except _HermiticityViolation:
            halvings += 1
            dt *= 0.5
            if dt < DT_FLOOR:
                raise StepUnderflow(f"step fell below {DT_FLOOR}/J after {halvings} halvings")
            continue
        record.halvings = halvings
        return record


def _run_batched(
    step, rho0, draws, dt, grid_points, target, stop_below=None, store_traj_states=False,
):
    """The trajectory loop shared by every batched solver.

    All R = draws.shape[0] trajectories start from rho0 and advance in lock
    step: step j maps the (R, D, D) batch to step(rho, draws[:, j-1],
    scratch).  On the grid of `_grid_indices` the record takes the trace
    distance to `target` of every trajectory and of the symmetrized
    trajectory average, stacked into one batched call.  The run stops early
    at the first grid point whose averaged distance is below `stop_below`.

    The record forms the (R + 1)-matrix difference and its conjugate in two
    buffers allocated once per run.  Between grid points their first R
    matrices are lent to the step as `scratch`, one (2, R, D, D) array: the
    step may overwrite them freely, but what it leaves there does not
    survive the next record, and the state it returns must not live in them.
    """
    n_traj, n_steps = draws.shape
    grid = _grid_indices(n_steps, grid_points)
    rho0 = np.asarray(rho0, dtype=complex)
    rho = np.broadcast_to(rho0, (n_traj,) + rho0.shape).copy()
    work = np.empty((2, n_traj + 1) + rho0.shape, dtype=complex)
    scratch = work[:, :n_traj]

    times, avg_dist, per_dist, traj_states = [], [], [], []

    def record_point(j, rho):
        avg = rho.mean(axis=0)
        avg = 0.5 * (avg + avg.conj().transpose())
        stack = work[0]
        stack[:-1] = rho
        stack[-1] = avg
        dist = trace_distance(stack, target, work)
        times.append(j * dt)
        avg_dist.append(float(dist[-1]))
        per_dist.append(dist[:-1])
        if store_traj_states:
            traj_states.append(rho.copy())
        return avg

    avg = record_point(0, rho)
    grid_pos = 1
    stopped = False
    for j in range(1, n_steps + 1):
        rho = step(rho, draws[:, j - 1], scratch)
        if grid_pos < len(grid) and j == grid[grid_pos]:
            avg = record_point(j, rho)
            grid_pos += 1
            if stop_below is not None and avg_dist[-1] < stop_below:
                stopped = True
                break

    return EvolutionRecord(
        times=np.array(times),
        per_traj_distance=np.array(per_dist).T,
        avg_distance=np.array(avg_dist),
        final_dt_rk=dt,
        halvings=0,
        final_avg_state=avg,
        traj_states=np.array(traj_states).transpose(1, 0, 2, 3) if store_traj_states else None,
        meta={"n_steps": n_steps, "stopped_early": stopped},
    ).validate()


def mcwf_evolve(ham, lindblads, gammas, psi0, cfg, target, n_batches=0):
    """Monte-Carlo wave-function unraveling (quantum-jump method).

    Pure trajectories evolve under the effective generator
    H - (i/2) sum_a gamma_a L_a^dag L_a between norm-threshold jumps; the
    substep count per grid step keeps the jump probability below
    JUMP_PROB_CAP.  The density estimate is the
    trajectory average of |psi><psi|.

    psi0 is a normalized pure state; passing None unravels the maximally
    mixed initial state by drawing a computational basis state per
    trajectory.  With n_batches > 0, block-averaged states are kept in
    meta['batch_states'] for jackknife error estimation.  No CLI experiment
    runs it; acceptance criterion 15 checks the randomized scheme against it.
    """
    import scipy.linalg  # imported here so that importing gibbsim loads numpy only

    l_ops = np.asarray(lindblads, dtype=complex)
    gammas = np.asarray(gammas, dtype=float)
    decay = np.einsum("a,aij,ajk->ik", gammas, l_ops.conj().transpose(0, 2, 1), l_ops)
    h_eff = np.asarray(ham, dtype=complex) - 0.5j * decay

    dt = cfg.dt_rk0
    n_steps = _n_steps(cfg, dt)
    grid = _grid_indices(n_steps, cfg.grid_points)
    dim = h_eff.shape[0] if psi0 is None else psi0.shape[0]
    n_traj = cfg.n_traj

    propagators = {}

    def propagator(k):
        if k not in propagators:
            propagators[k] = scipy.linalg.expm(-1j * (dt / k) * h_eff)
        return propagators[k]

    def rates(psi):
        # Rates of the normalized state; psi itself may carry norm < 1
        # between jumps (the norm is the survival probability).
        amps = l_ops @ psi
        r = gammas * np.einsum("ai,ai->a", amps.conj(), amps).real
        return r / max(np.linalg.norm(psi) ** 2, 1e-300), amps

    sum_state = np.zeros((len(grid), dim, dim), dtype=complex)
    per_dist = np.zeros((n_traj, len(grid)))
    traj_states = (
        np.zeros((n_traj, len(grid), dim, dim), dtype=complex)
        if cfg.store_traj_states
        else None
    )
    batch_sums = (
        np.zeros((n_batches, len(grid), dim, dim), dtype=complex) if n_batches else None
    )

    pures = np.zeros((len(grid), dim, dim), dtype=complex)
    for i in range(n_traj):
        rng = np.random.default_rng([cfg.seed, i])
        if psi0 is None:
            psi = np.zeros(dim, dtype=complex)
            psi[rng.integers(dim)] = 1.0
        else:
            psi = np.asarray(psi0, dtype=complex).copy()
            psi /= np.linalg.norm(psi)
        threshold = rng.random()
        grid_pos = 0
        for j in range(n_steps + 1):
            if j == grid[grid_pos]:
                unit = psi / np.linalg.norm(psi)
                pures[grid_pos] = np.outer(unit, unit.conj())
                grid_pos += 1
                if grid_pos == len(grid):
                    break
            r, _ = rates(psi)
            total = float(r.sum())
            k = max(1, math.ceil(dt * total / JUMP_PROB_CAP))
            u = propagator(k)
            for _ in range(k):
                candidate = u @ psi
                if np.linalg.norm(candidate) ** 2 <= threshold:
                    r, amps = rates(psi)
                    total = float(r.sum())
                    if total <= 0:
                        psi = candidate
                        continue
                    choice = np.searchsorted(np.cumsum(r / total), rng.random())
                    choice = min(choice, len(r) - 1)
                    psi = amps[choice] / np.linalg.norm(amps[choice])
                    threshold = rng.random()
                else:
                    psi = candidate
        sum_state += pures
        per_dist[i] = trace_distance(pures, target)
        if traj_states is not None:
            traj_states[i] = pures
        if batch_sums is not None:
            batch_sums[i * n_batches // n_traj] += pures

    times = np.array(grid, dtype=float) * dt
    mean_states = sum_state / n_traj
    avg_dist = trace_distance(mean_states, target)
    meta = {"n_steps": n_steps}
    if batch_sums is not None:
        sizes = np.array([(i * n_batches // n_traj == b) for b in range(n_batches)
                          for i in range(n_traj)]).reshape(n_batches, n_traj).sum(axis=1)
        meta["batch_states"] = batch_sums / sizes[:, None, None, None]
        meta["batch_sizes"] = sizes
    return EvolutionRecord(
        times=times,
        per_traj_distance=per_dist,
        avg_distance=avg_dist,
        final_dt_rk=dt,
        halvings=0,
        final_avg_state=mean_states[-1],
        traj_states=traj_states,
        meta=meta,
    ).validate()


def mixing_time_estimate(record, eps=1e-2):
    """First grid time with averaged distance below eps, or NOT_CONVERGED."""
    below = np.nonzero(record.avg_distance < eps)[0]
    if below.size == 0:
        return NOT_CONVERGED
    return float(record.times[below[0]])
