"""Dissipative Gibbs-state preparation: Lindblad engineering at desk scale.

Importing gibbsim loads numpy only; scipy is loaded on first use by
`mcwf_evolve`, `fit_effective_gates` and `fit_error_model` (the `error-fit`
experiment).
"""

__version__ = "0.1.0"

from .numkernel import (
    Spectrum,
    eig_hermitian,
    expm_phase,
    kron,
    partial_trace_ancilla,
    trace_distance,
)
from .model import (
    BohrSpectrum,
    IsingParams,
    NAMED_POINTS,
    bohr_frequencies,
    build_hamiltonian,
    gibbs_state,
    ising_split,
    maximally_mixed,
    named_point,
)
from .jumps import (
    FilterSpec,
    PauliString,
    filter_freq,
    filter_time,
    lindblad_op_discretized,
    lindblad_op_exact,
    sample_jump_set,
)
from .liouville import (
    GapResult,
    MarkovRestriction,
    Superoperator,
    build_superop,
    ckg_coherent_term,
    conductance_cheeger,
    markov_restriction,
    steady_state_and_gap,
    trace_norm,
)
from .dynamics import (
    EvolutionRecord,
    NOT_CONVERGED,
    SolverConfig,
    evolve_exact,
    evolve_randomized,
    mcwf_evolve,
    mixing_time_estimate,
    rk4_step,
)
from .circuit import (
    CircuitConfig,
    NoiseSpec,
    apply_noise,
    dilation_discrete,
    gate_count,
    plateau_level,
    simulate_protocol,
    step_V,
)
from .noisefit import (
    ConvergenceFit,
    ErrorFitParams,
    bound_asymptotic,
    bound_generic,
    bound_unitary_comparison,
    fit_convergence,
    fit_effective_gates,
    fit_error_model,
    noisy_rate,
    power_law_fit,
)
from .chaos import (
    FractalStats,
    SpacingStats,
    eth_statistics,
    fractal_dimension,
    spacing_ratios,
)
