"""Exception types shared across the package."""


class GibbsimError(Exception):
    """Base class for all package errors."""


class NotHermitian(GibbsimError):
    """Input operator fails the Hermiticity tolerance."""


class DimensionMismatch(GibbsimError):
    """Operands have incompatible Hilbert-space dimensions."""


class EigendecompositionFailure(GibbsimError):
    """Eigensolver result does not reconstruct the input to tolerance."""


class InvalidLocality(GibbsimError):
    """Requested Pauli-string locality is outside [1, n]."""


class NonUniqueSteadyState(GibbsimError):
    """More than one generator eigenvalue sits in the zero cluster."""

    def __init__(self, zero_count):
        super().__init__(f"zero cluster contains {zero_count} eigenvalues")
        self.zero_count = zero_count


class DegenerateChain(GibbsimError):
    """Markov restriction has no usable transition rates."""


class StepUnderflow(GibbsimError):
    """Adaptive halving pushed the integrator step below the floor."""


class InsufficientDecay(GibbsimError):
    """Distance series never decays enough to fit a convergence rate."""


class DegenerateSpectrum(GibbsimError):
    """Level spacings too small for spacing-ratio statistics."""


class ConfigError(GibbsimError):
    """Experiment configuration failed to parse or validate."""


class ResourceCeiling(GibbsimError):
    """Requested size exceeds a guarded resource limit without opt-in."""
