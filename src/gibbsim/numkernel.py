"""Dense complex linear-algebra kernel shared by every other module.

Operators are plain complex numpy arrays of shape (D, D) with D a power of
two.  The ancilla qubit, when present, is always the leftmost (most
significant) tensor factor.
"""

import os
import resource
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigendecompositionFailure, NotHermitian, ResourceCeiling

HERMITICITY_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-8

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    values : ascending real eigenvalues, shape (D,)
    vectors : unitary matrix whose columns are the eigenvectors, shape (D, D)
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self):
        return self.values.shape[0]

    def to_eigenbasis(self, a):
        """Matrix of `a` in the eigenbasis, V† a V."""
        return self.vectors.conj().T @ a @ self.vectors

    def from_eigenbasis(self, a):
        """Rotate a matrix given in the eigenbasis back, V a V†."""
        return self.vectors @ a @ self.vectors.conj().T


def require_memory(parts):
    """Raise ResourceCeiling, before anything is allocated, when a run's
    `parts`, a {what: bytes} dict of everything it holds at its peak, need
    more together than the physical memory or a finite address-space limit
    (RLIMIT_AS, as `ulimit -v` sets it), whichever is smaller.  The sum is
    checked once, and the message names the largest part.  Each library
    entry point calls it once before its first run-sized array, the RK4
    solvers once per attempt."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    address_space = resource.getrlimit(resource.RLIMIT_AS)[0]
    if address_space != resource.RLIM_INFINITY:
        limit = min(limit, address_space)
    total = sum(parts.values())
    if total > limit:
        largest = max(parts, key=parts.get)
        raise ResourceCeiling(
            f"a run whose largest part is {largest} needs {total:.3g} bytes, memory is {limit:.3g}"
        )


def eig_hermitian(a):
    """Diagonalize a Hermitian operator.

    Raises NotHermitian when max|a - a†| exceeds the tolerance and
    EigendecompositionFailure when V Λ V† does not reconstruct `a`
    to 1e-8 relative in the element-wise max norm.
    """
    a = np.asarray(a, dtype=complex)
    dev = np.max(np.abs(a - a.conj().T))
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"max|a - a^dag| = {dev:.3e}")
    values, vectors = np.linalg.eigh(a)
    scale = max(np.max(np.abs(a)), 1e-300)
    resid = np.max(np.abs(vectors @ (values[:, None] * vectors.conj().T) - a))
    if resid > RECONSTRUCTION_RTOL * scale:
        raise EigendecompositionFailure(f"reconstruction residual {resid:.3e}")
    return Spectrum(values=values, vectors=vectors)


def expm_phase(spec, theta):
    """Unitary e^{-i theta H} from the eigendecomposition of H."""
    phases = np.exp(-1j * theta * spec.values)
    return spec.vectors @ (phases[:, None] * spec.vectors.conj().T)


def trace_distance(a, b, work=None):
    """(1/2) ||a - b||_1 for Hermitian a, b of equal dimension.

    `a` may be a stack (..., D, D) compared against one (D, D) matrix `b`
    (or a stack of the same shape); the stack is diagonalized in one call
    and the distances come back as an array of shape (...).  Two single
    matrices give a float.  The difference is symmetrized before
    diagonalization so that accumulated anti-Hermitian roundoff does not
    bias the result.

    `work`, when given, is a pair of arrays of a's shape and of dtype
    result_type(a, b, 0.5) (one (2,) + a.shape array will do): the
    difference is formed in work[0] and its conjugate in work[1] instead of
    in fresh arrays, with the same bits.  `a` may be work[0] itself.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.shape not in (a.shape, a.shape[-2:]):
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    diff, conj = (None, None) if work is None else work
    diff = np.subtract(a, b, out=diff, dtype=np.result_type(a, b, 0.5))
    diff += np.conjugate(diff, out=conj).swapaxes(-1, -2)
    diff *= 0.5
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    return float(dist) if a.ndim == 2 else dist


def partial_trace_ancilla(a):
    """Trace out the leftmost qubit of an operator on 2D dimensions."""
    a = np.asarray(a)
    dim = a.shape[0]
    if dim % 2 != 0:
        raise DimensionMismatch(f"dimension {dim} is odd")
    d = dim // 2
    blocks = a.reshape(2, d, 2, d)
    return blocks[0, :, 0, :] + blocks[1, :, 1, :]
