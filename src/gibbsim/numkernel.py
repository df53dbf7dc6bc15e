"""Dense complex linear-algebra kernel shared by every other module.

Operators are plain complex numpy arrays of shape (D, D) with D a power of
two.  The ancilla qubit, when present, is always the leftmost (most
significant) tensor factor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigendecompositionFailure, NotHermitian

HERMITICITY_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-8

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


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


def trace_distance(a, b):
    """(1/2) ||a - b||_1 for Hermitian a, b of equal dimension.

    `a` may be a stack (..., D, D) compared against one (D, D) matrix `b`
    (or a stack of the same shape); the stack is diagonalized in one call
    and the distances come back as an array of shape (...).  Two single
    matrices give a float.  The difference is symmetrized before
    diagonalization so that accumulated anti-Hermitian roundoff does not
    bias the result.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.shape not in (a.shape, a.shape[-2:]):
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    diff = np.subtract(a, b, dtype=np.result_type(a, b, 0.5))
    diff += diff.conj().swapaxes(-1, -2)
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


def kron(a, b):
    """Tensor product; the first argument is the more significant factor."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron_all(factors):
    """Tensor product of a sequence of operators, left factor most significant."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def embed_single_site(op1q, site, n):
    """n-qubit operator acting with `op1q` on `site` (site 0 = leftmost)."""
    factors = [PAULI_I] * n
    factors[site] = op1q
    return kron_all(factors)

