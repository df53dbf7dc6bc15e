"""Shared, cached model setups so the suite diagonalizes each instance once."""

from functools import lru_cache

import numpy as np
import pytest

import gibbsim as gs

BETA = 0.5  # beta * J = 1/2 throughout


@lru_cache(maxsize=None)
def point_setup(key, n):
    """The `gs.Chain` of a named point at BETA, with its Hamiltonian,
    spectrum, Bohr grouping and Gibbs state."""
    chain = gs.Chain(gs.named_point(key, n), BETA)
    return {
        "chain": chain,
        "params": chain.params,
        "ham": chain.ham,
        "spec": chain.spec,
        "bohr": chain.bohr,
        "sigma": chain.sigma,
    }


@lru_cache(maxsize=None)
def lindblad_setup(key, n, count, k=2, seed=0):
    """Jump set, the (count, D, D) stack of its exact OFT Lindblad operators
    (read-only, since the setup is shared) and uniform weights."""
    base = point_setup(key, n)
    jump_set = tuple(gs.sample_jump_set(n, k, count, seed))
    lindblads = np.stack(
        [gs.lindblad_op_exact(a, base["spec"], BETA, base["bohr"]) for a in jump_set]
    )
    lindblads.flags.writeable = False
    gammas = np.full(count, 1.0 / count)
    return {**base, "jump_set": jump_set, "lindblads": lindblads, "gammas": gammas}


@lru_cache(maxsize=None)
def gap_setup(key, n, count, k=2, seed=0):
    """Lindblad setup plus the gap and steady state of its generator with G = H."""
    ls = lindblad_setup(key, n, count, k, seed)
    result = gs.steady_state_and_gap(ls["ham"], ls["lindblads"], ls["gammas"])
    return {**ls, "gap_result": result}


def apply_lindbladian(rho, coherent, lindblads, gammas):
    """The generator applied directly, the reference for its vectorized forms:
    L[rho] = -i[G, rho] + sum_a gamma_a D^a[rho]; G = 0 when `coherent` is None."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    if coherent is not None:
        out += -1j * (coherent @ rho - rho @ coherent)
    for g, L in zip(gammas, np.asarray(lindblads, dtype=complex)):
        LdL = L.conj().T @ L
        out += g * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


def random_density_matrix(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
