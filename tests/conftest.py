"""Shared, cached model setups so the suite diagonalizes each instance once."""

from functools import lru_cache

import numpy as np
import pytest

import gibbsim as gs
from gibbsim.jumps import FilterSpec

BETA = 0.5  # beta * J = 1/2 throughout


@lru_cache(maxsize=None)
def point_setup(key, n):
    """Hamiltonian, spectrum, Bohr grouping and Gibbs state for a named point."""
    params = gs.named_point(key, n)
    ham = gs.build_hamiltonian(params)
    spec = gs.eig_hermitian(ham)
    bohr = gs.bohr_frequencies(spec)
    sigma = gs.gibbs_state(spec, BETA)
    return {
        "params": params,
        "ham": ham,
        "spec": spec,
        "bohr": bohr,
        "sigma": sigma,
        "filter": FilterSpec(BETA),
    }


@lru_cache(maxsize=None)
def lindblad_setup(key, n, count, k=2, seed=0):
    """Jump set, exact OFT Lindblad operators and uniform weights."""
    base = point_setup(key, n)
    jump_set = tuple(gs.sample_jump_set(n, k, count, seed))
    lindblads = tuple(
        gs.lindblad_op_exact(a, base["spec"], base["filter"], base["bohr"]) for a in jump_set
    )
    gammas = np.full(count, 1.0 / count)
    return {**base, "jump_set": jump_set, "lindblads": lindblads, "gammas": gammas}


@lru_cache(maxsize=None)
def gap_setup(key, n, count, k=2, seed=0):
    ls = lindblad_setup(key, n, count, k, seed)
    superop = gs.build_superop(ls["ham"], list(ls["lindblads"]), ls["gammas"])
    result = gs.steady_state_and_gap(ls["ham"], list(ls["lindblads"]), ls["gammas"])
    return {**ls, "superop": superop, "gap_result": result}


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
