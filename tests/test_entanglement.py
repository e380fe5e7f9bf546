import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entpower.ensembles import BipartiteDims, EnsembleTag, FieldTag, PhiloxStreams, sample_block
from entpower.dynamics import decompose_block, operator_curves
from entpower.entanglement import _b_major, purity_batch, reduced_density_batch

from oracles import haar_unitary, operator_entanglement_naive, stream, unit_vector

BELL = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)


def random_bipartite_state(d_a, d_b, seed):
    return unit_vector(stream(seed, 0), d_a * d_b, FieldTag.COMPLEX)


def cue_draws(dims, seed, count=1):
    """CUE unitaries of samples 0..count-1 under master seed `seed`, through the run's sampler."""
    return sample_block(EnsembleTag.CUE, dims, None, PhiloxStreams(seed), 0, count)[0]


def densities(psi, d_a, d_b):
    """rho_A and rho_B of one state, each from the batched kernel on a batch of one."""
    column = psi[:, None]
    return (reduced_density_batch(column, d_a, d_b)[0],
            reduced_density_batch(_b_major(column, d_a, d_b), d_b, d_a)[0])


def state_entropy(psi, d_a, d_b):
    return 1.0 - purity_batch(psi[:, None], d_a, d_b)[0]


def operator_entanglements(entries, dims):
    """Operator entanglement of each unitary of a (k, d, d) stack: its curve at n = 1."""
    return operator_curves(decompose_block(entries, dims), 1)[:, 0]


def swap_unitary():
    m = np.zeros((4, 4), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            m[b * 2 + a, a * 2 + b] = 1.0
    return m


def test_reduced_density_of_product_state():
    rng = stream(3, 0)
    psi = np.kron(unit_vector(rng, 3, FieldTag.COMPLEX), unit_vector(rng, 4, FieldTag.COMPLEX))
    rho_a, _ = densities(psi, 3, 4)
    assert rho_a.shape == (3, 3)
    assert abs(np.sum(np.abs(rho_a) ** 2) - 1.0) < 1e-12


def test_reduced_density_of_bell_state():
    rho_a, _ = densities(BELL, 2, 2)
    assert np.allclose(rho_a, np.eye(2) / 2, atol=1e-14)


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32))
def test_reduced_density_contract(d_a, d_b, seed):
    psi = random_bipartite_state(d_a, d_b, seed)
    for rho, dim in zip(densities(psi, d_a, d_b), (d_a, d_b)):
        assert rho.shape == (dim, dim)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_linear_entropy_of_bell_state():
    assert abs(state_entropy(BELL, 2, 2) - 0.5) < 1e-14


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
def test_linear_entropy_bounds_and_ab_symmetry(d_a, d_b, seed):
    psi = random_bipartite_state(d_a, d_b, seed)
    s = state_entropy(psi, d_a, d_b)
    assert -1e-12 <= s <= 1.0 - 1.0 / min(d_a, d_b) + 1e-12
    s_b = 1.0 - np.sum(np.abs(densities(psi, d_a, d_b)[1]) ** 2)
    assert abs(s - s_b) < 1e-10


def test_operator_entanglement_identity():
    dims = BipartiteDims(3, 4)
    assert abs(operator_entanglements(np.eye(12)[None], dims)[0]) < 1e-12


def test_operator_entanglement_swap():
    dims = BipartiteDims(2, 2)
    u = swap_unitary()
    assert abs(operator_entanglements(u[None], dims)[0] - 0.75) < 1e-14
    assert abs(operator_entanglement_naive(u, dims) - 0.75) < 1e-14


def test_naive_dimension_guard():
    dims = BipartiteDims(4, 4)
    u = cue_draws(dims, 0)[0]
    with pytest.raises(ValueError):
        operator_entanglement_naive(u, dims)


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (2, 6)])
def test_fast_path_matches_naive_sum(d_a, d_b):
    dims = BipartiteDims(d_a, d_b)
    us = cue_draws(dims, 31, count=10)
    fast = operator_entanglements(us, dims)
    for u, value in zip(us, fast):
        assert abs(value - operator_entanglement_naive(u, dims)) < 1e-10


@given(st.integers(0, 2**32))
def test_operator_entanglement_local_invariance(seed):
    dims = BipartiteDims(2, 3)
    # five unitaries in turn from one stream
    rng = stream(seed, 0)
    u, va, vb, wa, wb = (haar_unitary(rng, d) for d in (6, 2, 3, 2, 3))
    dressed = np.kron(va, vb) @ u @ np.kron(wa, wb)
    plain, local = operator_entanglements(np.stack([u, dressed]), dims)
    assert abs(local - plain) < 1e-10
