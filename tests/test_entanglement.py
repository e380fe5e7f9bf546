import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entpower.ensembles import (
    BipartiteDims,
    EnsembleTag,
    FieldTag,
    PureState,
    RandomStream,
    UnitaryMatrix,
    product_state,
    random_state,
    sample_cue,
)
from entpower.dynamics import decompose_block, operator_curves
from entpower.entanglement import _b_major, purity_batch, reduced_density_batch

from oracles import operator_entanglement_naive


def bell_state():
    dims = BipartiteDims(2, 2)
    return PureState(dims, np.array([1, 0, 0, 1]) / np.sqrt(2), FieldTag.REAL)


def random_bipartite_state(d_a, d_b, seed):
    return random_state(d_a * d_b, FieldTag.COMPLEX, RandomStream(seed, 0),
                        BipartiteDims(d_a, d_b))


def densities(psi):
    """rho_A and rho_B of one state, each from the batched kernel on a batch of one."""
    d_a, d_b = psi.dims.d_a, psi.dims.d_b
    column = psi.amplitudes[:, None]
    return (reduced_density_batch(column, d_a, d_b)[0],
            reduced_density_batch(_b_major(column, d_a, d_b), d_b, d_a)[0])


def state_entropy(psi):
    return 1.0 - purity_batch(psi.amplitudes[:, None], psi.dims.d_a, psi.dims.d_b)[0]


def operator_entanglements(entries, dims):
    """Operator entanglement of each unitary of a (k, d, d) stack: its curve at n = 1."""
    return operator_curves(decompose_block(entries, dims), 1)[:, 0]


def swap_unitary():
    dims = BipartiteDims(2, 2)
    m = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            m[b * 2 + a, a * 2 + b] = 1.0
    return UnitaryMatrix(dims, m, EnsembleTag.FIXED)


def test_reduced_density_of_product_state():
    stream = RandomStream(3, 0)
    psi = product_state(random_state(3, FieldTag.COMPLEX, stream),
                        random_state(4, FieldTag.COMPLEX, stream))
    rho_a, _ = densities(psi)
    assert rho_a.shape == (3, 3)
    assert abs(np.sum(np.abs(rho_a) ** 2) - 1.0) < 1e-12


def test_reduced_density_of_bell_state():
    rho_a, _ = densities(bell_state())
    assert np.allclose(rho_a, np.eye(2) / 2, atol=1e-14)


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32))
def test_reduced_density_contract(d_a, d_b, seed):
    psi = random_bipartite_state(d_a, d_b, seed)
    for rho, dim in zip(densities(psi), (d_a, d_b)):
        assert rho.shape == (dim, dim)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_linear_entropy_of_bell_state():
    assert abs(state_entropy(bell_state()) - 0.5) < 1e-14


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
def test_linear_entropy_bounds_and_ab_symmetry(d_a, d_b, seed):
    psi = random_bipartite_state(d_a, d_b, seed)
    s = state_entropy(psi)
    assert -1e-12 <= s <= 1.0 - 1.0 / min(d_a, d_b) + 1e-12
    s_b = 1.0 - np.sum(np.abs(densities(psi)[1]) ** 2)
    assert abs(s - s_b) < 1e-10


def test_operator_entanglement_identity():
    dims = BipartiteDims(3, 4)
    assert abs(operator_entanglements(np.eye(12)[None], dims)[0]) < 1e-12


def test_operator_entanglement_swap():
    u = swap_unitary()
    assert abs(operator_entanglements(u.entries[None], u.dims)[0] - 0.75) < 1e-14
    assert abs(operator_entanglement_naive(u) - 0.75) < 1e-14


def test_naive_dimension_guard():
    u = sample_cue(16, RandomStream(0, 0), BipartiteDims(4, 4))
    with pytest.raises(ValueError):
        operator_entanglement_naive(u)


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (2, 6)])
def test_fast_path_matches_naive_sum(d_a, d_b):
    dims = BipartiteDims(d_a, d_b)
    us = [sample_cue(d_a * d_b, RandomStream(31, idx), dims) for idx in range(10)]
    fast = operator_entanglements(np.stack([u.entries for u in us]), dims)
    for u, value in zip(us, fast):
        assert abs(value - operator_entanglement_naive(u)) < 1e-10


@given(st.integers(0, 2**32))
def test_operator_entanglement_local_invariance(seed):
    dims = BipartiteDims(2, 3)
    stream = RandomStream(seed, 0)
    u = sample_cue(6, stream, dims)
    va = sample_cue(2, stream).entries
    vb = sample_cue(3, stream).entries
    wa = sample_cue(2, stream).entries
    wb = sample_cue(3, stream).entries
    dressed = np.kron(va, vb) @ u.entries @ np.kron(wa, wb)
    plain, local = operator_entanglements(np.stack([u.entries, dressed]), dims)
    assert abs(local - plain) < 1e-10
