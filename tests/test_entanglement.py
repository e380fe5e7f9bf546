import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entpower.ensembles import BipartiteDims, EnsembleTag, FieldTag, PhiloxStreams, sample_block
from entpower.dynamics import decompose_block, operator_curves
from entpower.entanglement import purity_batch

from oracles import haar_unitary, operator_entanglement_naive, stream, unit_vector

BELL = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)


def random_bipartite_state(d_a, d_b, seed):
    return unit_vector(stream(seed, 0), d_a * d_b, FieldTag.COMPLEX)


def cue_draws(dims, seed, count=1):
    """CUE unitaries of samples 0..count-1 under master seed `seed`, through the run's sampler."""
    return sample_block(EnsembleTag.CUE, dims, None, PhiloxStreams(seed), 0, count)[0]


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


def test_purity_of_product_state():
    rng = stream(3, 0)
    psi = np.kron(unit_vector(rng, 3, FieldTag.COMPLEX), unit_vector(rng, 4, FieldTag.COMPLEX))
    assert abs(purity_batch(psi[:, None], 3, 4)[0] - 1.0) < 1e-12


def test_linear_entropy_of_bell_state():
    assert abs(state_entropy(BELL, 2, 2) - 0.5) < 1e-14


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
def test_linear_entropy_bounds_and_ab_symmetry(d_a, d_b, seed):
    psi = random_bipartite_state(d_a, d_b, seed)
    s = state_entropy(psi, d_a, d_b)
    assert -1e-12 <= s <= 1.0 - 1.0 / min(d_a, d_b) + 1e-12
    # psi[(a b)] -> psi[(b a)]: the kernel then traces out A
    b_major = psi.reshape(d_a, d_b).T.reshape(-1)
    s_b = state_entropy(b_major, d_b, d_a)
    assert abs(s - s_b) < 1e-10


@pytest.mark.parametrize("d_a,d_b", [(1, 3), (2, 2), (2, 3), (4, 5), (5, 4)])
def test_purity_of_a_real_batch_is_its_complex_copys(d_a, d_b):
    # a real batch is summed through its complex copy: the same purities bit for bit,
    # with strided columns and with the contiguous ones of an n-major array
    rows = stream(11, d_a * d_b).standard_normal((3, 7, d_a * d_b))
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    for columns in (np.ascontiguousarray(rows.swapaxes(-1, -2)), rows.swapaxes(-1, -2)):
        real = purity_batch(columns, d_a, d_b)
        assert real.shape == (3, 7)
        assert np.array_equal(real, purity_batch(columns.astype(np.complex128), d_a, d_b))


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
