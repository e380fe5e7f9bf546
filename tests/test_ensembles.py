import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from entpower.ensembles import (
    BipartiteDims,
    EnsembleTag,
    FieldTag,
    PhiloxStreams,
    _product_states,
    _unit_vectors,
    basis_product_state,
    sample_block,
)
from entpower.entanglement import purity_batch

from oracles import stream_draw


def draws(ensemble, d, seed, first=0, count=1):
    """Unitaries on C^d of samples first, first+1, ... of master seed `seed`, from sample_block."""
    return sample_block(ensemble, BipartiteDims(d, 1), None, PhiloxStreams(seed), first, count)[0]


def lone_states(field_tag, d, seed, first=0, count=1):
    """Random states on C^d or R^d, each from the first normals of its stream."""
    width = 2 * d if field_tag is FieldTag.COMPLEX else d
    return _unit_vectors(field_tag, PhiloxStreams(seed).normals(first, count, width))


def unitarity_defect(u):
    """max |U U^dag - 1|, entrywise."""
    return float(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))))


def test_bipartite_dims():
    dims = BipartiteDims(4, 5)
    assert dims.d == 20
    with pytest.raises(ValueError):
        BipartiteDims(0, 5)


def test_random_stream_reproducible():
    a = PhiloxStreams(7).normals(3, 1, 16)
    b = PhiloxStreams(7).normals(3, 1, 16)
    assert np.array_equal(a, b)
    c = PhiloxStreams(7).normals(4, 1, 16)
    assert not np.array_equal(a, c)


def test_random_stream_rejects_negative():
    # each word of the Philox key holds 64 bits
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            PhiloxStreams(seed)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
def test_cue_unitarity(d_a, d_b, seed):
    dims = BipartiteDims(d_a, d_b)
    u, _ = sample_block(EnsembleTag.CUE, dims, None, PhiloxStreams(seed), 0, 1)
    assert unitarity_defect(u[0]) < 1e-12


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32))
def test_coe_symmetric_unitary(d_a, d_b, seed):
    dims = BipartiteDims(d_a, d_b)
    u = sample_block(EnsembleTag.COE, dims, None, PhiloxStreams(seed), 1, 1)[0][0]
    assert np.array_equal(u, u.T)
    assert unitarity_defect(u) < 1e-12


def test_coe_eigenvalues_on_unit_circle():
    for u in draws(EnsembleTag.COE, 20, 3, count=5):
        w = np.linalg.eigvals(u)
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-10


def test_cue_determinism_bitwise():
    a = draws(EnsembleTag.CUE, 12, 42, first=9)
    b = draws(EnsembleTag.CUE, 12, 42, first=9)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("field_tag", [FieldTag.REAL, FieldTag.COMPLEX])
@pytest.mark.parametrize("ensemble", [EnsembleTag.CUE, EnsembleTag.COE], ids=["cue", "coe"])
def test_stacked_draws_match_one_at_a_time(ensemble, field_tag):
    dims = BipartiteDims(4, 5)
    stacked, states = sample_block(ensemble, dims, field_tag, PhiloxStreams(61), 0, 7)
    for i in range(7):
        u_ref, psi_ref = stream_draw(61, i, 4, 5, ensemble, field_tag)
        assert np.array_equal(stacked[i], u_ref)
        assert np.array_equal(states[i], psi_ref)
        # a block of one: a draw does not depend on the rest of its block
        u_one, psi_one = sample_block(ensemble, dims, field_tag, PhiloxStreams(61), i, 1)
        assert np.array_equal(stacked[i], u_one[0])
        assert np.array_equal(states[i], psi_one[0])


def test_cue_d1_phase_uniform():
    # d = 1: the sample is a bare Haar phase, so tr U averages to zero
    n = 100_000
    phases = draws(EnsembleTag.CUE, 1, 5, count=n)[:, 0, 0]
    assert abs(phases.mean()) < 0.02


def test_cue_haar_left_invariance_ks():
    # multiplying by a fixed unitary must not change the distribution
    # of any fixed entry's modulus
    d, n = 8, 10_000
    v = draws(EnsembleTag.CUE, d, 999)[0]
    plain = np.abs(draws(EnsembleTag.CUE, d, 17, count=n)[:, 0, 0])
    rotated = np.abs((v @ draws(EnsembleTag.CUE, d, 18, count=n))[:, 0, 0])
    _, p = scipy.stats.ks_2samp(plain, rotated)
    assert p > 0.001


def test_random_state_normalized_and_tagged():
    s = lone_states(FieldTag.COMPLEX, 20, 1)[0]
    assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    r = lone_states(FieldTag.REAL, 20, 1, first=1)[0]
    assert r.dtype == np.complex128
    assert np.all(r.imag == 0.0)
    # and the product states of a block, drawn after their unitaries
    for field_tag in FieldTag:
        _, states = sample_block(EnsembleTag.COE, BipartiteDims(4, 5), field_tag,
                                 PhiloxStreams(1), 0, 8)
        assert np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0)) < 1e-12
        if field_tag is FieldTag.REAL:
            assert np.all(states.imag == 0.0)


def test_random_state_component_symmetry():
    # sphere symmetry: every |amplitude_k|^2 has mean 1/d
    d, n = 20, 100_000
    p = np.abs(lone_states(FieldTag.COMPLEX, d, 23, count=n)) ** 2
    mean = p.mean(axis=0)
    se = np.sqrt(((p * p).mean(axis=0) - mean**2) / (n - 1))
    assert np.all(np.abs(mean - 1.0 / d) < 5 * se)


def test_product_state_basis_case():
    psi = basis_product_state(BipartiteDims(4, 5))
    assert psi.shape == (20,) and psi.dtype == np.complex128
    assert psi[0] == 1.0
    assert np.all(psi[1:] == 0.0)


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32))
def test_product_state_is_unentangled(d_a, d_b, seed):
    dims = BipartiteDims(d_a, d_b)
    # the A and B factors from the first normals of the stream
    alone = _product_states(dims, FieldTag.COMPLEX,
                            PhiloxStreams(seed).normals(0, 1, 2 * d_a + 2 * d_b))
    # and behind a unitary, as runs draw them
    _, drawn = sample_block(EnsembleTag.CUE, dims, FieldTag.COMPLEX, PhiloxStreams(seed), 0, 1)
    for psi in (alone, drawn):
        assert abs(np.linalg.norm(psi[0]) - 1.0) < 1e-12
        assert 1.0 - purity_batch(psi.T, d_a, d_b)[0] < 1e-12


def test_product_state_composite_index_is_a_major():
    # factors |1>_A and |0>_B, from normals that are their amplitudes
    psi = _product_states(BipartiteDims(2, 3), FieldTag.REAL, np.array([[0.0, 1.0, 1.0, 0.0, 0.0]]))
    # |1>_A (x) |0>_B lives at k = 1 * d_b + 0
    assert psi[0, 3] == 1.0
    assert np.count_nonzero(psi) == 1
