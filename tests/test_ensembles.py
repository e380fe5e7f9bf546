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
    PureState,
    RandomStream,
    basis_product_state,
    product_state,
    random_state,
    sample_block,
    sample_coe,
    sample_cue,
)
from entpower.entanglement import purity_batch

from oracles import stream_draw


def test_bipartite_dims():
    dims = BipartiteDims(4, 5)
    assert dims.d == 20
    with pytest.raises(ValueError):
        BipartiteDims(0, 5)


def test_random_stream_reproducible():
    a = RandomStream(7, 3).generator().standard_normal(16)
    b = RandomStream(7, 3).generator().standard_normal(16)
    assert np.array_equal(a, b)
    c = RandomStream(7, 4).generator().standard_normal(16)
    assert not np.array_equal(a, c)


def test_random_stream_rejects_negative():
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    # each word of the Philox key holds 64 bits
    for make in (lambda: RandomStream(2**64, 0), lambda: RandomStream(0, 2**64),
                 lambda: PhiloxStreams(2**64)):
        with pytest.raises(ValueError):
            make()


def test_sample_cue_rejects_zero_dim():
    with pytest.raises(ValueError):
        sample_cue(0, RandomStream(0, 0))


def test_sample_cue_dims_mismatch():
    with pytest.raises(ValueError):
        sample_cue(6, RandomStream(0, 0), BipartiteDims(2, 2))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
def test_cue_unitarity(d_a, d_b, seed):
    u = sample_cue(d_a * d_b, RandomStream(seed, 0), BipartiteDims(d_a, d_b))
    assert u.unitarity_defect() < 1e-12
    assert u.ensemble_tag is EnsembleTag.CUE


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32))
def test_coe_symmetric_unitary(d_a, d_b, seed):
    u = sample_coe(d_a * d_b, RandomStream(seed, 1), BipartiteDims(d_a, d_b))
    assert np.array_equal(u.entries, u.entries.T)
    assert u.unitarity_defect() < 1e-12


def test_coe_eigenvalues_on_unit_circle():
    for idx in range(5):
        u = sample_coe(20, RandomStream(3, idx))
        w = np.linalg.eigvals(u.entries)
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-10


def test_cue_determinism_bitwise():
    a = sample_cue(12, RandomStream(42, 9))
    b = sample_cue(12, RandomStream(42, 9))
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("field_tag", [FieldTag.REAL, FieldTag.COMPLEX])
@pytest.mark.parametrize("ensemble,sampler", [(EnsembleTag.CUE, sample_cue),
                                              (EnsembleTag.COE, sample_coe)], ids=["cue", "coe"])
def test_stacked_draws_match_one_at_a_time(ensemble, sampler, field_tag):
    dims = BipartiteDims(4, 5)
    stacked, states = sample_block(ensemble, dims, field_tag, PhiloxStreams(61), 0, 7)
    for i in range(7):
        u_ref, psi_ref = stream_draw(61, i, 4, 5, ensemble, field_tag)
        assert np.array_equal(stacked[i], u_ref)
        assert np.array_equal(states[i], psi_ref)
        # a fresh stream per sample: unitary first, then the A and B factors
        stream = RandomStream(61, i)
        assert np.array_equal(stacked[i], sampler(20, stream, dims).entries)
        psi = product_state(random_state(4, field_tag, stream), random_state(5, field_tag, stream))
        assert np.array_equal(states[i], psi.amplitudes)


def test_cue_d1_phase_uniform():
    # d = 1: the sample is a bare Haar phase, so tr U averages to zero
    total = 0.0 + 0.0j
    n = 100_000
    for idx in range(n):
        total += sample_cue(1, RandomStream(5, idx)).entries[0, 0]
    assert abs(total / n) < 0.02


def test_cue_haar_left_invariance_ks():
    # multiplying by a fixed unitary must not change the distribution
    # of any fixed entry's modulus
    d, n = 8, 10_000
    v = sample_cue(d, RandomStream(999, 0)).entries
    plain = np.empty(n)
    rotated = np.empty(n)
    for idx in range(n):
        u = sample_cue(d, RandomStream(17, idx)).entries
        plain[idx] = abs(u[0, 0])
        u2 = sample_cue(d, RandomStream(18, idx)).entries
        rotated[idx] = abs((v @ u2)[0, 0])
    _, p = scipy.stats.ks_2samp(plain, rotated)
    assert p > 0.001


def test_random_state_normalized_and_tagged():
    s = random_state(20, FieldTag.COMPLEX, RandomStream(1, 0))
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    r = random_state(20, FieldTag.REAL, RandomStream(1, 1))
    assert np.all(r.amplitudes.imag == 0.0)
    assert r.field_tag is FieldTag.REAL


def test_random_state_component_symmetry():
    # sphere symmetry: every |amplitude_k|^2 has mean 1/d
    d, n = 20, 100_000
    acc = np.zeros(d)
    acc2 = np.zeros(d)
    for idx in range(n):
        p = np.abs(random_state(d, FieldTag.COMPLEX, RandomStream(23, idx)).amplitudes) ** 2
        acc += p
        acc2 += p * p
    mean = acc / n
    se = np.sqrt((acc2 / n - mean**2) / (n - 1))
    assert np.all(np.abs(mean - 1.0 / d) < 5 * se)


def test_product_state_basis_case():
    psi = basis_product_state(BipartiteDims(4, 5))
    assert psi.amplitudes[0] == 1.0
    assert np.all(psi.amplitudes[1:] == 0.0)
    assert psi.field_tag is FieldTag.REAL


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32))
def test_product_state_is_unentangled(d_a, d_b, seed):
    stream = RandomStream(seed, 0)
    psi = product_state(random_state(d_a, FieldTag.COMPLEX, stream),
                        random_state(d_b, FieldTag.COMPLEX, stream))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    assert 1.0 - purity_batch(psi.amplitudes[:, None], d_a, d_b)[0] < 1e-12


def test_product_state_composite_index_is_a_major():
    a = PureState(BipartiteDims(2, 1), np.array([0.0, 1.0]), FieldTag.REAL)
    b = PureState(BipartiteDims(3, 1), np.array([1.0, 0.0, 0.0]), FieldTag.REAL)
    psi = product_state(a, b)
    # |1>_A (x) |0>_B lives at k = 1 * d_b + 0
    assert psi.amplitudes[3] == 1.0


def test_product_state_rejects_bipartite_factors():
    bell = PureState(BipartiteDims(2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2), FieldTag.REAL)
    single = PureState(BipartiteDims(2, 1), np.array([1.0, 0.0]), FieldTag.REAL)
    with pytest.raises(ValueError):
        product_state(bell, single)


def test_pure_state_validation():
    dims = BipartiteDims(2, 1)
    with pytest.raises(ValueError):
        PureState(dims, np.array([1.0, 1.0]), FieldTag.REAL)
    with pytest.raises(ValueError):
        PureState(dims, np.array([1.0, 1e-13j]), FieldTag.REAL)
