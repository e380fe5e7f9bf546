import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entpower import dynamics
from entpower.dynamics import (
    asymptotic_entropies,
    decompose_block,
    entropy_curves,
    form_factors,
    matrix_power,
    operator_curves,
)
from entpower.ensembles import (
    BipartiteDims,
    EnsembleTag,
    FieldTag,
    PureState,
    RandomStream,
    UnitaryMatrix,
    basis_product_state,
    product_state,
    random_state,
    sample_coe,
    sample_cue,
)
from entpower.entanglement import purity_batch

from oracles import operator_entanglement_naive, time_average_entropy

DIMS45 = BipartiteDims(4, 5)


def diag_unitary(phases, dims):
    return UnitaryMatrix(dims, np.diag(np.exp(1j * np.asarray(phases))), EnsembleTag.FIXED)


def cue(seed, idx=0, dims=DIMS45):
    return sample_cue(dims.d, RandomStream(seed, idx), dims)


def block_of(u):
    """The decomposition of one unitary, a block of one; COE draws take the real route."""
    return decompose_block(u.entries[None], u.dims, u.ensemble_tag is EnsembleTag.COE)


def state_entropy(psi):
    return 1.0 - purity_batch(psi.amplitudes[:, None], psi.dims.d_a, psi.dims.d_b)[0]


def entropy_curve(u, psi, n_max):
    return entropy_curves(block_of(u), psi.amplitudes[None], n_max)[0]


def asymptote(u, psi):
    return asymptotic_entropies(block_of(u), psi.amplitudes[None])[0][0]


def evolved_state(u, psi, n):
    amps = np.linalg.matrix_power(u.entries, n) @ psi.amplitudes
    return PureState(u.dims, amps / np.linalg.norm(amps), FieldTag.COMPLEX)


def test_spectral_decompose_diagonal_case():
    u = diag_unitary([0.0, np.pi / 2], BipartiteDims(2, 1))
    block = block_of(u)
    assert np.allclose(np.sort(block.phases[0]), [0.0, np.pi / 2], atol=1e-12)
    # eigenvectors of a diagonal matrix: standard basis up to order/phase
    assert np.allclose(np.sort(np.abs(block.vectors[0]).ravel()), [0, 0, 1, 1], atol=1e-12)


def test_spectral_reconstruction_contract():
    for idx in range(5):
        u = cue(41, idx)
        block = block_of(u)
        assert np.max(np.abs(matrix_power(block, 1)[0] - u.entries)) < 1e-10
        z = block.vectors[0]
        assert np.max(np.abs(z @ z.conj().T - np.eye(u.dims.d))) < 1e-10
        assert np.all(block.phases >= 0.0) and np.all(block.phases < 2 * np.pi)


def test_eigenphase_level_repulsion():
    # CUE spacings repel: far fewer tiny gaps than a Poisson spectrum
    d, samples = 8, 10_000
    cutoff = 0.1 * (2 * np.pi / d)
    small = 0
    for idx in range(samples):
        s = np.sort(block_of(sample_cue(d, RandomStream(59, idx))).phases[0])
        gaps = np.append(np.diff(s), s[0] + 2 * np.pi - s[-1])
        small += int(np.sum(gaps < cutoff))
    frac = small / (samples * d)
    se = np.sqrt(frac * (1 - frac) / (samples * d))
    assert frac + 5 * se < 0.095


def test_matrix_power_trivial_cases():
    u = cue(7)
    block = block_of(u)
    assert matrix_power(block, 0).shape == (1, 20, 20)
    assert np.max(np.abs(matrix_power(block, 0)[0] - np.eye(20))) < 1e-10
    assert np.max(np.abs(matrix_power(block, 1)[0] - u.entries)) < 1e-10
    with pytest.raises(ValueError):
        matrix_power(block, -1)


def test_matrix_power_matches_direct_multiplication():
    u = cue(11)
    direct = np.linalg.matrix_power(u.entries, 7)
    assert np.max(np.abs(matrix_power(block_of(u), 7)[0] - direct)) < 1e-8


@given(st.integers(0, 2**32), st.integers(0, 20), st.integers(0, 20))
def test_matrix_power_additivity(seed, m, n):
    u = sample_cue(6, RandomStream(seed, 0), BipartiteDims(2, 3))
    block = block_of(u)
    lhs = matrix_power(block, m + n)[0]
    rhs = matrix_power(block, m)[0] @ matrix_power(block, n)[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_matrix_power_unitary_at_long_times():
    u200 = UnitaryMatrix(DIMS45, matrix_power(block_of(cue(13)), 200)[0], EnsembleTag.FIXED)
    assert u200.unitarity_defect() < 1e-9


def test_entropy_series_swap_keeps_product_states():
    dims = BipartiteDims(2, 2)
    m = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            m[b * 2 + a, a * 2 + b] = 1.0
    swap = UnitaryMatrix(dims, m, EnsembleTag.FIXED)
    psi = PureState(dims, np.array([0.0, 1.0, 0.0, 0.0]), FieldTag.REAL)  # |0>_A |1>_B
    assert np.max(np.abs(entropy_curve(swap, psi, 6))) < 1e-12


def test_entropy_series_diagonal_map_never_entangles():
    phases = RandomStream(3, 0).generator().uniform(0, 2 * np.pi, 20)
    u = diag_unitary(phases, DIMS45)
    assert np.max(np.abs(entropy_curve(u, basis_product_state(DIMS45), 10))) < 1e-12


def test_entropy_series_matches_direct_powers():
    u = cue(17)
    psi = basis_product_state(DIMS45)
    curve = entropy_curve(u, psi, 10)
    for n in (1, 2, 5, 10):
        direct = state_entropy(evolved_state(u, psi, n))
        assert abs(curve[n - 1] - direct) < 1e-10


@given(st.integers(0, 2**32))
def test_entropy_series_bounded(seed):
    u = sample_cue(6, RandomStream(seed, 0), BipartiteDims(2, 3))
    psi = basis_product_state(BipartiteDims(2, 3))
    curve = entropy_curve(u, psi, 12)
    assert np.all(curve > -1e-12)
    assert np.all(curve < 1.0 - 1.0 / 2 + 1e-12)


def test_operator_entanglement_series_matches_direct_powers():
    # the oracle shares neither the synthesis nor the reduced-density kernel;
    # unequal and trivial factors catch a swapped index in the Choi rows
    for d_a, d_b in ((2, 3), (3, 4), (3, 2), (1, 4), (4, 1)):
        dims = BipartiteDims(d_a, d_b)
        u = cue(19, dims=dims)
        for n_max in (1, 8):
            curve = operator_curves(block_of(u), n_max)[0]
            assert curve.shape == (n_max,)
            for n in range(1, n_max + 1):
                un = UnitaryMatrix(dims, np.linalg.matrix_power(u.entries, n), EnsembleTag.FIXED)
                assert abs(curve[n - 1] - operator_entanglement_naive(un)) < 1e-10


def test_time_average_of_diagonal_map_is_zero():
    phases = RandomStream(5, 0).generator().uniform(0, 2 * np.pi, 20)
    u = diag_unitary(phases, DIMS45)
    assert time_average_entropy(u, basis_product_state(DIMS45), 1000) < 1e-12


def test_time_average_cauchy_convergence():
    u = cue(23)
    psi = basis_product_state(DIMS45)
    a = time_average_entropy(u, psi, 100_000)
    b = time_average_entropy(u, psi, 200_000)
    assert abs(a - b) < 1e-3


def test_asymptotic_matches_time_average_oracle():
    u = cue(29)
    psi = basis_product_state(DIMS45)
    spectral = asymptote(u, psi)
    direct = time_average_entropy(u, psi, 100_000)
    assert abs(spectral - direct) < 2e-3


def test_asymptotic_matches_time_average_with_larger_a_factor():
    # d_a > d_b: T^A and T^B differ in size, and the diagonal correction uses T^A only
    dims = BipartiteDims(5, 4)
    u = cue(29, dims=dims)
    psi = basis_product_state(dims)
    spectral = asymptote(u, psi)
    direct = time_average_entropy(u, psi, 100_000)
    # the direct average converges like 1/n_total: here within 1e-5
    assert abs(spectral - direct) < 1e-4


def test_asymptotic_matches_time_average_coe_random_real_state():
    stream = RandomStream(31, 0)
    u = sample_coe(20, stream, DIMS45)
    psi = product_state(random_state(4, FieldTag.REAL, stream),
                        random_state(5, FieldTag.REAL, stream))
    spectral = asymptote(u, psi)
    direct = time_average_entropy(u, psi, 100_000)
    assert abs(spectral - direct) < 1e-4


def test_asymptotic_of_diagonal_map_is_zero():
    phases = RandomStream(7, 0).generator().uniform(0, 2 * np.pi, 20)
    u = diag_unitary(phases, DIMS45)
    assert abs(asymptote(u, basis_product_state(DIMS45))) < 1e-12


def _swap(d):
    m = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            m[b * d + a, a * d + b] = 1.0
    return m


def haar_diagonal(phases, dims, seed):
    """diag(e^{i phases}) in the eigenbasis of a CUE draw."""
    z = cue(seed, dims=dims).entries
    return UnitaryMatrix(dims, (z * np.exp(1j * np.asarray(phases))) @ z.conj().T,
                         EnsembleTag.FIXED)


@pytest.mark.parametrize("phases", [
    [0.3, 0.3, 1.0, 2.0],
    [0.1, 0.5, 0.2, 0.4],  # 0.1 + 0.5 = 0.2 + 0.4: distinct phases, resonant pair sums
], ids=["degenerate", "fourth-order-resonance"])
def test_asymptotic_resonant_spectrum_matches_time_average(phases):
    dims = BipartiteDims(2, 2)
    u = haar_diagonal(phases, dims, 47)
    psi = random_state(4, FieldTag.COMPLEX, RandomStream(47, 1), dims=dims)
    # the direct average converges like 1/n_total: here within about 1e-5
    assert abs(asymptote(u, psi) - time_average_entropy(u, psi, 100_000)) < 1e-4


@pytest.mark.parametrize("entries", [np.eye(9), _swap(3)], ids=["identity", "swap"])
def test_asymptotic_exact_for_identity_and_swap(entries):
    # every iterate keeps S_L(psi) (SWAP turns rho_A into rho_B, of equal
    # purity), so that is the time average; the brute-force one drifts by
    # ~1e-12 over 1e5 steps as the roundoff in the phase pi accumulates
    dims = BipartiteDims(3, 3)
    u = UnitaryMatrix(dims, entries, EnsembleTag.FIXED)
    psi = random_state(9, FieldTag.COMPLEX, RandomStream(53, 0), dims=dims)
    assert state_entropy(psi) > 0.1  # entangled
    assert abs(asymptote(u, psi) - state_entropy(psi)) < 1e-12
    assert abs(asymptote(u, psi) - time_average_entropy(u, psi, 1_000)) < 1e-12


@pytest.mark.parametrize("ns", [range(1, 41), range(20_001, 20_101)], ids=["curve", "time-average-chunk"])
def test_phase_powers_match_exp(ns):
    # n = 1..2d of a 4x5 curve, and 100 steps of a chunk as time_average_entropy
    # takes them.  Phases of at most 38 significant bits make n phi exact for
    # n < 2^15, so that np.exp(1j n phi) is accurate to roundoff at every n here
    top = int(2 * np.pi * 2**35)
    m = RandomStream(59, 0).generator().integers(0, top, size=(3, 20))
    m[0, :2] = 0, top - 1
    phases = m / 2.0**35
    powers = dynamics._phase_powers(phases, ns)
    assert powers.shape == (3, 20, len(ns))
    exact = np.exp(1j * (phases[..., None] * np.arange(ns.start, ns.stop)))
    assert np.max(np.abs(powers - exact)) < 1e-13


def test_form_factor_identity():
    u = UnitaryMatrix(DIMS45, np.eye(20), EnsembleTag.FIXED)
    assert abs(form_factors(block_of(u).phases, 3)[0, 2] - 400.0) < 1e-9


def test_form_factor_matches_trace_of_powers():
    u = cue(37)
    block = block_of(u)
    curve = form_factors(block.phases, 10)[0]
    for n in (1, 2, 7, 10):
        t = np.trace(matrix_power(block, n)[0])
        assert abs(curve[n - 1] - abs(t) ** 2) < 1e-8
        t_direct = np.trace(np.linalg.matrix_power(u.entries, n))
        assert abs(curve[n - 1] - abs(t_direct) ** 2) < 1e-8


@pytest.mark.parametrize("entries", [
    np.eye(4),
    _swap(2),
    np.diag(np.exp(1j * np.array([0.1, 2.0, 2.0, 5.0]))),
    np.diag(np.exp(1j * np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]))),
], ids=["identity", "swap", "diagonal-degenerate", "diagonal-quarter-turns"])
@pytest.mark.parametrize("symmetric", [False, True], ids=["complex", "real"])
def test_decompose_special_unitaries(entries, symmetric):
    block = decompose_block(entries[None].astype(np.complex128), BipartiteDims(2, 2), symmetric)
    assert block.residuals[0] < 1e-10
    z = block.vectors[0]
    assert np.max(np.abs(z @ z.conj().T - np.eye(4))) < 1e-12
    assert np.allclose(np.sort(block.phases[0]), np.sort(np.mod(np.angle(np.linalg.eigvals(entries)),
                                                                2 * np.pi)), atol=1e-12)


def test_decompose_redoes_a_shared_eigenvalue_by_schur():
    # phi_1,2 = theta +- 0.7 with theta = atan(c) give H + cK one
    # eigenvalue for two eigenvectors of U, which eigh then mixes
    theta = np.arctan(dynamics._EIGH_MIX)
    phases = np.array([theta + 0.7, theta - 0.7, 2.0, 4.0])
    z = cue(3, dims=BipartiteDims(2, 2)).entries
    u = (z * np.exp(1j * phases)) @ z.conj().T
    block = decompose_block(np.stack([u, z]), BipartiteDims(2, 2))
    assert block.redos == 1
    assert np.all(block.residuals < 1e-10)
    assert np.allclose(np.sort(block.phases[0]), np.sort(np.mod(phases, 2 * np.pi)), atol=1e-10)


def test_decompose_block_matches_one_at_a_time():
    for symmetric, sampler in ((False, sample_cue), (True, sample_coe)):
        us = [sampler(20, RandomStream(43, i), DIMS45) for i in range(5)]
        block = decompose_block(np.stack([u.entries for u in us]), DIMS45, symmetric)
        for i, u in enumerate(us):
            one = decompose_block(u.entries[None], DIMS45, symmetric)
            assert np.array_equal(block.phases[i], one.phases[0])
            assert np.array_equal(block.vectors[i], one.vectors[0])


@pytest.mark.parametrize("curves", [
    lambda block: entropy_curves(block, basis_product_state(DIMS45).amplitudes[None], 0),
    lambda block: operator_curves(block, 0),
    lambda block: form_factors(block.phases, 0),
], ids=["entropy", "operator", "form-factor"])
def test_curves_reject_n_max_below_one(curves):
    with pytest.raises(ValueError, match="n_max"):
        curves(block_of(cue(3)))
