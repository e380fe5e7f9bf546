import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entpower
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
    PhiloxStreams,
    basis_product_state,
    sample_block,
)
from entpower.entanglement import purity_batch

from oracles import (
    asymptotic_entropy_gram,
    operator_entanglement_naive,
    stream,
    time_average_entropy,
    unit_vector,
)

DIMS45 = BipartiteDims(4, 5)


def diag_unitary(phases):
    return np.diag(np.exp(1j * np.asarray(phases)))


def draws(ensemble, seed, first=0, count=1, dims=DIMS45):
    """Unitaries of samples first, first+1, ... of master seed `seed`, from the run's sampler."""
    return sample_block(ensemble, dims, None, PhiloxStreams(seed), first, count)[0]


def cue(seed, idx=0, dims=DIMS45):
    return draws(EnsembleTag.CUE, seed, idx, 1, dims)[0]


def block_of(u, dims=DIMS45, symmetric=False):
    """The decomposition of one unitary, a block of one; a COE draw takes symmetric=True."""
    return decompose_block(np.asarray(u, dtype=np.complex128)[None], dims, symmetric)


def state_entropy(psi, dims=DIMS45):
    return 1.0 - purity_batch(psi[:, None], dims.d_a, dims.d_b)[0]


def entropy_curve(u, psi, n_max, dims=DIMS45):
    return entropy_curves(block_of(u, dims), psi[None], n_max)[0]


def asymptote(u, psi, dims=DIMS45, symmetric=False):
    return asymptotic_entropies(block_of(u, dims, symmetric), psi[None])[0][0]


def evolved_state(u, psi, n):
    amps = np.linalg.matrix_power(u, n) @ psi
    return amps / np.linalg.norm(amps)


def test_spectral_decompose_diagonal_case():
    block = block_of(diag_unitary([0.0, np.pi / 2]), BipartiteDims(2, 1))
    assert np.allclose(np.sort(block.phases[0]), [0.0, np.pi / 2], atol=1e-12)
    # eigenvectors of a diagonal matrix: standard basis up to order/phase
    assert np.allclose(np.sort(np.abs(block.vectors[0]).ravel()), [0, 0, 1, 1], atol=1e-12)


def test_spectral_reconstruction_contract():
    for idx in range(5):
        u = cue(41, idx)
        block = block_of(u)
        assert np.max(np.abs(matrix_power(block, 1)[0] - u)) < 1e-10
        z = block.vectors[0]
        assert np.max(np.abs(z @ z.conj().T - np.eye(20))) < 1e-10
        assert np.all(block.phases >= 0.0) and np.all(block.phases < 2 * np.pi)


def test_eigenphase_level_repulsion():
    # CUE spacings repel: far fewer tiny gaps than a Poisson spectrum
    d, samples = 8, 10_000
    cutoff = 0.1 * (2 * np.pi / d)
    small = 0
    dims = BipartiteDims(d, 1)
    phases = decompose_block(draws(EnsembleTag.CUE, 59, count=samples, dims=dims), dims).phases
    for s in np.sort(phases):
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
    assert np.max(np.abs(matrix_power(block, 1)[0] - u)) < 1e-10
    with pytest.raises(ValueError):
        matrix_power(block, -1)


def test_matrix_power_matches_direct_multiplication():
    u = cue(11)
    direct = np.linalg.matrix_power(u, 7)
    assert np.max(np.abs(matrix_power(block_of(u), 7)[0] - direct)) < 1e-8


@given(st.integers(0, 2**32), st.integers(0, 20), st.integers(0, 20))
def test_matrix_power_additivity(seed, m, n):
    dims = BipartiteDims(2, 3)
    block = block_of(cue(seed, dims=dims), dims)
    lhs = matrix_power(block, m + n)[0]
    rhs = matrix_power(block, m)[0] @ matrix_power(block, n)[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_matrix_power_unitary_at_long_times():
    u200 = matrix_power(block_of(cue(13)), 200)[0]
    assert np.max(np.abs(u200 @ u200.conj().T - np.eye(20))) < 1e-9


def test_entropy_series_swap_keeps_product_states():
    dims = BipartiteDims(2, 2)
    m = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            m[b * 2 + a, a * 2 + b] = 1.0
    psi = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128)  # |0>_A |1>_B
    assert np.max(np.abs(entropy_curve(m, psi, 6, dims))) < 1e-12


def test_entropy_series_diagonal_map_never_entangles():
    phases = stream(3, 0).uniform(0, 2 * np.pi, 20)
    u = diag_unitary(phases)
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
    dims = BipartiteDims(2, 3)
    curve = entropy_curve(cue(seed, dims=dims), basis_product_state(dims), 12, dims)
    assert np.all(curve > -1e-12)
    assert np.all(curve < 1.0 - 1.0 / 2 + 1e-12)


def test_operator_entanglement_series_matches_direct_powers():
    # the oracle shares neither the synthesis nor the reduced-density kernel;
    # unequal and trivial factors catch a swapped index in the Choi rows
    for d_a, d_b in ((2, 3), (3, 4), (3, 2), (1, 4), (4, 1)):
        dims = BipartiteDims(d_a, d_b)
        u = cue(19, dims=dims)
        for n_max in (1, 8):
            curve = operator_curves(block_of(u, dims), n_max)[0]
            assert curve.shape == (n_max,)
            for n in range(1, n_max + 1):
                un = np.linalg.matrix_power(u, n)
                assert abs(curve[n - 1] - operator_entanglement_naive(un, dims)) < 1e-10


def test_time_average_of_diagonal_map_is_zero():
    phases = stream(5, 0).uniform(0, 2 * np.pi, 20)
    u = diag_unitary(phases)
    assert time_average_entropy(u, basis_product_state(DIMS45), DIMS45, 1000) < 1e-12


def test_time_average_cauchy_convergence():
    u = cue(23)
    psi = basis_product_state(DIMS45)
    a = time_average_entropy(u, psi, DIMS45, 100_000)
    b = time_average_entropy(u, psi, DIMS45, 200_000)
    assert abs(a - b) < 1e-3


def test_asymptotic_matches_time_average_oracle():
    u = cue(29)
    psi = basis_product_state(DIMS45)
    spectral = asymptote(u, psi)
    direct = time_average_entropy(u, psi, DIMS45, 100_000)
    assert abs(spectral - direct) < 2e-3


def test_asymptotic_matches_time_average_with_larger_a_factor():
    # d_a > d_b: T^A and T^B differ in size, and the diagonal correction uses T^A only
    dims = BipartiteDims(5, 4)
    u = cue(29, dims=dims)
    psi = basis_product_state(dims)
    spectral = asymptote(u, psi, dims)
    direct = time_average_entropy(u, psi, dims, 100_000)
    # the direct average converges like 1/n_total: here within 1e-5
    assert abs(spectral - direct) < 1e-4


def test_asymptotic_matches_time_average_coe_random_real_state():
    u, psi = sample_block(EnsembleTag.COE, DIMS45, FieldTag.REAL, PhiloxStreams(31), 0, 1)
    spectral = asymptote(u[0], psi[0], symmetric=True)
    direct = time_average_entropy(u[0], psi[0], DIMS45, 100_000, symmetric=True)
    assert abs(spectral - direct) < 1e-4


@pytest.mark.parametrize("d_a,d_b", [(1, 3), (3, 1), (2, 2), (2, 3), (5, 4), (4, 5)])
@pytest.mark.parametrize("ensemble,field_tag", [
    (EnsembleTag.CUE, FieldTag.COMPLEX),
    (EnsembleTag.COE, FieldTag.REAL),
    (EnsembleTag.COE, FieldTag.COMPLEX),
], ids=["cue-complex", "coe-real", "coe-complex"])
def test_asymptotic_matches_gram_oracle(ensemble, field_tag, d_a, d_b):
    # the purities of the purification against the eigenvectors' Gram matrices,
    # on blocks whose pair sums are all distinct
    dims = BipartiteDims(d_a, d_b)
    u, states = sample_block(ensemble, dims, field_tag, PhiloxStreams(61), 0, 16)
    block = decompose_block(u, dims, symmetric=ensemble is EnsembleTag.COE)
    values, resonant = asymptotic_entropies(block, states)
    assert not resonant.any()
    assert np.max(np.abs(values - asymptotic_entropy_gram(block.vectors, states, dims))) < 1e-13


def test_asymptotic_of_diagonal_map_is_zero():
    phases = stream(7, 0).uniform(0, 2 * np.pi, 20)
    u = diag_unitary(phases)
    assert abs(asymptote(u, basis_product_state(DIMS45))) < 1e-12


def _swap(d):
    m = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            m[b * d + a, a * d + b] = 1.0
    return m


def haar_diagonal(phases, dims, seed):
    """diag(e^{i phases}) in the eigenbasis of a CUE draw."""
    z = cue(seed, dims=dims)
    return (z * np.exp(1j * np.asarray(phases))) @ z.conj().T


@pytest.mark.parametrize("phases", [
    [0.3, 0.3, 1.0, 2.0],
    [0.1, 0.5, 0.2, 0.4],  # 0.1 + 0.5 = 0.2 + 0.4: distinct phases, resonant pair sums
], ids=["degenerate", "fourth-order-resonance"])
def test_asymptotic_resonant_spectrum_matches_time_average(phases):
    dims = BipartiteDims(2, 2)
    u = haar_diagonal(phases, dims, 47)
    psi = unit_vector(stream(47, 1), 4, FieldTag.COMPLEX)
    # the direct average converges like 1/n_total: here within about 1e-5
    assert abs(asymptote(u, psi, dims) - time_average_entropy(u, psi, dims, 100_000)) < 1e-4


@pytest.mark.parametrize("entries", [np.eye(9), _swap(3)], ids=["identity", "swap"])
def test_asymptotic_exact_for_identity_and_swap(entries):
    # every iterate keeps S_L(psi) (SWAP turns rho_A into rho_B, of equal
    # purity), so that is the time average; the brute-force one drifts by
    # ~1e-12 over 1e5 steps as the roundoff in the phase pi accumulates
    dims = BipartiteDims(3, 3)
    psi = unit_vector(stream(53, 0), 9, FieldTag.COMPLEX)
    assert state_entropy(psi, dims) > 0.1  # entangled
    spectral = asymptote(entries, psi, dims)
    assert abs(spectral - state_entropy(psi, dims)) < 1e-12
    assert abs(spectral - time_average_entropy(entries, psi, dims, 1_000)) < 1e-12


@pytest.mark.parametrize("ns", [range(1, 41), range(20_001, 20_101)], ids=["curve", "time-average-chunk"])
def test_phase_powers_match_exp(ns):
    # n = 1..2d of a 4x5 curve, and 100 steps of a chunk as time_average_entropy
    # takes them.  Phases of at most 38 significant bits make n phi exact for
    # n < 2^15, so that np.exp(1j n phi) is accurate to roundoff at every n here
    top = int(2 * np.pi * 2**35)
    m = stream(59, 0).integers(0, top, size=(3, 20))
    m[0, :2] = 0, top - 1
    phases = m / 2.0**35
    powers = dynamics._phase_powers(phases, ns)
    assert powers.shape == (3, 20, len(ns))
    exact = np.exp(1j * (phases[..., None] * np.arange(ns.start, ns.stop)))
    assert np.max(np.abs(powers - exact)) < 1e-13


def test_form_factor_identity():
    assert abs(form_factors(block_of(np.eye(20)).phases, 3)[0, 2] - 400.0) < 1e-9


def test_form_factor_matches_trace_of_powers():
    u = cue(37)
    block = block_of(u)
    curve = form_factors(block.phases, 10)[0]
    for n in (1, 2, 7, 10):
        t = np.trace(matrix_power(block, n)[0])
        assert abs(curve[n - 1] - abs(t) ** 2) < 1e-8
        t_direct = np.trace(np.linalg.matrix_power(u, n))
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


def resonant_unitaries(symmetric):
    """A stack of two unitaries on 2x2 whose first shares an eigenvalue of the first eigh.

    phi_1,2 = theta +- 0.7 with theta = atan(c) give H + cK (Re U + c Im U
    for the COE form O diag(e^{i phi}) O^T, O real orthogonal) one
    eigenvalue for two eigenvectors of U, which eigh then mixes.  The
    second unitary is a plain draw of the same form.  Returns the stack
    and the first one's phases.
    """
    theta = np.arctan(dynamics._EIGH_MIX)
    phases = np.array([theta + 0.7, theta - 0.7, 2.0, 4.0])
    if symmetric:
        z = np.linalg.qr(stream(3, 0).standard_normal((4, 4)))[0]
        other = draws(EnsembleTag.COE, 3, first=1, dims=BipartiteDims(2, 2))[0]
    else:
        z = cue(3, dims=BipartiteDims(2, 2))
        other = z
    u = (z * np.exp(1j * phases)) @ z.conj().T
    return np.stack([u, other]), phases


@pytest.mark.parametrize("symmetric", [False, True], ids=["complex", "real"])
def test_decompose_redoes_a_shared_eigenvalue(symmetric):
    entries, phases = resonant_unitaries(symmetric)
    block = decompose_block(entries, BipartiteDims(2, 2), symmetric)
    assert block.redos == 1
    assert block.vectors.dtype == (np.float64 if symmetric else np.complex128)
    assert np.all(block.residuals < 1e-10)
    assert np.allclose(np.sort(block.phases[0]), np.sort(np.mod(phases, 2 * np.pi)), atol=1e-10)


def coe_block(seed, count=4, dims=DIMS45):
    """A block of COE draws and random real product states, through the run's sampler."""
    u, states = sample_block(EnsembleTag.COE, dims, FieldTag.REAL, PhiloxStreams(seed), 0, count)
    return decompose_block(u, dims, symmetric=True), u, states


def test_symmetric_block_vectors_are_real_orthogonal():
    for seed in range(3):
        block, u, _ = coe_block(seed, count=16)
        o = block.vectors
        assert o.dtype == np.float64
        assert np.max(np.abs(o.swapaxes(-1, -2) @ o - np.eye(20))) < 1e-12
        assert np.max(np.abs(u @ o - o * np.exp(1j * block.phases)[:, None, :])) < 1e-10


def test_kernels_take_a_real_block_as_its_complex_copy():
    # the real route of every kernel against the complex one on the same phases
    # and the same vectors cast to complex128
    block, _, real_states = coe_block(7)
    complex_copy = dynamics.SpectralBlock(block.dims, block.phases,
                                          block.vectors.astype(np.complex128), block.residuals,
                                          block.redos)
    complex_states = np.stack([unit_vector(stream(7, i), 20, FieldTag.COMPLEX) for i in range(4)])
    for states in (real_states, complex_states):
        for a, b in zip(asymptotic_entropies(block, states),
                        asymptotic_entropies(complex_copy, states)):
            assert np.array_equal(a, b)
        assert np.max(np.abs(entropy_curves(block, states, 12)
                             - entropy_curves(complex_copy, states, 12))) < 1e-14
    assert np.max(np.abs(operator_curves(block, 6) - operator_curves(complex_copy, 6))) < 1e-14
    assert np.max(np.abs(form_factors(block.phases, 6)
                         - form_factors(complex_copy.phases, 6))) < 1e-14
    for n in (0, 1, 7):
        assert np.max(np.abs(matrix_power(block, n) - matrix_power(complex_copy, n))) < 1e-14


def test_pair_indices_are_cached_read_only():
    for d, offset in ((20, 0), (20, 1), (1, 1)):
        pairs = dynamics._pairs(d, offset)
        assert dynamics._pairs(d, offset) is pairs
        assert all(np.array_equal(p, q) for p, q in zip(pairs, np.triu_indices(d, offset)))
        assert not any(p.flags.writeable for p in pairs)


def test_run_path_never_imports_scipy_linalg(tmp_path):
    # the CLI, a run and a redo, in a fresh process: scipy.linalg and its
    # OpenBLAS stay out of it
    entries, _ = resonant_unitaries(False)
    np.save(tmp_path / "resonant.npy", entries)
    script = tmp_path / "run_path.py"
    script.write_text(textwrap.dedent("""\
        import sys
        import numpy as np
        import entpower
        import entpower.cli
        from entpower.dynamics import decompose_block
        from entpower.ensembles import BipartiteDims
        argv = ["ep-curve", "--da", "2", "--db", "3", "--nmax", "4", "--samples", "40",
                "--out", "curve.csv"]
        assert entpower.cli.main(argv) == 0
        assert decompose_block(np.load("resonant.npy"), BipartiteDims(2, 2)).redos == 1
        assert "scipy.linalg" not in sys.modules
        """))
    src = str(Path(entpower.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_decompose_block_matches_one_at_a_time():
    for ensemble, symmetric in ((EnsembleTag.CUE, False), (EnsembleTag.COE, True)):
        us = draws(ensemble, 43, count=5)
        block = decompose_block(us, DIMS45, symmetric)
        for i, u in enumerate(us):
            one = decompose_block(u[None], DIMS45, symmetric)
            assert np.array_equal(block.phases[i], one.phases[0])
            assert np.array_equal(block.vectors[i], one.vectors[0])


@pytest.mark.parametrize("curves", [
    lambda block: entropy_curves(block, basis_product_state(DIMS45)[None], 0),
    lambda block: operator_curves(block, 0),
    lambda block: form_factors(block.phases, 0),
], ids=["entropy", "operator", "form-factor"])
def test_curves_reject_n_max_below_one(curves):
    with pytest.raises(ValueError, match="n_max"):
        curves(block_of(cue(3)))


def kernel_results(seed):
    """Each block kernel's results on one block of three CUE draws and random states."""
    block = decompose_block(draws(EnsembleTag.CUE, seed, count=3), DIMS45)
    states = np.stack([unit_vector(stream(seed, 10 + i), 20, FieldTag.COMPLEX) for i in range(3)])
    return [entropy_curves(block, states, 6), operator_curves(block, 6),
            purity_batch(states.T, 4, 5), *asymptotic_entropies(block, states)]


def test_kernel_results_never_share_scratch_memory():
    # the kernels reuse per-thread scratch arrays: no result may be one,
    # and a call on another block leaves the last call's results alone
    first = kernel_results(1)
    kept = [r.copy() for r in first]
    second = kernel_results(2)
    for a, b, before in zip(first, second, kept):
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, before)
    # two threads at once compute what one thread does
    results, errors = {}, []

    def run(name):
        try:
            results[name] = [kernel_results(seed) for seed in (1, 2) * 5]
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(name,)) for name in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    for runs in results.values():
        for got, want in zip(runs, [first, second] * 5):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
