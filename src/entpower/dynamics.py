"""Iterated dynamics U^n psi through the eigenphase decomposition.

A unitary is normal, so its (complex) Schur form is already diagonal:
U = Z diag(e^{i phi}) Z^dag with Z unitary.  Powers act on the phases
alone, which makes the whole trajectory n = 1..n_max one dense matrix
product, and gives closed access to the n -> infinity time average of
the linear entropy via second-order phase resonances.

One synthesis serves states and operators: a trajectory is
sum_k basis_k c_k e^{i n phi_k}.  States take the eigenvectors z_k with
c_k = <z_k|psi>; operators take the Choi vectors of the eigenprojectors
|z_k><z_k| with c_k = 1/sqrt(d), which gives vec(U^n) / sqrt(d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ensembles import BipartiteDims, EnsembleTag, PureState, UnitaryMatrix
from .entanglement import _b_major, _reshuffled, purity_batch, reduced_density_batch

__all__ = [
    "DegenerateSpectrumError",
    "SpectralDecomposition",
    "EntropySeries",
    "spectral_decompose",
    "matrix_power",
    "entropy_series",
    "operator_entanglement_series",
    "time_average_entropy",
    "asymptotic_entropy_spectral",
    "form_factor",
    "form_factor_series",
]

_TWO_PI = 2.0 * np.pi
_RESIDUAL_TOL = 1e-10
_RESONANCE_TOL = 1e-9
_TIME_AVERAGE_CHUNK = 20_000


class DegenerateSpectrumError(ValueError):
    """Eigenphases too close, or a fourth-order phase resonance.

    The infinite-time average of the linear entropy keeps exactly the
    terms with phi_a + phi_b = phi_c + phi_d (mod 2pi).  The closed
    formula assumes only the trivial solutions {a, b} = {c, d} survive;
    when some nontrivial combination is resonant (or phases are
    degenerate so pairings merge) that assumption fails and the caller
    must fall back to an explicit long-time average.
    """


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenphases and eigenvectors of a unitary.

    phases[k] in [0, 2pi) and vectors[:, k] satisfy
    U vectors[:, k] = exp(i phases[k]) vectors[:, k]; vectors is unitary.
    """

    dims: BipartiteDims
    phases: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        z = self.vectors
        return (z * np.exp(1j * self.phases)) @ z.conj().T


def spectral_decompose(u: UnitaryMatrix) -> SpectralDecomposition:
    """Diagonalize a unitary with orthonormal eigenvectors.

    Uses the complex Schur form (triangular T is diagonal up to
    roundoff for normal input), which keeps Z unitary to machine
    precision where a generic eigensolver would not.  Raises
    LinAlgError if the reconstruction misses U by more than 1e-10.
    """
    t, z = scipy.linalg.schur(u.entries, output="complex", check_finite=False)
    phases = np.mod(np.angle(np.diagonal(t)), _TWO_PI)
    # np.mod can round a tiny negative angle up to exactly 2pi
    phases[phases >= _TWO_PI] = 0.0
    spec = SpectralDecomposition(u.dims, phases, z)
    defect = np.max(np.abs(spec.reconstruct() - u.entries))
    if defect > _RESIDUAL_TOL:
        raise np.linalg.LinAlgError(f"spectral reconstruction residual {defect:.3e} > {_RESIDUAL_TOL}")
    return spec


def _synthesize(basis: np.ndarray, phases: np.ndarray, coeffs: np.ndarray,
                ns: np.ndarray) -> np.ndarray:
    """sum_k basis[..., k] coeffs[k] e^{i n phases[k]}, one per n in ns along the last axis."""
    return basis @ (np.exp(1j * np.outer(phases, ns)) * coeffs[:, None])


def _projectors(spec: SpectralDecomposition) -> np.ndarray:
    """Eigenprojectors |z_k><z_k| stacked along the last axis, shape (d, d, d)."""
    z = spec.vectors
    return z[:, None, :] * z.conj()[None, :, :]


def matrix_power(spec: SpectralDecomposition, n: int) -> UnitaryMatrix:
    """U^n synthesized from the eigenbasis, sum_a e^{i n phi_a} |z_a><z_a|.

    vec(U^n) comes from the shared synthesis over the vectorized
    eigenprojectors, O(d^3) per power after one decomposition; repeated
    direct multiplication (numpy matrix_power) is the oracle this is
    checked against, not the implementation.
    """
    if n < 0:
        raise ValueError(f"power must be >= 0, got {n}")
    d = spec.dims.d
    vec_un = _synthesize(_projectors(spec).reshape(d * d, d), spec.phases, np.ones(d), np.array([n]))
    return UnitaryMatrix(spec.dims, vec_un.reshape(d, d), EnsembleTag.FIXED)


@dataclass(eq=False)
class EntropySeries:
    """Linear entropies along a trajectory, values[k] at step n = ns[k]."""

    ns: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.ns = np.asarray(self.ns, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.ns.shape != self.values.shape or self.ns.ndim != 1:
            raise ValueError("ns and values must be matching 1d arrays")


def _state_orbit(spec: SpectralDecomposition, psi: PureState, ns: np.ndarray) -> np.ndarray:
    """Columns U^n psi for each n in ns, shape (d, len(ns))."""
    return _synthesize(spec.vectors, spec.phases, spec.vectors.conj().T @ psi.amplitudes, ns)


def entropy_series(u: UnitaryMatrix, psi: PureState, n_max: int) -> EntropySeries:
    """S_L(U^n psi) for n = 1..n_max, one synthesis of the whole orbit."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if psi.dims != u.dims:
        raise ValueError(f"state dims {psi.dims} do not match unitary dims {u.dims}")
    spec = spectral_decompose(u)
    ns = np.arange(1, n_max + 1)
    values = 1.0 - purity_batch(_state_orbit(spec, psi, ns), u.dims.d_a, u.dims.d_b)
    return EntropySeries(ns, values)


def operator_entanglement_series(u: UnitaryMatrix, n_max: int) -> EntropySeries:
    """Operator entanglement of U^n for n = 1..n_max.

    Decomposes once and synthesizes the Choi vectors vec(U^n) / sqrt(d)
    of every power from the reshuffled eigenprojectors, the same route
    the entropy series takes for states; their linear entropies across
    (A_out A_in | B_out B_in) are the operator entanglements.  Memory is
    O(d^3 + d^2 n_max): d projector columns and n_max Choi columns, each
    of length d^2.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    spec = spectral_decompose(u)
    d_a, d_b, d = u.dims.d_a, u.dims.d_b, u.dims.d
    ns = np.arange(1, n_max + 1)
    # stacked over (a1 a2): one (d^2, d) x (d, n_max) product is large
    # enough at d = 20 for OpenBLAS to wake its threads, which then spin
    # between calls and double the CPU time for no wall-time gain
    basis = _reshuffled(_projectors(spec), d_a, d_b).reshape(d_a * d_a, d_b * d_b, d)
    choi = _synthesize(basis, spec.phases, np.full(d, d ** -0.5), ns).reshape(d * d, n_max)
    return EntropySeries(ns, 1.0 - purity_batch(choi, d_a * d_a, d_b * d_b))


def time_average_entropy(u: UnitaryMatrix, psi: PureState, n_total: int = 100_000) -> float:
    """Brute-force mean of S_L(U^n psi) over n = 1..n_total.

    Converges to the infinite-time average like 1/n_total (the partial
    sums of the oscillating terms stay bounded).  This is the fallback
    when :func:`asymptotic_entropy_spectral` rejects the spectrum, and
    the oracle it is verified against.
    """
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    if psi.dims != u.dims:
        raise ValueError(f"state dims {psi.dims} do not match unitary dims {u.dims}")
    spec = spectral_decompose(u)
    d_a, d_b = u.dims.d_a, u.dims.d_b
    total = 0.0
    for start in range(1, n_total + 1, _TIME_AVERAGE_CHUNK):
        ns = np.arange(start, min(start + _TIME_AVERAGE_CHUNK, n_total + 1))
        total += float(np.sum(1.0 - purity_batch(_state_orbit(spec, psi, ns), d_a, d_b)))
    return total / n_total


def _check_nonresonant(phases: np.ndarray) -> None:
    d = len(phases)
    if d < 2:
        return
    s = np.sort(phases)
    gaps = np.diff(s)
    wrap = s[0] + _TWO_PI - s[-1]
    if min(gaps.min(), wrap) < _RESONANCE_TOL:
        raise DegenerateSpectrumError(
            f"eigenphase spacing below {_RESONANCE_TOL}; time average has no closed pairing form")
    # pairwise sums phi_a + phi_b (a <= b): a coincidence mod 2pi is a
    # fourth-order resonance and also breaks the pairing argument
    iu, ju = np.triu_indices(d)
    sums = np.sort(np.mod(phases[iu] + phases[ju], _TWO_PI))
    gaps2 = np.diff(sums)
    wrap2 = sums[0] + _TWO_PI - sums[-1]
    if min(gaps2.min(), wrap2) < _RESONANCE_TOL:
        raise DegenerateSpectrumError(
            f"fourth-order phase resonance within {_RESONANCE_TOL}; falling back is required")


def asymptotic_entropy_spectral(u: UnitaryMatrix, psi: PureState) -> float:
    """Infinite-time average of S_L(U^n psi) from the eigenphase pairing.

    With U = sum_a e^{i phi_a} |z_a><z_a| and p_a = |<z_a|psi>|^2, the
    time average of tr rho_A(n)^2 keeps only the phase-matched pairings
    (a, b) vs (a, b) and (a, b) vs (b, a), giving

        <S_L> = 1 - sum_ab p_a p_b (T^A_ab + T^B_ab) + sum_a p_a^2 T^A_aa

    where T^A_ab = tr(rho_A^a rho_A^b) for the eigenvector reduced
    density matrices, and likewise for B.  Each T is the Gram matrix
    of the flattened (Hermitian) rho^a.  The diagonal correction
    removes the double count of the a = b pairing (T^A_aa = T^B_aa).
    Requires a nondegenerate, nonresonant spectrum.
    """
    if psi.dims != u.dims:
        raise ValueError(f"state dims {psi.dims} do not match unitary dims {u.dims}")
    spec = spectral_decompose(u)
    _check_nonresonant(spec.phases)
    d_a, d_b, d = u.dims.d_a, u.dims.d_b, u.dims.d
    z = spec.vectors
    p = np.abs(z.conj().T @ psi.amplitudes) ** 2
    rho_a = reduced_density_batch(z, d_a, d_b).reshape(d, -1)
    rho_b = reduced_density_batch(_b_major(z, d_a, d_b), d_b, d_a).reshape(d, -1)
    t_a = (rho_a @ rho_a.conj().T).real
    t_b = (rho_b @ rho_b.conj().T).real
    avg_purity = p @ (t_a + t_b) @ p - np.dot(p * p, np.diagonal(t_a))
    return float(1.0 - avg_purity)


def form_factor(u: UnitaryMatrix, n: int) -> float:
    """Spectral form factor |tr U^n|^2 from the eigenphases."""
    if n < 0:
        raise ValueError(f"power must be >= 0, got {n}")
    phases = np.angle(np.linalg.eigvals(u.entries))
    return float(np.abs(np.sum(np.exp(1j * n * phases))) ** 2)


def form_factor_series(u: UnitaryMatrix, n_max: int) -> np.ndarray:
    """|tr U^n|^2 for n = 1..n_max, shape (n_max,)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    phases = np.angle(np.linalg.eigvals(u.entries))
    traces = np.sum(np.exp(1j * np.outer(np.arange(1, n_max + 1), phases)), axis=1)
    return np.abs(traces) ** 2
