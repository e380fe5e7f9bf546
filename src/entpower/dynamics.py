"""Iterated dynamics U^n psi through the eigenphase decomposition.

A unitary is normal: U = Z diag(e^{i phi}) Z^dag with Z unitary.  Its
Hermitian and anti-Hermitian parts H = (U + U^dag)/2 and
K = (U - U^dag)/2i commute, so one Hermitian eigensolver call on
H + cK (c a fixed irrational) yields Z, and the phases are read off
diag(Z^dag U Z).  A symmetric (COE) U has real commuting parts Re U and
Im U, and takes one real eigensolver call, whose eigenvectors stay
real: U = O diag(e^{i phi}) O^T with O real orthogonal (float64), so
that the phase and reconstruction products, and the asymptote's
reduced densities and Gram matrices, run in real arithmetic.  Every
decomposition is checked by its reconstruction; the rare one that
fails (two phases with cos(phi_a - theta) = cos(phi_b - theta),
theta = atan c, share an eigenvalue of H + cK) is redone by a second
eigh, of the Hermitian part of e^{-i theta} U with theta moved into
the widest gap of the pair half-sums (phi_a + phi_b) / 2 mod pi, where
no two distinct phases share an eigenvalue.  Powers act on the phases
alone, which makes the whole trajectory n = 1..n_max one dense matrix
product, and gives closed access to the n -> infinity time average of
the linear entropy by matching pair sums of phases.

Work runs on blocks: a :class:`SpectralBlock` holds the decompositions
of a stack of unitaries, and the observables (entropy curves, operator
curves, asymptotic averages, form factors) take a block.  A single
unitary ``u`` is a stack of one, ``decompose_block(u[None], dims)``.

The curves take every e^{i n phi_k} from :func:`_phase_powers`.
States synthesise orbit columns, U^n psi = sum_k z_k <z_k|psi>
e^{i n phi_k}, one column per n, stacked over the block.  Operators
synthesise the Choi vectors vec(U^n) / sqrt(d) n-major, one row per n,
as the weights e^{i n phi_k} / sqrt(d) times the Choi rows of the
eigenprojectors |z_k><z_k|, so that their purities take BLAS.
:func:`matrix_power` reconstructs one power of every unitary of a block,
U^n = Z e^{i n phi} Z^dag.  The curves keep the power table, the orbits
and the Choi rows and product in the calling thread's scratch arrays,
reused from block to block, and return fresh arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ensembles import BipartiteDims
from .entanglement import _b_major, _scratch, purity_batch, reduced_density_batch

__all__ = [
    "SpectralBlock",
    "decompose_block",
    "matrix_power",
    "entropy_curves",
    "operator_curves",
    "asymptotic_entropies",
    "form_factors",
]

_TWO_PI = 2.0 * np.pi
_RESIDUAL_TOL = 1e-10
_RESONANCE_TOL = 1e-9
# c of eigh(H + cK).  Two phases share an eigenvalue of H + cK when
# phi_a + phi_b = 2 atan(c) (mod 2pi); an irrational c keeps that off
# the simple multiples of pi that permutations and test gates carry
_EIGH_MIX = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(eq=False)
class SpectralBlock:
    """Decompositions of a stack of k unitaries on one bipartition.

    phases (k, d) in [0, 2pi) and unitary vectors (k, d, d), one row
    per unitary: U vectors[i][:, j] = exp(i phases[i, j]) vectors[i][:, j].
    vectors is complex128 for a general U and real orthogonal float64 O
    for a symmetric one (decompose_block with symmetric=True), where
    U = O diag(e^{i phi}) O^T.
    residuals (k,) holds each max |Z e^{i phi} Z^dag - U|, and redos
    counts the unitaries the first eigh left short and a second one decomposed.
    """

    dims: BipartiteDims
    phases: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    redos: int


def _phases(diagonal: np.ndarray) -> np.ndarray:
    phases = np.mod(np.angle(diagonal), _TWO_PI)
    # np.mod can round a tiny negative angle up to exactly 2pi
    phases[phases >= _TWO_PI] = 0.0
    return phases


def _reconstruct(phases: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Z diag(e^{i phi}) Z^dag, for one unitary or a stack.

    A real Z (orthogonal O) takes one real product, O times the float64
    view of e^{i phi} O^T.
    """
    if z.dtype == np.float64:
        scaled = np.multiply(np.exp(1j * phases)[..., :, None], z.swapaxes(-1, -2), order="C")
        return (z @ scaled.view(np.float64)).view(np.complex128)
    return (z * np.exp(1j * phases)[..., None, :]) @ z.conj().swapaxes(-1, -2)


def _residuals(entries: np.ndarray, phases: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.max(np.abs(_reconstruct(phases, z) - entries), axis=(-2, -1))


def _eigenvectors(entries: np.ndarray, symmetric: bool, c: float, s: float) -> np.ndarray:
    """Eigenvectors of the Hermitian part of (c - i s) U, for one unitary or a stack.

    That part is c Re U + s Im U when U is symmetric, and takes the real
    eigh, whose eigenvectors stay real.
    """
    if symmetric:
        _, z = np.linalg.eigh(c * entries.real + s * entries.imag)
        return z
    m = ((c - 1j * s) / 2.0) * entries
    _, z = np.linalg.eigh(m + m.conj().swapaxes(-1, -2))
    return z


def _diagonal_phases(entries: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The phases of diag(Z^dag U Z), for one unitary or a stack.

    A real Z (orthogonal O) of a symmetric U forms O^T U = (U O)^T as
    one real product over the float64 view of U, and sums its transpose
    times O as the complex route sums conj(Z) times U Z.
    """
    if z.dtype == np.float64:
        entries = np.ascontiguousarray(entries, dtype=np.complex128)
        left = (z.swapaxes(-1, -2) @ entries.view(np.float64)).view(np.complex128)
        return _phases(np.sum(left.swapaxes(-1, -2) * z, axis=-2))
    return _phases(np.sum(z.conj() * (entries @ z), axis=-2))


@functools.cache
def _pairs(d: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(d, offset), read-only: the index pairs (a, c), c >= a + offset."""
    pairs = np.triu_indices(d, offset)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _separating_angle(entries: np.ndarray) -> float:
    """theta mid-way in the widest gap of the pair half-sums (phi_a + phi_c) / 2 mod pi, a < c.

    Two distinct phases give the Hermitian part of e^{-i theta} U, with
    eigenvalues cos(phi - theta), one eigenvalue only when theta is
    their half-sum mod pi.
    """
    phases = np.angle(np.linalg.eigvals(entries))
    iu, ju = _pairs(len(phases), 1)
    s = np.sort(np.mod((phases[iu] + phases[ju]) / 2.0, np.pi))
    if not len(s):  # one phase: nothing to separate
        return 0.0
    gaps = np.diff(s, append=s[0] + np.pi)
    j = np.argmax(gaps)
    return s[j] + gaps[j] / 2.0


def decompose_block(entries: np.ndarray, dims: BipartiteDims, symmetric: bool = False) -> SpectralBlock:
    """Diagonalize a stack of unitaries, shape (k, d, d), with unitary eigenvectors.

    One eigh call over the stack: eigh(H + cK) for general U, the real
    eigh(Re U + c Im U) when every U is symmetric, whose real orthogonal
    eigenvectors O the block keeps as float64.  The phases come
    from diag(Z^dag U Z), never from the eigenvalues of H + cK, which
    are two-to-one.  A unitary whose reconstruction misses it by more
    than 1e-10 (two phases with phi_a + phi_b = 2 atan c mod 2pi share
    an eigenvalue, and eigh mixes their vectors) is decomposed again
    alone by the same eigh of the Hermitian part of e^{-i theta} U, or
    of cos theta Re U + sin theta Im U: theta lies mid-way in the widest
    gap of its pair half-sums (phi_a + phi_b) / 2 mod pi, taken from
    the eigenvalues of U, so that no two distinct phases share an
    eigenvalue there.  LinAlgError if that misses too.
    """
    z = _eigenvectors(entries, symmetric, 1.0, _EIGH_MIX)
    phases = _diagonal_phases(entries, z)
    residuals = _residuals(entries, phases, z)
    redo = np.flatnonzero(residuals > _RESIDUAL_TOL)
    for i in redo:
        theta = _separating_angle(entries[i])
        z[i] = _eigenvectors(entries[i], symmetric, np.cos(theta), np.sin(theta))
        phases[i] = _diagonal_phases(entries[i], z[i])
        residuals[i] = _residuals(entries[i], phases[i], z[i])
        if residuals[i] > _RESIDUAL_TOL:
            raise np.linalg.LinAlgError(
                f"spectral reconstruction residual {residuals[i]:.3e} > {_RESIDUAL_TOL}")
    return SpectralBlock(dims, phases, z, residuals, len(redo))


def _phase_powers(phases: np.ndarray, ns: range) -> np.ndarray:
    """e^{i n phases} for each n of the step-1 range ns, along a new last axis.

    The first power comes from exp, each later one from the one before
    times e^{i phi}: one complex multiply per entry instead of an exp.
    Over n = 1..40 this stays within about 3e-15 of the exact powers,
    where exp(i n phi) is about 1.4e-14 off, since n phi is rounded
    before the exp.  The products add error with the length of ns; the
    first power carries the rounding of n phi at the first n.  The table
    is the calling thread's scratch array: it holds until the next call.
    """
    powers = _scratch("powers", (len(ns),) + phases.shape)
    powers[0] = np.exp(1j * ns.start * phases)
    powers[1:] = np.exp(1j * phases)
    # accumulated over the leading axis, each step multiplies a whole slab
    np.multiply.accumulate(powers, axis=0, out=powers)
    return np.moveaxis(powers, 0, -1)


def matrix_power(block: SpectralBlock, n: int) -> np.ndarray:
    """U^n of every unitary of the block, Z diag(e^{i n phi}) Z^dag, shape (k, d, d).

    O(d^3) per power after one decomposition; repeated direct
    multiplication (numpy matrix_power) is the oracle this is checked
    against, not the implementation.  n = 1 is the reconstruction that
    the decomposition checks.
    """
    if n < 0:
        raise ValueError(f"power must be >= 0, got {n}")
    return _reconstruct(n * block.phases, block.vectors)


def _coefficients(block: SpectralBlock, states: np.ndarray) -> np.ndarray:
    """<z_k|psi> per unitary of the block, states (k, d) -> (k, d).

    As psi^T conj(Z), which hands BLAS the same product for real and
    complex Z: a real Z gives the coefficients of its complex copy bit
    for bit.
    """
    return (states[..., None, :] @ block.vectors.conj())[..., 0, :]


def _entropies(block: SpectralBlock, coeffs: np.ndarray, ns: range) -> np.ndarray:
    """S_L(U^n psi) per unitary for each n in ns, shape (k, len(ns))."""
    # the orbit columns sum_k z_k <z_k|psi> e^{i n phi_k}, one stacked product over the block;
    # the weights overwrite the power table, and the orbits go to scratch as well
    weights = _phase_powers(block.phases, ns)
    np.multiply(weights, coeffs[..., None], out=weights)
    orbits = np.matmul(block.vectors, weights, out=_scratch("orbits", weights.shape))
    return 1.0 - purity_batch(orbits, block.dims.d_a, block.dims.d_b)


def _check_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")


def entropy_curves(block: SpectralBlock, states: np.ndarray, n_max: int) -> np.ndarray:
    """S_L(U^n psi) for n = 1..n_max, states (k, d) -> (k, n_max).

    One synthesis of every orbit of the block and one batched purity.
    """
    _check_n_max(n_max)
    return _entropies(block, _coefficients(block, states), range(1, n_max + 1))


def operator_curves(block: SpectralBlock, n_max: int) -> np.ndarray:
    """Operator entanglement of U^n for n = 1..n_max, shape (k, n_max).

    Synthesizes the Choi vectors vec(U^n) / sqrt(d) of every power
    from the reshuffled eigenprojectors, the synthesis the entropy
    curves take for states; their linear entropies across
    (A_out A_in | B_out B_in) are the operator entanglements.  The
    Choi vectors come out n-major, as the rows of one
    (n_max, d) x (d, d^2) product of the weights e^{i n phi_j} / sqrt(d)
    with the rows vec R(|z_j><z_j|), so that every reduced density of
    the purity is a contiguous block.  Memory stays
    O(d^3 + d^2 n_max) per unitary, d projector rows and n_max Choi
    rows of length d^2: the unitaries of a block are taken one at a
    time, through the calling thread's scratch arrays.

    Only ``run_experiment`` holds OpenBLAS at one thread.  Called
    directly, the Choi product can wake a second BLAS thread for a loss:
    355-391 against 316-331 us/sample pinned (4x5, 16-sample block, 2
    cores).  Set ``OPENBLAS_NUM_THREADS=1`` before numpy loads to match.
    """
    _check_n_max(n_max)
    d_a, d_b, d = block.dims.d_a, block.dims.d_b, block.dims.d
    ns = range(1, n_max + 1)
    curves = np.empty((len(block.phases), n_max))
    # the outer products are written fastest with j innermost, the order z.T
    # keeps in memory (a third faster than C order at 4x5), and the Choi
    # product reads them in place as the F-ordered (d, d^2) matrix of rows
    outer = _scratch("choi_rows", (d_a, d_a, d_b, d_b, d))
    products = outer.transpose(4, 0, 1, 2, 3)
    rows = outer.reshape(d * d, d).T
    choi = _scratch("choi", (n_max, d * d))
    for i, (phases, z) in enumerate(zip(block.phases, block.vectors)):
        # row j is z_j[a1 b1] conj(z_j[a2 b2]) at (a1 a2 | b1 b2)
        np.multiply(z.T.reshape(d, d_a, 1, d_b, 1), z.T.conj().reshape(d, 1, d_a, 1, d_b), out=products)
        weights = _phase_powers(phases, ns).T * d ** -0.5
        np.matmul(weights, rows, out=choi)
        curves[i] = 1.0 - purity_batch(choi.T, d_a * d_a, d_b * d_b)
    return curves


def _min_circular_gap(points: np.ndarray) -> np.ndarray:
    """Smallest spacing between points on the circle [0, 2pi), per row of (k, m); 2pi for m = 1."""
    s = np.sort(points, axis=-1)
    wrap = s[:, 0] + _TWO_PI - s[:, -1]
    return np.minimum(np.diff(s, axis=-1).min(axis=-1, initial=np.inf), wrap)


def _pair_clusters(phases: np.ndarray) -> tuple[np.ndarray, list]:
    """Clusters of the pair sums phi_a + phi_c (a <= c) mod 2pi of (k, d) phases.

    Sorted sums closer than 1e-9 join (single linkage, across 2pi too).
    Returns resonant (k,), the rows with a cluster of more than one
    pair, and (row, a, c) for each such cluster with its pairs' index
    arrays.  A degenerate phase phi_a = phi_b joins the sums (a, c) and
    (b, c).
    """
    iu, ju = _pairs(phases.shape[-1], 0)
    sums = np.mod(phases[:, iu] + phases[:, ju], _TWO_PI)
    s = np.sort(sums, axis=-1)
    # joined[:, j]: sorted sums j and j + 1 share a cluster, the last sum wrapping to the first
    joined = np.diff(s, axis=-1, append=s[:, :1] + _TWO_PI) < _RESONANCE_TOL
    resonant = joined.any(axis=-1)
    clusters = []
    # argsort costs 3-4x a sort, so only the rare resonant rows take it
    for i in np.flatnonzero(resonant):
        # cut the ring after its first break, so that no cluster straddles the cut
        start = np.argmin(joined[i]) + 1
        ring = np.roll(np.argsort(sums[i]), -start)
        cuts = np.flatnonzero(~np.roll(joined[i], -start)) + 1
        clusters += [(i, iu[g], ju[g]) for g in np.split(ring, cuts[:-1]) if len(g) > 1]
    return resonant, clusters


def asymptotic_entropies(block: SpectralBlock, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Infinite-time averages of S_L(U^n psi) from the eigenphase pairing.

    With U = sum_a e^{i phi_a} |z_a><z_a| and y_a = <z_a|psi> z_a,
    tr rho_A(n)^2 = <psi(n) psi(n)|F_A|psi(n) psi(n)> (F_A swaps the
    two A factors) oscillates with the pair sums phi_a + phi_c, and
    its time average is sum_K <P_K|F_A|P_K> over the clusters K of
    equal pair sums, P_K = sum_{(a,c) in K} y_a (x) y_c.  Clusters of
    one pair {(a, c), (c, a)} sum to, with p_a = |<z_a|psi>|^2,

        <S_L> = 1 - sum_ab p_a p_b (T^A_ab + T^B_ab) + sum_a p_a^2 T^A_aa

    where T^A_ab = tr(rho_A^a rho_A^b) is the Gram matrix of the
    eigenvectors' reduced densities, likewise T^B; the last term
    removes the double count of a = b (T^A_aa = T^B_aa).  Every sample
    takes this formula, and each cluster of more than one pair (a
    degenerate phase, or phi_a + phi_c = phi_b + phi_e) adds
    <P_K|F_A|P_K> less its pairs' Gram terms, with P_K = Y M_K Y^T
    (columns y_a, M_K the 0/1 marks of K's ordered pairs) a d x d matrix.

    Sums less than delta = 1e-9 apart share a cluster, so for them the
    value is the average over times much shorter than 1/delta; for
    true degeneracies and resonances it is exact.

    states (k, d) -> (values (k,), resonant (k,)), resonant marking
    the samples with a cluster of more than one pair.
    """
    d_a, d_b, d = block.dims.d_a, block.dims.d_b, block.dims.d
    z = block.vectors
    k = len(z)
    coeffs = _coefficients(block, states)
    p = np.abs(coeffs) ** 2
    rho_a = reduced_density_batch(z, d_a, d_b).reshape(k, d, -1)
    rho_b = reduced_density_batch(_b_major(z, d_a, d_b), d_b, d_a).reshape(k, d, -1)
    # np.conjugate copies even a real array: numpy multiplies an array by
    # its own transpose on a stacked syrk path, slower here than the gemm
    t_a = (rho_a @ np.conjugate(rho_a).swapaxes(-1, -2)).real
    t_b = (rho_b @ np.conjugate(rho_b).swapaxes(-1, -2)).real
    pair = (p[:, None, :] @ (t_a + t_b) @ p[:, :, None])[:, 0, 0]
    avg_purity = pair - np.sum(p * p * np.diagonal(t_a, axis1=-2, axis2=-1), axis=-1)
    resonant, clusters = _pair_clusters(block.phases)
    for i, a, c in clusters:
        m = np.zeros((d, d))
        m[a, c] = m[c, a] = 1.0
        y = z[i] * coeffs[i]
        pk = (y @ m @ y.T).reshape(d_a, d_b, d_a, d_b)
        own = (p[i] @ (m * (t_a[i] + t_b[i])) @ p[i]
               - np.sum(np.diagonal(m) * p[i] * p[i] * np.diagonal(t_a[i])))
        avg_purity[i] += np.vdot(pk, pk.transpose(2, 1, 0, 3)).real - own
    return 1.0 - avg_purity, resonant


def form_factors(phases: np.ndarray, n_max: int) -> np.ndarray:
    """|tr U^n|^2 for n = 1..n_max from eigenphases, (k, d) -> (k, n_max)."""
    _check_n_max(n_max)
    traces = np.sum(_phase_powers(phases, range(1, n_max + 1)), axis=-2)
    return np.abs(traces) ** 2
