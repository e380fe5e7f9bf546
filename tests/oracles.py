"""Reference implementations the tests check the package against.

Each one takes the slow, literal route on purpose and shares as little
as it can with the code it checks: a sample drawn piece by piece from
its own Philox generator, the eightfold index sum of the operator
entanglement, the brute-force time average of the linear entropy, and
the Gram-matrix form of its infinite-time average.  None of them is
part of the package.
"""

import numpy as np

from entpower.dynamics import _coefficients, _entropies, decompose_block
from entpower.ensembles import EnsembleTag, FieldTag

# the naive reference implementation loops over d^4 index tuples
_NAIVE_DIM_LIMIT = 12
_TIME_AVERAGE_CHUNK = 20_000


def stream(seed, index):
    """The generator of sample `index` under master seed `seed`: Philox keyed by (seed, index).

    Its normals are the sample's stream, which :func:`haar_unitary` and
    :func:`unit_vector` read one piece at a time, so one stream can
    serve several draws.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def haar_unitary(rng, d, ensemble=EnsembleTag.CUE):
    """A d x d CUE (or COE) draw: Ginibre real part, then imaginary part, from `rng`.

    QR with Mezzadri's phase fix (Notices AMS 54, 592 (2007)); COE takes
    U = W W^T with W Haar, symmetrised as (P + P^T) / 2.
    """
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    if ensemble is EnsembleTag.COE:
        p = u @ u.T
        u = (p + p.T) / 2.0
    return u


def unit_vector(rng, d, field_tag):
    """A uniformly random unit vector of C^d or R^d from `rng`: real parts, then imaginary parts."""
    v = rng.standard_normal(d).astype(np.complex128)
    if field_tag is FieldTag.COMPLEX:
        v = v + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def stream_draw(seed, index, d_a, d_b, ensemble, field_tag):
    """Sample `index`'s unitary and random product state, straight from its stream.

    The stream's layout, one piece at a time: the unitary, then the A
    and B factors of the state.  field_tag None draws no state and
    returns None.
    """
    rng = stream(seed, index)
    u = haar_unitary(rng, d_a * d_b, ensemble)
    if field_tag is None:
        return u, None
    return u, np.kron(unit_vector(rng, d_a, field_tag), unit_vector(rng, d_b, field_tag))


def operator_entanglement_naive(u, dims) -> float:
    """Reference implementation, literal eightfold index sum.

    Computes 1 - (1/d^2) sum U[a1b1,a2b2] U*[a1b1',a2b2'] U*[a1'b1,a2'b2]
    U[a1'b1',a2'b2'] over all primed/unprimed index tuples of the (d, d)
    unitary u on `dims`, O(d^4) work with no factorization.  Only for
    cross-checking the Choi synthesis of
    :func:`~entpower.dynamics.operator_curves`; refuses d > 12.
    """
    d_a, d_b, d = dims.d_a, dims.d_b, dims.d
    if d > _NAIVE_DIM_LIMIT:
        raise ValueError(f"naive operator entanglement is limited to d <= {_NAIVE_DIM_LIMIT}, got {d}")
    u4 = np.asarray(u, dtype=np.complex128).reshape(d_a, d_b, d_a, d_b)
    s = np.einsum(
        "aBcD,abcd,eBgD,ebgd->",
        u4, u4.conj(), u4.conj(), u4,
    )
    return float(1.0 - s.real / (d * d))


def time_average_entropy(u, psi, dims, n_total: int = 100_000, symmetric: bool = False) -> float:
    """Brute-force mean of S_L(U^n psi) over n = 1..n_total; oracle only.

    u is a (d, d) unitary and psi a (d,) state on `dims`; symmetric
    decomposes a COE draw by the real route.

    Converges to the infinite-time average like 1/n_total (the partial
    sums of the oscillating terms stay bounded).  Tests check
    :func:`~entpower.dynamics.asymptotic_entropies` against it; no
    estimator uses it.
    Each chunk of steps takes e^{i n phi} from exp at its first n and by
    products after, and either way a phase's roundoff grows like n eps:
    with a phase at pi (SWAP on 3x3) 10^5 steps drift 2e-13 to 9e-13 off
    the exact average (three random complex states), so tests gated
    tighter than about 1e-11 should take fewer steps.
    """
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    block = decompose_block(np.asarray(u, dtype=np.complex128)[None], dims, symmetric=symmetric)
    coeffs = _coefficients(block, np.asarray(psi, dtype=np.complex128)[None])
    total = 0.0
    for start in range(1, n_total + 1, _TIME_AVERAGE_CHUNK):
        ns = range(start, min(start + _TIME_AVERAGE_CHUNK, n_total + 1))
        total += float(np.sum(_entropies(block, coeffs, ns)))
    return total / n_total


def asymptotic_entropy_gram(vectors, states, dims):
    """Infinite-time average entropy of each sample from the Gram matrices of its eigenvectors.

    vectors (k, d, d) holds each unitary's eigenvectors as columns z_a,
    states (k, d) the initial states.  With p_a = |<z_a|psi>|^2 and
    T^A_ab = tr(rho_A^a rho_A^b) over the eigenvectors' reduced
    densities, likewise T^B,

        <S_L> = 1 - sum_ab p_a p_b (T^A_ab + T^B_ab) + sum_a p_a^2 T^A_aa.

    Exact only for samples whose pair sums phi_a + phi_c (a <= c) are
    distinct: it omits the cross terms of a resonant cluster.
    """
    d_a, d_b = dims.d_a, dims.d_b
    z = np.asarray(vectors, dtype=np.complex128)
    k, d, _ = z.shape
    z4 = z.reshape(k, d_a, d_b, d)
    p = np.abs(np.einsum("sxa,sx->sa", z.conj(), states)) ** 2
    rho_a = np.einsum("sxya,swya->saxw", z4, z4.conj())
    rho_b = np.einsum("sxya,sxwa->sayw", z4, z4.conj())
    t_a = np.einsum("saxw,sbwx->sab", rho_a, rho_a).real
    t_b = np.einsum("sayw,sbwy->sab", rho_b, rho_b).real
    pair = np.einsum("sa,sab,sb->s", p, t_a + t_b, p)
    return 1.0 - pair + np.einsum("sa,sa,saa->s", p, p, t_a)
