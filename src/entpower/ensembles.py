"""Circular-ensemble sampling and bipartite state construction.

Unitaries are drawn from the circular unitary ensemble (CUE, i.e. Haar
measure on U(d)) or the circular orthogonal ensemble (COE, symmetric
unitaries U = W W^T with W Haar).  States live on a fixed bipartition
H_A (x) H_B with the composite index ordered A-major, matching the
convention of ``numpy.kron``: component (a, b) sits at a * d_b + b.

Randomness is counter based.  Every Monte Carlo sample owns a
:class:`RandomStream` keyed by (master_seed, stream_index), so results
do not depend on how samples are distributed over worker threads.  A
sample's stream is a sequence of standard normals laid out as

    [ Ginibre real part (d*d) | Ginibre imaginary part (d*d) | A factor | B factor ]

where the factors of a random product state take d_a and d_b normals
for real states, 2 d_a and 2 d_b (real parts, then imaginary parts)
for complex ones, and other samples draw no state.  Runs draw a
sample's whole row in one call through :func:`sample_block` and a
re-keyed :class:`PhiloxStreams`.  :func:`sample_cue`, :func:`sample_coe`
and :func:`random_state` draw one piece at a time, in the layout's
order, from a :class:`RandomStream`'s own generator, so one stream can
serve several draws.  Both routes assemble the normals with the same
functions, so they give bit-identical unitaries and states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "EnsembleTag",
    "FieldTag",
    "BipartiteDims",
    "UnitaryMatrix",
    "PureState",
    "RandomStream",
    "PhiloxStreams",
    "sample_block",
    "sample_cue",
    "sample_coe",
    "random_state",
    "product_state",
    "basis_product_state",
]

_NORM_TOL = 1e-12
# seeds and stream indices become the two 64-bit words of the Philox key
_SEED_LIMIT = 2**64


class EnsembleTag(Enum):
    """Provenance of a unitary: which measure it was drawn from."""

    CUE = "cue"
    COE = "coe"
    FIXED = "fixed"


class FieldTag(Enum):
    """Number field the amplitudes of a state are drawn from."""

    REAL = "real"
    COMPLEX = "complex"


@dataclass(frozen=True)
class BipartiteDims:
    """Dimensions (d_a, d_b) of the two factors of H_A (x) H_B."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got ({self.d_a}, {self.d_b})")

    @property
    def d(self) -> int:
        """Total dimension d_a * d_b."""
        return self.d_a * self.d_b


@dataclass(eq=False)
class UnitaryMatrix:
    """A d x d unitary with its bipartition and ensemble provenance.

    Parameters
    ----------
    dims :
        Bipartition of the space the matrix acts on.
    entries :
        Complex (d, d) array.  Coerced to complex128; unitarity is the
        caller's responsibility (samplers guarantee it to ~1e-14, see
        :meth:`unitarity_defect`).
    ensemble_tag :
        Where the matrix came from.  Matrices built by hand or derived
        from others carry ``EnsembleTag.FIXED``.
    """

    dims: BipartiteDims
    entries: np.ndarray
    ensemble_tag: EnsembleTag

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        d = self.dims.d
        if self.entries.shape != (d, d):
            raise ValueError(f"expected shape ({d}, {d}), got {self.entries.shape}")

    def unitarity_defect(self) -> float:
        """max |U U^dag - 1|, entrywise."""
        d = self.dims.d
        g = self.entries @ self.entries.conj().T
        return float(np.max(np.abs(g - np.eye(d))))


@dataclass(eq=False)
class PureState:
    """Normalized pure state on H_A (x) H_B, stored as a flat vector.

    The constructor enforces unit norm to 1e-12 and, for
    ``FieldTag.REAL``, that the imaginary part is exactly zero.
    """

    dims: BipartiteDims
    amplitudes: np.ndarray
    field_tag: FieldTag

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.dims.d,):
            raise ValueError(f"expected shape ({self.dims.d},), got {self.amplitudes.shape}")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        if self.field_tag is FieldTag.REAL and np.any(self.amplitudes.imag != 0.0):
            raise ValueError("field_tag REAL requires exactly real amplitudes")


@dataclass
class RandomStream:
    """One independent Philox stream, keyed by (master_seed, stream_index).

    The key is the Philox counter key, not a seed sequence: streams for
    different indices under the same master seed never collide, and the
    sample drawn from stream i is independent of whether streams j != i
    were ever instantiated.  Draws within one stream are sequential: a
    sample's unitary takes the Ginibre real part, then the imaginary
    part, and its random product state (if any) the A factor, then the
    B factor (see the module docstring for the layout).  This is the
    single-draw API; :class:`PhiloxStreams` draws the same normals for
    whole blocks of samples.
    """

    master_seed: int
    stream_index: int
    _generator: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.master_seed < _SEED_LIMIT and 0 <= self.stream_index < _SEED_LIMIT):
            raise ValueError("master_seed and stream_index must be in [0, 2**64)")

    def generator(self) -> np.random.Generator:
        if self._generator is None:
            key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator


class PhiloxStreams:
    """The streams of one master seed, drawn through one re-keyed Philox bit generator.

    Building a Philox bit generator costs several times what setting a
    built one's key does (building also seeds an OS-entropy SeedSequence
    that a keyed generator never reads).  Each stream sets the key to
    (master_seed, i) with the counter zeroed and the buffer emptied,
    the state ``RandomStream(master_seed, i).generator()`` starts from.
    Not thread safe: every chunk of a run makes its own.
    """

    def __init__(self, master_seed: int):
        if not 0 <= master_seed < _SEED_LIMIT:
            raise ValueError("master_seed must be in [0, 2**64)")
        self._bit_generator = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
        self._generator = np.random.Generator(self._bit_generator)
        # a freshly keyed state (counter 0, buffer empty); setting it copies
        # the arrays in, so re-keying only rewrites the key's second word
        self._fresh = self._bit_generator.state
        self._key = self._fresh["state"]["key"]

    def normals(self, first: int, count: int, width: int) -> np.ndarray:
        """Shape (count, width): row k holds the first `width` normals of stream first + k."""
        rows = np.empty((count, width))
        for k, row in enumerate(rows):
            self._key[1] = first + k
            self._bit_generator.state = self._fresh
            self._generator.standard_normal(out=row)
        return rows


def _checked_dims(d: int, dims: BipartiteDims | None) -> BipartiteDims:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if dims is None:
        return BipartiteDims(d, 1)
    if dims.d != d:
        raise ValueError(f"dims product {dims.d} does not match d = {d}")
    return dims


def _unitaries(ensemble: EnsembleTag, normals: np.ndarray) -> np.ndarray:
    """CUE or COE draws from Ginibre normals (k, 2, d, d), real then imaginary part, as (k, d, d).

    CUE: QR of complex Ginibre matrices, with the phases of each R
    diagonal pushed into Q (Mezzadri, Notices AMS 54, 592 (2007)).
    Without that rescaling the distribution of Q is not Haar (it
    depends on the sign/phase convention of the QR routine).  COE:
    U = W W^T with W Haar, symmetrized as (P + P^T) / 2 so the entries
    are bitwise symmetric, which floating point matrix multiply does
    not guarantee on its own.  One QR runs over the stack, and stacked
    LAPACK and BLAS calls treat every matrix alone, so a draw does not
    depend on the other matrices of the stack.
    """
    if ensemble not in (EnsembleTag.CUE, EnsembleTag.COE):
        raise ValueError(f"ensemble must be CUE or COE, got {ensemble}")
    z = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    w = q * (diag / np.abs(diag))[:, None, :]
    if ensemble is EnsembleTag.CUE:
        return w
    p = w @ w.swapaxes(-1, -2)
    return (p + p.swapaxes(-1, -2)) / 2.0


def _state_width(d: int, field_tag: FieldTag) -> int:
    """Normals a random state on C^d or R^d takes from its stream."""
    return 2 * d if field_tag is FieldTag.COMPLEX else d


def _unit_vectors(field_tag: FieldTag, normals: np.ndarray) -> np.ndarray:
    """Normalized Gaussian vectors from normals (k, width), complex128.

    COMPLEX takes the first half of each row as real parts and the
    second half as imaginary parts.
    """
    if field_tag is FieldTag.COMPLEX:
        d = normals.shape[-1] // 2
        v = normals[:, :d] + 1j * normals[:, d:]
    else:
        v = normals.astype(np.complex128)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _product_states(dims: BipartiteDims, field_tag: FieldTag, normals: np.ndarray) -> np.ndarray:
    """psi_A (x) psi_B from normals (k, width_A + width_B), A factor first, as (k, d)."""
    width_a = _state_width(dims.d_a, field_tag)
    a = _unit_vectors(field_tag, normals[:, :width_a])
    b = _unit_vectors(field_tag, normals[:, width_a:])
    return (a[:, :, None] * b[:, None, :]).reshape(len(normals), dims.d)


def sample_cue(d: int, stream: RandomStream, dims: BipartiteDims | None = None) -> UnitaryMatrix:
    """Draw one Haar-distributed unitary from U(d); see :func:`_unitaries`."""
    dims = _checked_dims(d, dims)
    normals = stream.generator().standard_normal((1, 2, d, d))
    return UnitaryMatrix(dims, _unitaries(EnsembleTag.CUE, normals)[0], EnsembleTag.CUE)


def sample_coe(d: int, stream: RandomStream, dims: BipartiteDims | None = None) -> UnitaryMatrix:
    """Draw one COE matrix, U = W W^T with W Haar; see :func:`_unitaries`."""
    dims = _checked_dims(d, dims)
    normals = stream.generator().standard_normal((1, 2, d, d))
    return UnitaryMatrix(dims, _unitaries(EnsembleTag.COE, normals)[0], EnsembleTag.COE)


def random_state(d: int, field_tag: FieldTag, stream: RandomStream,
                 dims: BipartiteDims | None = None) -> PureState:
    """Draw a uniformly random pure state (normalized Gaussian vector).

    COMPLEX gives the unitarily invariant (Fubini-Study) measure, REAL
    the orthogonally invariant measure on the real sphere.
    """
    dims = _checked_dims(d, dims)
    normals = stream.generator().standard_normal((1, _state_width(d, field_tag)))
    return PureState(dims, _unit_vectors(field_tag, normals)[0], field_tag)


def sample_block(ensemble: EnsembleTag, dims: BipartiteDims, field_tag: FieldTag | None,
                 streams: PhiloxStreams, first: int, count: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Unitaries (count, d, d) and random product states (count, d) of samples first, first+1, ...

    Bit for bit what ``sample_cue`` (or ``sample_coe``) and then
    ``random_state`` for the A and B factors give on
    ``RandomStream(master_seed, i)``, from one standard_normal call per
    sample and one assembly per block.  field_tag None draws no states
    and returns None for them.
    """
    d = dims.d
    width = 2 * d * d
    if field_tag is not None:
        width += _state_width(dims.d_a, field_tag) + _state_width(dims.d_b, field_tag)
    rows = streams.normals(first, count, width)
    u = _unitaries(ensemble, rows[:, :2 * d * d].reshape(count, 2, d, d))
    if field_tag is None:
        return u, None
    return u, _product_states(dims, field_tag, rows[:, 2 * d * d:])


def product_state(psi_a: PureState, psi_b: PureState) -> PureState:
    """Tensor product psi_a (x) psi_b on dims (d_a, d_b).

    Both factors must be unipartite (their dims must have d_b = 1 resp.
    be interpretable as a single factor); the result is real only if
    both factors are.
    """
    if psi_a.dims.d_b != 1 or psi_b.dims.d_b != 1:
        raise ValueError("product_state expects unipartite factors (dims (d, 1))")
    dims = BipartiteDims(psi_a.dims.d, psi_b.dims.d)
    amps = np.kron(psi_a.amplitudes, psi_b.amplitudes)
    both_real = psi_a.field_tag is FieldTag.REAL and psi_b.field_tag is FieldTag.REAL
    return PureState(dims, amps, FieldTag.REAL if both_real else FieldTag.COMPLEX)


def basis_product_state(dims: BipartiteDims) -> PureState:
    """The fixed product state |0>_A (x) |0>_B (first basis vector)."""
    amps = np.zeros(dims.d, dtype=np.complex128)
    amps[0] = 1.0
    return PureState(dims, amps, FieldTag.REAL)
