"""Circular-ensemble sampling and bipartite state construction.

Unitaries are drawn from the circular unitary ensemble (CUE, i.e. Haar
measure on U(d)) or the circular orthogonal ensemble (COE, symmetric
unitaries U = W W^T with W Haar).  States live on a fixed bipartition
H_A (x) H_B with the composite index ordered A-major, matching the
convention of ``numpy.kron``: component (a, b) sits at a * d_b + b.

Randomness is counter based.  Every Monte Carlo sample owns a Philox
stream keyed by (master_seed, stream_index), so results do not depend
on how samples are distributed over worker threads.  A sample's stream
is a sequence of standard normals laid out as

    [ Ginibre real part (d*d) | Ginibre imaginary part (d*d) | A factor | B factor ]

where the factors of a random product state take d_a and d_b normals
for real states, 2 d_a and 2 d_b (real parts, then imaginary parts)
for complex ones, and other samples draw no state.
:func:`sample_block` draws the rows of a block of samples through one
re-keyed :class:`PhiloxStreams` and assembles their unitaries and
states as stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "EnsembleTag",
    "FieldTag",
    "BipartiteDims",
    "PhiloxStreams",
    "sample_block",
    "basis_product_state",
]

# seeds and stream indices become the two 64-bit words of the Philox key
_SEED_LIMIT = 2**64


class EnsembleTag(Enum):
    """The circular ensemble a unitary is drawn from."""

    CUE = "cue"
    COE = "coe"


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


class PhiloxStreams:
    """The streams of one master seed, drawn through one re-keyed Philox bit generator.

    Building a Philox bit generator costs several times what setting a
    built one's key does (building also seeds an OS-entropy SeedSequence
    that a keyed generator never reads).  Each stream sets the key to
    (master_seed, i) with the counter zeroed and the buffer emptied,
    the state a Philox generator built with that key starts from.
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


def sample_block(ensemble: EnsembleTag, dims: BipartiteDims, field_tag: FieldTag | None,
                 streams: PhiloxStreams, first: int, count: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Unitaries (count, d, d) and random product states (count, d) of samples first, first+1, ...

    Sample i's row holds the normals of its stream, laid out as in the
    module docstring, from one standard_normal call per sample; the
    block assembles them once.  field_tag None draws no states and
    returns None for them.
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


def basis_product_state(dims: BipartiteDims) -> np.ndarray:
    """Amplitudes (d,) of the fixed product state |0>_A (x) |0>_B, complex128."""
    amps = np.zeros(dims.d, dtype=np.complex128)
    amps[0] = 1.0
    return amps
