"""Linear entropy of states and operator entanglement of unitaries.

One kernel forms every reduced density matrix in the package.  A
column state with amplitude matrix M (shape (d_a, d_b), A-major
flattening) has rho_A = M M^dag; :func:`reduced_density_batch` does this
for a whole batch of columns as one batched matmul, and

    S_L = 1 - tr rho_A^2 = 1 - ||M M^dag||_F^2.

Operators go through the same kernel.  The Choi vector vec(U) / sqrt(d),
indexed (A_out A_in | B_out B_in), is the reshuffle R(U) / sqrt(d)
flattened; it is a unit vector whose linear entropy across that split
is the operator entanglement of U (Zanardi, PRA 63, 040304(R) (2001)).
The literal eightfold index sum it is checked against is a test oracle
(``tests/oracles.py``), not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import PureState, UnitaryMatrix

__all__ = [
    "ReducedDensityMatrix",
    "reduced_density_a",
    "reduced_density_b",
    "linear_entropy",
    "operator_entanglement",
]


@dataclass(eq=False)
class ReducedDensityMatrix:
    """Hermitian, unit-trace density matrix on one factor."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape ({self.dim}, {self.dim}), got {self.entries.shape}")

    def purity(self) -> float:
        return float(np.sum(np.abs(self.entries) ** 2))


def reduced_density_batch(states: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """rho_A = M M^dag for a batch of column states, shape (..., d, n) -> (..., n, d_a, d_a).

    Leading axes stack batches.
    """
    m = states.swapaxes(-1, -2).reshape(*states.shape[:-2], states.shape[-1], d_a, d_b)
    return m @ m.conj().swapaxes(-1, -2)


def purity_batch(states: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """tr rho_A^2 for a batch of column states, shape (..., d, n) -> (..., n).

    Any layout is accepted.  When the columns are contiguous in memory
    (states is the transpose of an n-major (..., n, d) array), each M
    is a plain (d_a, d_b) block and the product M M^dag takes BLAS;
    otherwise numpy multiplies the strided blocks in its own loop.
    The squared moduli are summed as one real dot product per state
    over the float64 view of rho_A.
    """
    rho = reduced_density_batch(states, d_a, d_b)
    flat = rho.view(np.float64).reshape(*rho.shape[:-2], -1)
    return (flat[..., None, :] @ flat[..., :, None])[..., 0, 0]


def _b_major(states: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    # psi[(a b)] -> psi[(b a)] for each column of (..., d, n): the kernel then traces out A
    lead, n = states.shape[:-2], states.shape[-1]
    return states.reshape(*lead, d_a, d_b, n).swapaxes(-3, -2).reshape(states.shape)


def _reshuffled(ops: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Column Choi vectors vec R(O) of operators ops[:, :, k], shape (d^2, k).

    A single (d, d) operator gives one column.
    """
    # O[(a1 b1), (a2 b2)] -> R[(a1 a2), (b1 b2)]
    o = ops.reshape(d_a, d_b, d_a, d_b, -1)
    return o.transpose(0, 2, 1, 3, 4).reshape(d_a * d_a * d_b * d_b, -1)


def reduced_density_a(psi: PureState) -> ReducedDensityMatrix:
    """rho_A = tr_B |psi><psi| = M M^dag."""
    d_a, d_b = psi.dims.d_a, psi.dims.d_b
    return ReducedDensityMatrix(d_a, reduced_density_batch(psi.amplitudes[:, None], d_a, d_b)[0])


def reduced_density_b(psi: PureState) -> ReducedDensityMatrix:
    """rho_B = tr_A |psi><psi| = M^T M^*."""
    d_a, d_b = psi.dims.d_a, psi.dims.d_b
    states = _b_major(psi.amplitudes[:, None], d_a, d_b)
    return ReducedDensityMatrix(d_b, reduced_density_batch(states, d_b, d_a)[0])


def linear_entropy(psi: PureState) -> float:
    """Linear entropy S_L(psi) = 1 - tr rho_A^2, in [0, 1 - 1/min(d_a, d_b)]."""
    return float(1.0 - purity_batch(psi.amplitudes[:, None], psi.dims.d_a, psi.dims.d_b)[0])


def operator_entanglement(u: UnitaryMatrix) -> float:
    """Linear operator entanglement of U across the (A, B) split.

    U / sqrt(d) is a unit vector in operator space; its Schmidt
    coefficients across the split are the singular values of the
    reshuffled matrix R(U) / sqrt(d), so

        S_L(U) = 1 - ||R R^dag||_F^2 / d^2,

    the linear entropy of the Choi vector.  Zero iff U is a product
    U_A (x) U_B.
    """
    d_a, d_b, d = u.dims.d_a, u.dims.d_b, u.dims.d
    choi = _reshuffled(u.entries, d_a, d_b) / np.sqrt(d)
    return float(1.0 - purity_batch(choi, d_a * d_a, d_b * d_b)[0])
