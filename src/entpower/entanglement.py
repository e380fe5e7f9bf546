"""Linear entropy of batches of states, the package's one reduced-density kernel.

A column state with amplitude matrix M (shape (d_a, d_b), A-major
flattening) has rho_A = M M^dag; :func:`reduced_density_batch` does this
for a whole batch of columns as one batched matmul, and

    S_L = 1 - tr rho_A^2 = 1 - ||M M^dag||_F^2.

A single state is a batch of one column.  Operators go through the same
kernel: the Choi vector vec(U) / sqrt(d), indexed (A_out A_in | B_out B_in),
is a unit vector whose linear entropy across that split is the operator
entanglement of U (Zanardi, PRA 63, 040304(R) (2001)); see
:func:`~entpower.dynamics.operator_curves`.  The literal eightfold index
sum it is checked against is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reduced_density_batch",
    "purity_batch",
]


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
