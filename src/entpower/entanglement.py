"""Linear entropy of batches of states, the package's one purity kernel.

A column state with amplitude matrix M (shape (d_a, d_b), A-major
flattening) has rho_A = M M^dag, and

    S_L = 1 - tr rho_A^2 = 1 - ||M M^dag||_F^2.

:func:`purity_batch` forms that product for a whole batch of columns
in the calling thread's scratch arrays, which it reuses from call to
call, and returns a fresh array.  A single state is a batch of one
column.  Operators go through the same kernel: the Choi vector
vec(U) / sqrt(d), indexed (A_out A_in | B_out B_in), is a unit vector
whose linear entropy across that split is the operator entanglement of
U (Zanardi, PRA 63, 040304(R) (2001)); see
:func:`~entpower.dynamics.operator_curves`.  So is the infinite-time
average: its pair sums are purities of a purification, see
:func:`~entpower.dynamics.asymptotic_entropies`.  The literal eightfold
index sum the operator route is checked against is a test oracle
(``tests/oracles.py``).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "purity_batch",
]


_SCRATCH = threading.local()


def _scratch(name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """The calling thread's scratch array `name`, kept while its shape and dtype hold.

    The kernels write their per-block temporaries here through ``out=``
    so that each block reuses the last block's memory: allocated afresh,
    temporaries over 128 KiB are mmapped and faulted in on every block
    under glibc's default thresholds.
    A scratch array stays valid until the next use of its name on the
    same thread, so no public function returns or keeps one.
    """
    arrays = vars(_SCRATCH)
    array = arrays.get(name)
    if array is None or array.shape != shape or array.dtype != dtype:
        array = arrays[name] = np.empty(shape, dtype)
    return array


def purity_batch(states: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """tr rho_A^2 for a batch of column states, shape (..., d, n) -> (..., n).

    Any layout is accepted.  When the columns are contiguous in memory
    (states is the transpose of an n-major (..., n, d) array), each M
    is a plain (d_a, d_b) block and the product M M^dag takes BLAS;
    otherwise numpy multiplies the strided blocks in its own loop.
    conj(M) and rho_A = M M^dag live in the calling thread's scratch
    arrays.  The squared moduli are summed as one real dot product per
    state over the float64 view of rho_A; a real rho_A is summed
    through its complex copy, so that real states give the purities of
    their complex copies bit for bit.
    """
    m = states.swapaxes(-1, -2).reshape(*states.shape[:-2], states.shape[-1], d_a, d_b)
    conj = np.conjugate(m, out=_scratch("conj", m.shape, m.dtype))
    rho = np.matmul(m, conj.swapaxes(-1, -2), out=_scratch("rho", (*m.shape[:-1], d_a), m.dtype))
    flat = rho.astype(np.complex128, copy=False).view(np.float64).reshape(*rho.shape[:-2], -1)
    return (flat[..., None, :] @ flat[..., :, None])[..., 0, 0]
