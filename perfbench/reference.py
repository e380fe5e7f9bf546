"""Reference kernel: a fixed numpy/scipy computation that gauges the machine's speed.

    python3 perfbench/reference.py <subcommand> <ensemble> <draws>

On a shared host the speed of the machine drifts by tens of percent
within seconds, and not by the same share for every kind of work.
``measure.py`` starts this file as a process of its own, before
entpower is imported and with the environment the benchmark started
with, so that nothing the program does to its own process (BLAS
threads, imports, caches) reaches it.  For every line read from
standard input it runs the kernel once and writes one line: the wall
and the CPU seconds the kernel took.  It exits at end of input.

The kernel is the kind of work one sample of the workload's subcommand
does, in the benchmark's own code and on fixed inputs that no seed
changes: <draws> unitaries at d = 4 x 5 drawn by QR (symmetrised for
COE), each put in complex Schur form by scipy, then the state orbit
and its purities to n = 40 (ep-curve), the reshuffled powers and their
purities to n = 40 (opent-curve), or the eigenvector cross terms of
the time average (asymptotic).  It calls the same numpy and scipy
routines as the program, so that drift that slows one kind of call
more than another slows the kernel as it slows the program.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import scipy.linalg

D_A, D_B, N_MAX = 4, 5, 40
D = D_A * D_B
MASTER_SEED = 20070301


def _unitary(rng: np.random.Generator, ensemble: str) -> np.ndarray:
    g = (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    u = q * (diag / np.abs(diag))
    if ensemble == "coe":
        p = u @ u.T
        u = (p + p.T) / 2.0
    return u


def _state(rng: np.random.Generator) -> np.ndarray:
    a, b = rng.standard_normal(D_A), rng.standard_normal(D_B)
    return np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)).astype(np.complex128)


def _state_purities(z: np.ndarray, phases: np.ndarray, psi: np.ndarray) -> float:
    c = z.conj().T @ psi
    states = z @ (np.exp(1j * np.outer(phases, np.arange(1, N_MAX + 1))) * c[:, None])
    m = states.reshape(D_A, D_B, -1)
    g = np.einsum("abn,cbn->acn", m, m.conj())
    return float(np.sum(np.abs(g) ** 2))


def _operator_purities(z: np.ndarray, phases: np.ndarray) -> float:
    total = 0.0
    for n in range(1, N_MAX + 1):
        un = (z * np.exp(1j * n * phases)) @ z.conj().T
        r = un.reshape(D_A, D_B, D_A, D_B).transpose(0, 2, 1, 3).reshape(D_A * D_A, D_B * D_B)
        g = r @ r.conj().T
        total += float(np.sum(np.abs(g) ** 2))
    return total


def _cross_terms(z: np.ndarray, psi: np.ndarray) -> float:
    p = np.abs(z.conj().T @ psi) ** 2
    m = z.T.reshape(D, D_A, D_B)
    t_a = np.sum(np.abs(np.einsum("xrs,yrt->xyst", m.conj(), m)) ** 2, axis=(2, 3))
    t_b = np.sum(np.abs(np.einsum("xab,yeb->xyae", m.conj(), m)) ** 2, axis=(2, 3))
    return float(p @ (t_a + t_b) @ p)


def kernel(subcommand: str, ensemble: str, draws: int) -> float:
    """One pass over the fixed draws; returns a checksum so that no work is skipped."""
    rng = np.random.Generator(np.random.Philox(key=MASTER_SEED))
    psi0 = np.zeros(D, dtype=np.complex128)
    psi0[0] = 1.0
    total = 0.0
    for _ in range(draws):
        u = _unitary(rng, ensemble)
        t, z = scipy.linalg.schur(u, output="complex", check_finite=False)
        phases = np.angle(np.diagonal(t))
        total += float(np.max(np.abs((z * np.exp(1j * phases)) @ z.conj().T - u)))
        if subcommand == "ep-curve":
            total += _state_purities(z, phases, psi0)
        elif subcommand == "opent-curve":
            total += _operator_purities(z, phases)
        else:
            total += _cross_terms(z, _state(rng))
    return total


def serve(subcommand: str, ensemble: str, draws: int) -> int:
    expected = kernel(subcommand, ensemble, draws)
    for _ in sys.stdin:
        c0, t0 = time.process_time(), time.perf_counter()
        got = kernel(subcommand, ensemble, draws)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if abs(got - expected) > 1e-9 * abs(expected):
            print(f"error: reference kernel gave {got!r}, first gave {expected!r}", file=sys.stderr)
            return 1
        print(f"{wall!r} {cpu!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1], sys.argv[2], int(sys.argv[3])))
