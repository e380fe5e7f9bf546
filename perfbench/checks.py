"""Correctness checks for the benchmark, built apart from the program.

Exact targets are the paper's closed forms written out here again as
Fractions, so a match with ``entpower.closedform`` means two separate
transcriptions agree.  Sample recomputation uses plain numpy: U^n by
repeated multiplication and purities from singular values, never
``entpower.dynamics`` or ``entpower.entanglement``.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GATE_SIGMA = 5
RECOMPUTE_TOL = 1e-10
TIME_AVERAGE_STEPS = 2**15
CSV_HEADER = "n,mean,stderr,count"


def exact_targets(d_a: int, d_b: int) -> dict[str, Fraction]:
    """ep1(a), ep_inf(a), op_ent_cue and ep_inf(c) for d = d_a d_b, s = d_a + d_b."""
    d, s = d_a * d_b, d_a + d_b
    return {
        "ep1_a": Fraction(d - s + 1, d + 1),
        # d^3 - (s-4) d^2 - (3s-1) d + 2(s-1), in Horner form
        "epinf_a": Fraction(((d - (s - 4)) * d - (3 * s - 1)) * d + 2 * (s - 1),
                            d * (d + 1) * (d + 3)),
        "opent_cue": Fraction(d * d - d_a * d_a - d_b * d_b + 1, d * d - 1),
        # d^4 - (s-13) d^3 - (12s-47) d^2 - 35(s-1) d, in Horner form
        "epinf_c": Fraction((((d - (s - 13)) * d - (12 * s - 47)) * d - 35 * (s - 1)) * d,
                            (d + 1) * (d + 2) * (d + 4) * (d + 6)),
    }


def compare_targets(ours: dict[str, Fraction], program: dict[str, Fraction]) -> list[str]:
    """Exact equality of the benchmark's targets and the program's."""
    problems = []
    for name, value in ours.items():
        theirs = program.get(name)
        if not isinstance(theirs, (Fraction, int)) or Fraction(theirs) != value:
            problems.append(f"target {name}: benchmark has {value}, program has {theirs!r}")
    return problems


@dataclass(frozen=True)
class TableSpec:
    """What a correct CSV of one operation looks like."""

    ns: tuple[int, ...]
    upper: Fraction
    gates: tuple[tuple[int, str, Fraction], ...]


def parse_csv(text: str) -> list[tuple[int, float, float, int]]:
    """Rows (n, mean, stderr, count) of the program's CSV; ValueError if malformed."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("CSV must start with the n,mean,stderr,count header and end in a newline")
    rows = []
    for line in lines[1:-1]:
        n, mean, stderr, count = line.split(",")
        rows.append((int(n), float(mean), float(stderr), int(count)))
    return rows


def check_table(text: str, spec: TableSpec, samples: int, sigma: float = GATE_SIGMA) -> list[str]:
    """n column, counts, stderr, bounds and the sigma gates of one CSV of `samples` samples."""
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [f"malformed CSV: {exc}"]
    if tuple(r[0] for r in rows) != spec.ns:
        return [f"n column {[r[0] for r in rows]} is not {list(spec.ns)}"]
    problems = []
    by_n = {}
    for n, mean, stderr, count in rows:
        by_n[n] = (mean, stderr)
        if count != samples:
            problems.append(f"n={n}: count {count} != {samples} samples requested")
        if not (math.isfinite(stderr) and stderr > 0):
            problems.append(f"n={n}: stderr {stderr!r} is not finite and > 0")
        if not (math.isfinite(mean) and 0 <= Fraction(mean) <= spec.upper):
            problems.append(f"n={n}: mean {mean!r} outside [0, {spec.upper}]")
    if problems:
        return problems
    for n, label, target in spec.gates:
        mean, stderr = by_n[n]
        if abs(Fraction(mean) - target) > sigma * Fraction(stderr):
            z = (mean - float(target)) / stderr
            problems.append(f"n={n}: {label} gate failed, mean {mean!r} target {target} z={z:+.2f}")
    return problems


def check_identical(got: str, reference: str, label: str) -> list[str]:
    """Byte identity of two CSV texts."""
    if got == reference:
        return []
    diff = next((i for i, (a, b) in enumerate(zip(got, reference)) if a != b),
                min(len(got), len(reference)))
    return [f"{label}: CSV differs from the reference at byte {diff}"]


def draw(master_seed: int, index: int, d_a: int, d_b: int, ensemble: str,
         state: str | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The unitary and initial state of one sample, drawn with numpy alone.

    Follows the program's stream contract: Philox keyed by (master_seed,
    index), a complex Ginibre matrix, QR with the R-diagonal phases
    pushed into Q, W W^T symmetrised for COE, then the A and B factors
    of a random product state.
    """
    d = d_a * d_b
    rng = np.random.Generator(np.random.Philox(key=np.array([master_seed, index], dtype=np.uint64)))
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    u = q * (diag / np.abs(diag))
    if ensemble == "coe":
        p = u @ u.T
        u = (p + p.T) / 2.0
    if state is None:
        return u, None
    if state == "fixed":
        psi = np.zeros(d, dtype=np.complex128)
        psi[0] = 1.0
        return u, psi
    factors = []
    for dim in (d_a, d_b):
        if state == "random-complex":
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        else:
            v = rng.standard_normal(dim).astype(np.complex128)
        factors.append(v / np.linalg.norm(v))
    return u, np.kron(*factors)


def _state_purities(states: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """tr rho_A^2 = sum of fourth powers of the Schmidt coefficients, states shape (k, d)."""
    sv = np.linalg.svd(states.reshape(-1, d_a, d_b), compute_uv=False)
    return np.sum(sv**4, axis=1)


def _orbit(u: np.ndarray, psi: np.ndarray, steps: int) -> np.ndarray:
    """U^n psi for n = 1..steps by repeated multiplication, shape (steps, d)."""
    out = np.empty((steps, len(psi)), dtype=np.complex128)
    v = psi
    for k in range(steps):
        v = u @ v
        out[k] = v
    return out


def state_entropies(u: np.ndarray, psi: np.ndarray, d_a: int, d_b: int, n_max: int) -> np.ndarray:
    """S_L(U^n psi) for n = 1..n_max."""
    return 1.0 - _state_purities(_orbit(u, psi, n_max), d_a, d_b)


def operator_entropies(u: np.ndarray, d_a: int, d_b: int, n_max: int) -> np.ndarray:
    """Operator linear entropy of U^n for n = 1..n_max, from the reshuffled matrix."""
    d = d_a * d_b
    out = np.empty(n_max)
    un = np.eye(d, dtype=np.complex128)
    for k in range(n_max):
        un = un @ u
        r = un.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
        out[k] = 1.0 - np.sum(np.linalg.svd(r, compute_uv=False) ** 4) / (d * d)
    return out


def _resonance_gap(u: np.ndarray) -> float:
    """Smallest circular gap between the pair sums phi_a + phi_c (a <= c) of U's eigenphases.

    Every nonzero frequency of S_L(U^n psi) is a difference of two such
    sums, so no frequency is slower than this gap.
    """
    phases = np.angle(np.linalg.eigvals(u))
    i, j = np.triu_indices(len(phases))
    sums = np.sort(np.mod(phases[i] + phases[j], 2 * np.pi))
    return float(min(np.min(np.diff(sums)), sums[0] + 2 * np.pi - sums[-1]))


def direct_time_average(u: np.ndarray, psi: np.ndarray, d_a: int, d_b: int,
                        steps: int) -> tuple[float, float]:
    """Mean of S_L(U^n psi) over n = 1..steps, and its tolerance.

    On a non-resonant spectrum the partial sums P(n) of the entropies
    differ from n times the limit by a bounded oscillation, so the mean
    converges like 1/steps; its scale is the largest |P(n) - n * mean|.
    A frequency w slower than 1/steps has not averaged out yet, and that
    wander underestimates its error by about 8 / (steps * w).  The
    tolerance is wander / steps times max(8, 64 / (steps * gap)), with
    gap the slowest possible frequency: a margin of 8 on both regimes.
    On 700 COE draws at d = 4 x 5 and 2^15 steps the error never
    exceeded 0.13 of it.
    """
    x = 1.0 - _state_purities(_orbit(u, psi, steps), d_a, d_b)
    mean = float(np.mean(x))
    wander = float(np.max(np.abs(np.cumsum(x) - mean * np.arange(1, steps + 1))))
    slow = 64.0 / (steps * _resonance_gap(u))
    return mean, wander / steps * max(8.0, slow) + 1e-12


def check_pair(text: str, x0: np.ndarray, x1: np.ndarray, tol: float) -> list[str]:
    """A two-sample CSV against per-n values recomputed for both samples."""
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [f"malformed two-sample CSV: {exc}"]
    if len(rows) != len(x0):
        return [f"two-sample CSV has {len(rows)} rows, recomputed {len(x0)}"]
    problems = []
    for (n, mean, stderr, count), a, b in zip(rows, map(float, x0), map(float, x1)):
        # two samples: mean (a+b)/2 and stderr sqrt(var/2) = |a-b|/2
        if count != 2 or abs(mean - (a + b) / 2) > tol or abs(stderr - abs(a - b) / 2) > tol:
            problems.append(f"n={n}: program mean {mean!r} stderr {stderr!r} vs recomputed "
                            f"{(a + b) / 2!r} {abs(a - b) / 2!r} (tol {tol:.2e})")
    return problems
