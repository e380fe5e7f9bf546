"""Exact ensemble-average reference values, in rational arithmetic.

Means of the linear-entropy observables over CUE/COE admit closed
forms: the n = 1 entangling power for complex and real product states,
the CUE operator entanglement, the n -> infinity entangling powers for
the three ensemble/state cases, and the CUE form-factor moments.  All
are kept as Fractions (or ints); floats are derived at the comparison
site, never stored, so the Monte Carlo gates carry no representation
error of their own.

Case naming: A = CUE acting on complex product states, B = COE on
complex product states (state-averaged), C = COE on real product
states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

__all__ = [
    "CaseTag",
    "FitResult",
    "FitGate",
    "ep1",
    "op_ent_cue",
    "ep_inf",
    "cue_form_factor",
    "cue_fourth_moment",
    "gap_leading",
    "fit_form_factor_model",
    "model_prediction",
    "gate_form_factor_fit",
]


class CaseTag(Enum):
    A_CUE_COMPLEX = "a"
    B_COE_COMPLEX = "b"
    C_COE_REAL = "c"


def _check_dims(d_a: int, d_b: int) -> int:
    if d_a < 1 or d_b < 1:
        raise ValueError(f"subsystem dimensions must be >= 1, got ({d_a}, {d_b})")
    return d_a * d_b


def ep1(case: CaseTag, d_a: int, d_b: int) -> Fraction:
    """Mean linear entropy after one application, exact.

    Case A is the mean entropy of a Haar-random complex state,
    (d - d_a - d_b + 1) / (d + 1).  Cases B and C share one value (the
    mean entropy of a random real state),

        [d^3 - (s-4) d^2 - (3s-1) d + 2(s-1)] / [d (d+1) (d+3)]

    with s = d_a + d_b.
    """
    d = _check_dims(d_a, d_b)
    if case is CaseTag.A_CUE_COMPLEX:
        return Fraction(d - (d_a + d_b) + 1, d + 1)
    s = d_a + d_b
    num = d**3 - (s - 4) * d**2 - (3 * s - 1) * d + 2 * (s - 1)
    return Fraction(num, d * (d + 1) * (d + 3))


def op_ent_cue(d_a: int, d_b: int) -> Fraction:
    """CUE mean operator entanglement, (d^2 - d_a^2 - d_b^2 + 1)/(d^2 - 1).

    Reduces to (q^2 - 1)/(q^2 + 1) for d_a = d_b = q.
    """
    d = _check_dims(d_a, d_b)
    if d < 2:
        raise ValueError("operator entanglement average is undefined for d = 1")
    return Fraction(d * d - (d_a * d_a + d_b * d_b) + 1, d * d - 1)


def ep_inf(case: CaseTag, d_a: int, d_b: int) -> Fraction:
    """Infinite-time entangling power, exact, per case.

    Case A equals ep1 for case B/C at the same dimensions (the
    CUE asymptote coincides with the COE n = 1 value).  Case C is

        [d^4 - (s-13) d^3 - (12s-47) d^2 - 35(s-1) d] / [(d+1)(d+2)(d+4)(d+6)]

    with s = d_a + d_b.  Case B is X / Y with

        X = d^5 + 12 d^4 - (q-41) d^3 - [12q + 2s - 30] d^2
            - (38q + 18) d - 16q + 56s - 40,
        Y = (d_a+1)(d_b+1)(d+1)(d+2)(d+4)(d+6),

    q = d_a^2 + d_b^2.
    """
    d = _check_dims(d_a, d_b)
    if case is CaseTag.A_CUE_COMPLEX:
        return ep1(CaseTag.B_COE_COMPLEX, d_a, d_b)
    s = d_a + d_b
    if case is CaseTag.C_COE_REAL:
        num = d**4 - (s - 13) * d**3 - (12 * s - 47) * d**2 - 35 * (s - 1) * d
        return Fraction(num, (d + 1) * (d + 2) * (d + 4) * (d + 6))
    q = d_a * d_a + d_b * d_b
    x = (
        d**5
        + 12 * d**4
        - (q - 41) * d**3
        - (12 * q + 2 * s - 30) * d**2
        - (38 * q + 18) * d
        - 16 * q
        + 56 * s
        - 40
    )
    y = (d_a + 1) * (d_b + 1) * (d + 1) * (d + 2) * (d + 4) * (d + 6)
    return Fraction(x, y)


def cue_form_factor(n: int, d: int) -> int:
    """CUE mean of |tr U^n|^2: piecewise linear, min(n, d)."""
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got n={n}, d={d}")
    return min(n, d)


def cue_fourth_moment(n: int, d: int) -> int:
    """CUE mean of |tr U^n|^4: 2 min(n,d)^2 + min(2n,d) - 2 min(n,d)."""
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got n={n}, d={d}")
    k = min(n, d)
    return 2 * k * k + min(2 * n, d) - 2 * k


def gap_leading(case: CaseTag, d_b: int) -> Fraction:
    """Leading term of ep1 - ep_inf for d_a = 2 and large d_b.

    1/(4 d_b^2), 1/(3 d_b^2), 7/(8 d_b^2) for cases A, B, C.  Only the
    d_a = 2 expansion is known, so there is no d_a argument.
    """
    if d_b < 2:
        raise ValueError(f"expansion needs d_b >= 2, got {d_b}")
    coeff = {
        CaseTag.A_CUE_COMPLEX: Fraction(1, 4),
        CaseTag.B_COE_COMPLEX: Fraction(1, 3),
        CaseTag.C_COE_REAL: Fraction(7, 8),
    }[case]
    return coeff / (d_b * d_b)


@dataclass(frozen=True)
class FitResult:
    """Least-squares coefficients of the form-factor model of S(n)."""

    c1: float
    c2: float
    c3: float
    c4: float
    residual_rms: float


def _design_matrix(ns: np.ndarray, d: int) -> np.ndarray:
    k1 = np.minimum(ns, d).astype(np.float64)
    k2 = np.minimum(2 * ns, d).astype(np.float64)
    return np.column_stack([np.ones_like(k1), k1 * k1, k2, k1])


def fit_form_factor_model(ns: np.ndarray, values: np.ndarray, d: int) -> FitResult:
    """OLS fit of S(n) = c1 + c2 K(n)^2 + c3 K(2n) + c4 K(n), K = min(., d).

    A CUE-averaged entropy curve must have this shape (its time
    dependence enters only through fourth-moment phase averages, which
    reduce to the three basic form factors).  values[j] is S(ns[j]);
    the steps should cover both the ramp n < d and the plateau n >= d,
    otherwise the design matrix degenerates and a rank error is raised.
    """
    ns = np.asarray(ns)
    values = np.asarray(values, dtype=np.float64)
    design = _design_matrix(ns, d)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 4:
        raise ValueError(
            f"design matrix rank {rank} < 4; the series must resolve all model regimes (need n past {d})")
    residual = design @ coeffs - values
    rms = float(np.sqrt(np.mean(residual**2)))
    return FitResult(*map(float, coeffs), rms)


def model_prediction(fit: FitResult, ns: np.ndarray, d: int) -> np.ndarray:
    """Evaluate a fitted form-factor model at the given steps."""
    return _design_matrix(np.asarray(ns), d) @ np.array([fit.c1, fit.c2, fit.c3, fit.c4])


@dataclass(frozen=True)
class FitGate:
    """Form-factor fit of a CUE entropy curve and its two 3-sigma checks.

    Sigma is the pooled stderr, the RMS of the rows' stderrs.  The checks
    are the residual RMS and the plateau at n = 2d against ep_inf(a).
    """

    fit: FitResult
    pooled_stderr: float
    plateau: float
    target: Fraction
    plateau_deviation: float
    residual_ok: bool
    plateau_ok: bool


def gate_form_factor_fit(ns: np.ndarray, values: np.ndarray, stderrs, d_a: int, d_b: int) -> FitGate:
    """Fit and gate a CUE entropy curve (ns, values) reaching n = 2d, with each mean's stderr."""
    d = _check_dims(d_a, d_b)
    fit = fit_form_factor_model(ns, values, d)
    pooled = float(np.sqrt(np.mean(np.asarray(stderrs) ** 2)))
    plateau = float(model_prediction(fit, np.array([2 * d]), d)[0])
    target = ep_inf(CaseTag.A_CUE_COMPLEX, d_a, d_b)
    deviation = abs(plateau - float(target)) / pooled
    return FitGate(fit, pooled, plateau, target, deviation,
                   fit.residual_rms < 3.0 * pooled, deviation < 3.0)
