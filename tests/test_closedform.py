from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entpower.closedform import (
    CaseTag,
    cue_form_factor,
    cue_fourth_moment,
    ep1,
    ep_inf,
    fit_form_factor_model,
    gap_leading,
    model_prediction,
    op_ent_cue,
)

A, B, C = CaseTag.A_CUE_COMPLEX, CaseTag.B_COE_COMPLEX, CaseTag.C_COE_REAL


def test_ep1_values():
    assert ep1(A, 4, 5) == Fraction(4, 7)
    assert ep1(B, 4, 5) == Fraction(5496, 9660)
    assert ep1(C, 4, 5) == ep1(B, 4, 5)
    assert ep1(A, 1, 9) == 0


def test_op_ent_cue_values():
    assert op_ent_cue(4, 5) == Fraction(360, 399)
    assert op_ent_cue(1, 7) == 0
    assert op_ent_cue(2, 2) == Fraction(3, 5)
    with pytest.raises(ValueError):
        op_ent_cue(1, 1)


@given(st.integers(2, 30))
def test_op_ent_cue_two_qudits_reduces(q):
    assert op_ent_cue(q, q) == Fraction(q * q - 1, q * q + 1)


def test_ep_inf_values():
    assert ep_inf(A, 4, 5) == Fraction(5496, 9660)
    assert ep_inf(C, 4, 5) == Fraction(162000, 288288)
    assert ep_inf(B, 4, 5) == Fraction(4896288, 8648640)


def test_cue_asymptote_equals_coe_start_exactly():
    for d_a in range(1, 13):
        for d_b in range(1, 13):
            assert ep_inf(A, d_a, d_b) == ep1(B, d_a, d_b)


def test_coe_real_asymptote_sits_below_its_start():
    assert ep_inf(C, 4, 5) < ep1(C, 4, 5)


def test_cue_form_factor_values():
    assert cue_form_factor(1, 20) == 1
    assert cue_form_factor(20, 20) == 20
    assert cue_form_factor(10**6, 20) == 20
    with pytest.raises(ValueError):
        cue_form_factor(0, 20)


def test_cue_fourth_moment_values():
    assert cue_fourth_moment(1, 20) == 2
    assert cue_fourth_moment(20, 20) == 780


@given(st.integers(1, 100), st.integers(1, 100))
def test_fourth_moment_saturation_and_jensen(n, d):
    if n >= d:
        assert cue_fourth_moment(n, d) == 2 * d * d - d
    assert cue_fourth_moment(n, d) >= cue_form_factor(n, d) ** 2


def test_gap_leading_values():
    assert gap_leading(A, 100) == Fraction(1, 40000)
    assert float(gap_leading(A, 100)) == 2.5e-5
    assert float(gap_leading(C, 100)) == 8.75e-5
    assert gap_leading(B, 10) == Fraction(1, 300)
    with pytest.raises(ValueError):
        gap_leading(A, 1)


@pytest.mark.parametrize("case", [A, B, C])
def test_gap_leading_consistent_with_exact_rationals(case):
    # remainder after the 1/d_b^2 term is O(1/d_b^3): scaled by d_b^3
    # it must stay bounded as d_b grows
    scaled = []
    for d_b in (50, 100, 200, 400):
        gap = ep1(case, 2, d_b) - ep_inf(case, 2, d_b)
        scaled.append(abs(float((gap - gap_leading(case, d_b)) * d_b**3)))
    assert max(scaled) < 5.0
    # the sequence settles instead of growing (next order is 1/d_b^3)
    assert abs(scaled[-1] - scaled[-2]) < 0.05 * scaled[-1]


def synthetic_series(coeffs, d=20, n_max=40):
    """(ns, values) of the exact model curve."""
    ns = np.arange(1, n_max + 1)
    k1 = np.minimum(ns, d)
    k2 = np.minimum(2 * ns, d)
    values = coeffs[0] + coeffs[1] * k1**2 + coeffs[2] * k2 + coeffs[3] * k1
    return ns, values


def test_fit_recovers_exact_model():
    coeffs = (0.57, -2.4e-4, 3.1e-4, 9.7e-4)
    fit = fit_form_factor_model(*synthetic_series(coeffs), 20)
    assert np.allclose([fit.c1, fit.c2, fit.c3, fit.c4], coeffs, atol=1e-10)
    assert fit.residual_rms < 1e-12


def test_fit_prediction_saturates_past_heisenberg_time():
    fit = fit_form_factor_model(*synthetic_series((0.5, -1e-4, 2e-4, 1e-3)), 20)
    preds = model_prediction(fit, np.array([20, 25, 40, 100]), 20)
    assert np.max(np.abs(preds - preds[0])) < 1e-10


def test_fit_rejects_rank_deficient_series():
    # with n <= d/2 the K(2n) column is exactly 2 K(n): degenerate design
    ns, values = synthetic_series((0.5, -1e-4, 2e-4, 1e-3), d=20, n_max=10)
    with pytest.raises(ValueError):
        fit_form_factor_model(ns, values, 20)
