"""Statistical acceptance gates for the desk-scale reference runs.

Each test covers one headline claim at 1e5 samples, d_A=4, d_B=5
(d=20) unless stated otherwise, and records a single pass/fail line
echoed in the terminal summary.  Gates are in standard-error units
(5 sigma for absolute values, 3 pooled sigma for differences), so a
red here means the estimator and the closed form disagree beyond
Monte Carlo noise, not that a tolerance was guessed badly.
"""

import itertools
from fractions import Fraction

import numpy as np

from entpower.cli import table_to_csv
from entpower.closedform import CaseTag, ep1, ep_inf, gap_leading, gate_form_factor_fit
from entpower.dynamics import asymptotic_entropies, decompose_block, matrix_power, operator_curves
from entpower.ensembles import BipartiteDims, EnsembleTag, FieldTag
from entpower.montecarlo import (
    ExperimentConfig,
    ExperimentKind,
    StateMode,
    exact_targets,
    run_experiment,
    z_score,
)

from conftest import ACCEPTANCE_LINES, FIXTURE_CONFIGS, curve_stats
from oracles import (
    haar_unitary,
    operator_entanglement_naive,
    stream,
    time_average_entropy,
    unit_vector,
)

DIMS = BipartiteDims(4, 5)


def targets(fixture: str) -> dict:
    """Exact means of a reference run's rows, by n, as the closed forms give them."""
    return {n: value for n, _, value in exact_targets(FIXTURE_CONFIGS[fixture])}


def record(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {label}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_cue_ep_first_step(cue_ep_run):
    row = cue_ep_run.row_for(1)
    target = targets("cue_ep_run")[1]
    assert target == Fraction(4, 7)
    z = z_score(row.mean, row.stderr, target)
    record(1, "cue ep n=1 vs 4/7", abs(z) <= 5.0,
           f"mean={row.mean:.7f} target={float(target):.7f} z={z:+.2f} gate=5")


def test_criterion_02_cue_ep_plateau(cue_ep_run):
    exact = targets("cue_ep_run")
    assert all(exact[n] == Fraction(5496, 9660) for n in (20, 30, 40))
    zs = []
    for n in (20, 30, 40):
        row = cue_ep_run.row_for(n)
        zs.append(z_score(row.mean, row.stderr, exact[n]))
    r20, r40 = cue_ep_run.row_for(20), cue_ep_run.row_for(40)
    pooled = np.hypot(r20.stderr, r40.stderr)
    flat = abs(r20.mean - r40.mean) / pooled
    ok = all(abs(z) <= 5.0 for z in zs) and flat < 3.0
    record(2, "cue ep plateau n=20,30,40 vs 5496/9660", ok,
           f"z={['%+.2f' % z for z in zs]} |S(20)-S(40)|={flat:.2f} pooled se (gates 5, 3)")


def test_criterion_03_coe_real_asymptote(asymptotic_real_run):
    row = asymptotic_real_run.row_for(-1)
    target = targets("asymptotic_real_run")[-1]
    assert target == Fraction(162000, 288288)
    z = z_score(row.mean, row.stderr, target)
    record(3, "coe fixed-real asymptote vs 162000/288288", abs(z) <= 5.0,
           f"mean={row.mean:.7f} target={float(target):.7f} z={z:+.2f} gate=5")


def test_criterion_04_coe_complex_asymptote(asymptotic_complex_run):
    row = asymptotic_complex_run.row_for(-1)
    target = targets("asymptotic_complex_run")[-1]
    assert target == Fraction(4896288, 8648640)
    z = z_score(row.mean, row.stderr, target)
    record(4, "coe random-complex asymptote vs 4896288/8648640", abs(z) <= 5.0,
           f"mean={row.mean:.7f} target={float(target):.7f} z={z:+.2f} gate=5")


def test_criterion_05_cue_operator_entanglement(cue_opent_run):
    row = cue_opent_run.row_for(1)
    target = targets("cue_opent_run")[1]
    assert target == Fraction(360, 399)
    z = z_score(row.mean, row.stderr, target)
    record(5, "cue operator entanglement n=1 vs 360/399", abs(z) <= 5.0,
           f"mean={row.mean:.7f} target={float(target):.7f} z={z:+.2f} gate=5")


def test_criterion_06_form_factor_suite(form_factor_run, fourth_moment_run):
    exact2, exact4 = targets("form_factor_run"), targets("fourth_moment_run")
    assert [exact2[n] for n in (1, 5, 19, 20, 40)] == [1, 5, 19, 20, 20]
    assert [exact4[n] for n in (1, 10, 20)] == [2, 200, 780]
    zs2 = []
    for n in (1, 5, 19, 20, 40):
        row = form_factor_run.row_for(n)
        zs2.append(z_score(row.mean, row.stderr, exact2[n]))
    zs4 = []
    for n in (1, 10, 20):
        row = fourth_moment_run.row_for(n)
        zs4.append(z_score(row.mean, row.stderr, exact4[n]))
    ok = all(abs(z) <= 5.0 for z in zs2 + zs4)
    record(6, "cue |tr U^n|^2 and |tr U^n|^4 vs min-rules", ok,
           f"z2={['%+.2f' % z for z in zs2]} z4={['%+.2f' % z for z in zs4]} gate=5")


def test_criterion_07_oracle_equivalences():
    # (i) the n = 1 operator curve, from the Choi synthesis, vs the eightfold index sum
    # each part draws its unitaries (and states) in turn from one stream
    rng = stream(7001, 0)
    shapes = [(2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (2, 6), (4, 3), (6, 2), (5, 2), (3, 2)]
    worst_opent = 0.0
    for i in range(100):
        dims = BipartiteDims(*shapes[i % len(shapes)])
        u = haar_unitary(rng, dims.d)
        fast = operator_curves(decompose_block(u[None], dims), 1)[0, 0]
        worst_opent = max(worst_opent, abs(fast - operator_entanglement_naive(u, dims)))
    # (ii) pairing-formula asymptote vs the brute-force time average
    rng = stream(7002, 0)
    worst_asym = 0.0
    for _ in range(50):
        u = haar_unitary(rng, 20)
        psi = unit_vector(rng, 20, FieldTag.COMPLEX)
        block = decompose_block(u[None], DIMS)
        spectral = asymptotic_entropies(block, psi[None])[0][0]
        worst_asym = max(worst_asym, abs(spectral - time_average_entropy(u, psi, DIMS, 100_000)))
    # (iii) eigenbasis-synthesized powers vs repeated multiplication
    rng = stream(7003, 0)
    worst_pow = 0.0
    for _ in range(20):
        u = haar_unitary(rng, 20)
        block = decompose_block(u[None], DIMS)
        direct = np.eye(20, dtype=complex)
        for n in range(1, 41):
            direct = direct @ u
            worst_pow = max(worst_pow, np.max(np.abs(matrix_power(block, n)[0] - direct)))
    ok = worst_opent < 1e-10 and worst_asym < 2e-3 and worst_pow < 1e-8
    record(7, "oracle equivalences (opent, asymptote, powers)", ok,
           f"opent={worst_opent:.2e}<1e-10 asym={worst_asym:.2e}<2e-3 pow={worst_pow:.2e}<1e-8")


def test_criterion_08_exact_identities():
    identity = all(
        ep_inf(CaseTag.A_CUE_COMPLEX, da, db) == ep1(CaseTag.B_COE_COMPLEX, da, db)
        for da, db in itertools.product(range(1, 13), repeat=2))
    rel_devs = {}
    for case in CaseTag:
        gap = ep1(case, 2, 400) - ep_inf(case, 2, 400)
        rel_devs[case.value] = abs(float(gap / gap_leading(case, 400)) - 1.0)
    ok = identity and all(dev < 0.02 for dev in rel_devs.values())
    record(8, "epinf(a)=ep1(b) exactly; 1/d_B^2 gap coefficients", ok,
           f"identity d<=12 {identity}, gap rel devs at d_B=400 "
           + " ".join(f"{k}={v:.4f}" for k, v in rel_devs.items()) + " (gate 0.02)")


def test_criterion_09_form_factor_model_fit(cue_ep_run):
    means, stderrs = curve_stats(cue_ep_run)
    ns = np.array([r.n for r in cue_ep_run.rows])
    gate = gate_form_factor_fit(ns, means, stderrs, 4, 5)
    rms = gate.fit.residual_rms
    record(9, "cue ep curve follows min(n,d) form-factor model",
           gate.residual_ok and gate.plateau_ok,
           f"residual_rms={rms:.2e} ({rms / gate.pooled_stderr:.2f} pooled se, "
           f"gate 3) plateau dev={gate.plateau_deviation:.2f} pooled se (gate 3)")


def test_criterion_10_monotone_decay(cue_ep_run, coe_ep_run, cue_opent_run, coe_opent_run):
    worst = {}
    for name, table in [("cue_ep", cue_ep_run), ("coe_ep", coe_ep_run),
                        ("cue_opent", cue_opent_run), ("coe_opent", coe_opent_run)]:
        means, stderrs = curve_stats(table)
        pooled = np.hypot(stderrs[1:], stderrs[:-1])
        worst[name] = float(np.max(np.diff(means) / pooled))
    ok = all(z < 3.0 for z in worst.values())
    record(10, "no consecutive-n increase beyond noise, all four curves", ok,
           " ".join(f"{k}={v:+.2f}" for k, v in worst.items()) + " (gate 3)")


def test_criterion_11_parallel_determinism():
    configs = [
        ExperimentConfig(ExperimentKind.EP_CURVE, EnsembleTag.CUE, StateMode.FIXED_PRODUCT,
                         2, 3, 6, 1536, 11),
        ExperimentConfig(ExperimentKind.OPENT_CURVE, EnsembleTag.COE, StateMode.NONE,
                         2, 2, 4, 1024, 12),
    ]
    ok = True
    for cfg in configs:
        serial = table_to_csv(run_experiment(cfg, parallelism=1))
        parallel = table_to_csv(run_experiment(cfg, parallelism=8))
        ok = ok and serial.encode() == parallel.encode()
    record(11, "parallelism 1 vs 8 gives byte-identical csv", ok,
           f"{len(configs)} configs compared byte for byte")


def test_criterion_12_coe_ep_first_step(coe_ep_run):
    row = coe_ep_run.row_for(1)
    target = targets("coe_ep_run")[1]
    assert target == Fraction(458, 805)
    z = z_score(row.mean, row.stderr, target)
    record(12, "coe ep n=1 vs 458/805", abs(z) <= 5.0,
           f"mean={row.mean:.7f} target={float(target):.7f} z={z:+.2f} gate=5")


def test_reference_runs_reach_every_exact_target_label():
    # every closed form that verify can gate is gated by some criterion
    possible = set()
    for kind, ensemble in itertools.product(ExperimentKind, (EnsembleTag.CUE, EnsembleTag.COE)):
        states = [StateMode.NONE]
        if kind in (ExperimentKind.EP_CURVE, ExperimentKind.ASYMPTOTIC):
            states = [StateMode.FIXED_PRODUCT, StateMode.RANDOM_COMPLEX_PRODUCT,
                      StateMode.RANDOM_REAL_PRODUCT]
        for state in states:
            cfg = ExperimentConfig(kind, ensemble, state, 2, 3, 12, 2, 0)
            possible |= {label for _, label, _ in exact_targets(cfg)}
    reached = {label for cfg in FIXTURE_CONFIGS.values() for _, label, _ in exact_targets(cfg)}
    assert reached == possible
