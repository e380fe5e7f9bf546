import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from entpower.ensembles import EnsembleTag
from entpower.montecarlo import ExperimentConfig, ExperimentKind, StateMode, run_experiment

settings.register_profile(
    "desk",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")

# one pass/fail line per acceptance criterion, echoed after the pytest
# summary so they are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _config(kind, ensemble, state, n_max, seed):
    return ExperimentConfig(kind=kind, ensemble=ensemble, state_mode=state, d_a=4, d_b=5,
                            n_max=n_max, samples=100_000, master_seed=seed)


# The desk-scale (1e5 sample) reference runs by fixture name; each is
# computed once per session and shared by every criterion that reads it.
FIXTURE_CONFIGS = {
    "cue_ep_run": _config(ExperimentKind.EP_CURVE, EnsembleTag.CUE, StateMode.FIXED_PRODUCT, 40, 101),
    "coe_ep_run": _config(ExperimentKind.EP_CURVE, EnsembleTag.COE, StateMode.FIXED_PRODUCT, 40, 102),
    "cue_opent_run": _config(ExperimentKind.OPENT_CURVE, EnsembleTag.CUE, StateMode.NONE, 40, 103),
    "coe_opent_run": _config(ExperimentKind.OPENT_CURVE, EnsembleTag.COE, StateMode.NONE, 40, 104),
    "form_factor_run": _config(ExperimentKind.FORM_FACTOR, EnsembleTag.CUE, StateMode.NONE, 40, 105),
    "fourth_moment_run": _config(ExperimentKind.FOURTH_MOMENT, EnsembleTag.CUE, StateMode.NONE,
                                 20, 106),
    "asymptotic_real_run": _config(ExperimentKind.ASYMPTOTIC, EnsembleTag.COE,
                                   StateMode.FIXED_PRODUCT, 1, 107),
    "asymptotic_complex_run": _config(ExperimentKind.ASYMPTOTIC, EnsembleTag.COE,
                                      StateMode.RANDOM_COMPLEX_PRODUCT, 1, 108),
}


@pytest.fixture(scope="session")
def cue_ep_run():
    return run_experiment(FIXTURE_CONFIGS["cue_ep_run"])


@pytest.fixture(scope="session")
def coe_ep_run():
    return run_experiment(FIXTURE_CONFIGS["coe_ep_run"])


@pytest.fixture(scope="session")
def cue_opent_run():
    return run_experiment(FIXTURE_CONFIGS["cue_opent_run"])


@pytest.fixture(scope="session")
def coe_opent_run():
    return run_experiment(FIXTURE_CONFIGS["coe_opent_run"])


@pytest.fixture(scope="session")
def form_factor_run():
    return run_experiment(FIXTURE_CONFIGS["form_factor_run"])


@pytest.fixture(scope="session")
def fourth_moment_run():
    return run_experiment(FIXTURE_CONFIGS["fourth_moment_run"])


@pytest.fixture(scope="session")
def asymptotic_real_run():
    return run_experiment(FIXTURE_CONFIGS["asymptotic_real_run"])


@pytest.fixture(scope="session")
def asymptotic_complex_run():
    return run_experiment(FIXTURE_CONFIGS["asymptotic_complex_run"])


def curve_stats(table):
    means = np.array([r.mean for r in table.rows])
    stderrs = np.array([r.stderr for r in table.rows])
    return means, stderrs
