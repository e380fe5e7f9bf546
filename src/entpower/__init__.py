"""Entangling power and operator entanglement of iterated random unitaries.

Monte Carlo estimation over the circular ensembles (CUE/COE) with
closed-form cross-checks: how fast the mean linear entropy generated
by U^n decays with n, where it saturates, and how both relate to the
spectral form factor.
"""

# set before the submodule imports: montecarlo reports it in run metadata
__version__ = "0.1.0"

from .closedform import (
    CaseTag,
    FitResult,
    cue_form_factor,
    cue_fourth_moment,
    ep1,
    ep_inf,
    fit_form_factor_model,
    gap_leading,
    model_prediction,
    op_ent_cue,
)
from .dynamics import (
    EntropySeries,
    SpectralDecomposition,
    asymptotic_entropy_spectral,
    entropy_series,
    form_factor_series,
    matrix_power,
    operator_entanglement_series,
    spectral_decompose,
)
from .ensembles import (
    BipartiteDims,
    EnsembleTag,
    FieldTag,
    PureState,
    RandomStream,
    UnitaryMatrix,
    basis_product_state,
    product_state,
    random_state,
    sample_coe,
    sample_cue,
)
from .entanglement import (
    ReducedDensityMatrix,
    linear_entropy,
    operator_entanglement,
    reduced_density_a,
    reduced_density_b,
)
from .montecarlo import (
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    ResultRow,
    ResultTable,
    StateMode,
    run_experiment,
    z_score,
)

__all__ = [
    "BipartiteDims",
    "UnitaryMatrix",
    "PureState",
    "RandomStream",
    "EnsembleTag",
    "FieldTag",
    "sample_cue",
    "sample_coe",
    "random_state",
    "product_state",
    "basis_product_state",
    "ReducedDensityMatrix",
    "reduced_density_a",
    "reduced_density_b",
    "linear_entropy",
    "operator_entanglement",
    "SpectralDecomposition",
    "EntropySeries",
    "spectral_decompose",
    "matrix_power",
    "entropy_series",
    "operator_entanglement_series",
    "asymptotic_entropy_spectral",
    "form_factor_series",
    "CaseTag",
    "FitResult",
    "ep1",
    "op_ent_cue",
    "ep_inf",
    "cue_form_factor",
    "cue_fourth_moment",
    "gap_leading",
    "fit_form_factor_model",
    "model_prediction",
    "ConfigError",
    "ExperimentKind",
    "StateMode",
    "ExperimentConfig",
    "ResultRow",
    "ResultTable",
    "run_experiment",
    "z_score",
    "__version__",
]
