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
    SpectralBlock,
    asymptotic_entropies,
    decompose_block,
    entropy_curves,
    form_factors,
    matrix_power,
    operator_curves,
)
from .ensembles import (
    BipartiteDims,
    EnsembleTag,
    FieldTag,
    PhiloxStreams,
    basis_product_state,
    sample_block,
)
from .entanglement import purity_batch
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
    "EnsembleTag",
    "FieldTag",
    "PhiloxStreams",
    "sample_block",
    "basis_product_state",
    "purity_batch",
    "SpectralBlock",
    "decompose_block",
    "matrix_power",
    "entropy_curves",
    "operator_curves",
    "asymptotic_entropies",
    "form_factors",
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
