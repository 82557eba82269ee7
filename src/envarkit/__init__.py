"""Causal discovery for structural VAR(1) models under equal noise variance.

The pipeline: estimate the reduced form by least squares, anchor the set of
structural models that induce it at a Cholesky-based canonical representative,
search that set for a sparse representative with (approximately) unit
contemporaneous diagonal, and evaluate recovered models with equivalence-aware
alignment discrepancies.
"""

from .envar_optimizer import (
    EnvarConfig,
    EnvarSolution,
    default_config,
    envar_descents,
    solve_envar,
)
from .eqvar_gds import GdsResult, fit_eqvar_gds
from .equivalence import (
    AlignmentResult,
    OrbitElement,
    align_obs,
    align_sf,
    obs_equivalent,
    orbit_transform,
    sf_equivalent,
)
from .eval_metrics import (
    CentralityReport,
    ScoreReport,
    binarize_cumulative,
    centralities,
    score,
)
from .model_core import (
    ReducedForm,
    StationaryLaw,
    StructuralModel,
    TimeSeries,
    gram_orthogonal_factor,
    is_admissible,
    is_normalized,
    is_stable,
    simulate,
    spectral_radius,
    stationary_covariance,
    to_reduced_form,
)
from .reduced_estimation import (
    CanonicalRepresentative,
    OlsFit,
    canonical_from_reduced,
    canonical_representative,
    center,
    empirical_orbit_member,
    fit_ols,
)
from .synth import (
    GeneratorConfig,
    GroundTruthInstance,
    generate_instance,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "CanonicalRepresentative",
    "CentralityReport",
    "EnvarConfig",
    "EnvarSolution",
    "GdsResult",
    "GeneratorConfig",
    "GroundTruthInstance",
    "OlsFit",
    "OrbitElement",
    "ReducedForm",
    "ScoreReport",
    "StationaryLaw",
    "StructuralModel",
    "TimeSeries",
    "align_obs",
    "align_sf",
    "binarize_cumulative",
    "canonical_from_reduced",
    "canonical_representative",
    "center",
    "centralities",
    "default_config",
    "empirical_orbit_member",
    "envar_descents",
    "fit_eqvar_gds",
    "fit_ols",
    "generate_instance",
    "gram_orthogonal_factor",
    "is_admissible",
    "is_normalized",
    "is_stable",
    "obs_equivalent",
    "orbit_transform",
    "score",
    "sf_equivalent",
    "simulate",
    "spectral_radius",
    "stationary_covariance",
    "to_reduced_form",
]
