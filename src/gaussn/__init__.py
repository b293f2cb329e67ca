"""Minimal observation count for treating a Bayesian posterior as Gaussian.

The library covers translation-form-invariant one-parameter models: the
density, maximum-likelihood estimation and sampling for four bundled
variants, Fisher information by both definitions, the expected
log-likelihood functional H with its derivatives, the Taylor-remainder
criterion that yields the minimal sample size, and tabulated posterior
comparisons against the Gaussian reference.

Importing the package loads every submodule but not numpy: each module
binds numpy the first time it uses it (``_lazy``), so the closed-form
answers (``minimal_n``, ``criterion_report``, ``table_rows``) never load it.
"""

__version__ = "0.1.0"

from .criterion import (
    CriterionReport,
    criterion_report,
    detect_remainder_order,
    minimal_n,
    remainder_ratio,
    table_rows,
)
from .divergence import (
    HEvaluation,
    h_closed_form,
    h_derivative_numeric,
    h_functional,
    max_abs_derivative,
)
from .errors import (
    GaussnError,
    InputError,
    NumericalError,
    QuadratureError,
    UnsupportedModelError,
)
from .information import (
    fisher_curvature_form,
    fisher_gradient_form,
    prior_measure,
)
from .models import (
    AmbiguousMaximumWarning,
    ModelId,
    ModelSpec,
    Observations,
    density,
    log_density,
    make_model,
    ml_estimate,
    normalization_check,
    sample,
)
from .posterior import (
    ComparisonReport,
    PosteriorGrid,
    compare_to_gaussian,
    gaussian_reference,
    posterior_asymptotic,
    posterior_from_observations,
)
from .quadrature import (
    IntegrationResult,
    QuadratureConfig,
    integrate,
    integrate_with_log_singularity,
)

__all__ = [
    "__version__",
    "AmbiguousMaximumWarning",
    "ComparisonReport",
    "CriterionReport",
    "GaussnError",
    "HEvaluation",
    "InputError",
    "IntegrationResult",
    "ModelId",
    "ModelSpec",
    "NumericalError",
    "Observations",
    "PosteriorGrid",
    "QuadratureConfig",
    "QuadratureError",
    "UnsupportedModelError",
    "compare_to_gaussian",
    "criterion_report",
    "density",
    "detect_remainder_order",
    "fisher_curvature_form",
    "fisher_gradient_form",
    "gaussian_reference",
    "h_closed_form",
    "h_derivative_numeric",
    "h_functional",
    "integrate",
    "integrate_with_log_singularity",
    "log_density",
    "make_model",
    "max_abs_derivative",
    "minimal_n",
    "ml_estimate",
    "normalization_check",
    "posterior_asymptotic",
    "posterior_from_observations",
    "prior_measure",
    "remainder_ratio",
    "sample",
    "table_rows",
]
