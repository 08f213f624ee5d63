"""Threshold visibility for local-hidden-variable representability.

The damped singlet's joint outcome probabilities admit a local model
exactly when the visibility is small enough.  This package brackets
the threshold four independent ways, each measuring its own quantity:

- analytic: a Legendre-series model is local for every direction
  pair up to V = 1/3, so 1/3 is a lower bound on the threshold.
- search: the SVD construction's max-min over settings, a certified
  lower bound for each settings ensemble; at M = 4 hidden states its
  limit as N grows is 1/3.
- oracle: the LP over deterministic strategies gives the exact
  V*(settings) for small N; minimized over settings, that is an upper
  bound on the threshold.
- Bell and CHSH: a violated inequality bounds the threshold from
  above.  CHSH's 1/sqrt(2) is such an upper bound.  Bell's 2/3 assumes
  strict anticorrelation (B = -A at equal settings), which the damped
  correlations lack at V < 1, so it is not a bound on the threshold.
"""

__version__ = "0.1.0"

from .analytic import (
    LegendreLhvModel,
    analytic_threshold,
    model_for_visibility,
    reconstruct_joint,
    response,
    validity_flip_visibility,
    validity_scan,
)
from .construct import (
    DEFAULT_RHO_MIN,
    DiscreteLhvModel,
    GramSvd,
    SettingsEnsemble,
    ValidationReport,
    gram_svd,
    validate_model,
)
from .core import (
    legendre,
    quantum_joint,
    quantum_marginal,
    sphere_quadrature,
)
from .errors import (
    ConstructionFailureError,
    InvalidInputError,
    InvalidModelError,
    LvtError,
    ResourceLimitError,
)
from .estimate import VisibilityEstimate
from .inequalities import (
    BellConfiguration,
    ChshConfiguration,
    ThresholdResult,
    aligned_chsh_configuration,
    bell_lhs,
    bell_threshold_numeric,
    chsh_angle_lhs,
    chsh_lhs,
    chsh_threshold_numeric,
)
from .oracle import (
    MAX_ORACLE_SETTINGS,
    max_visibility_for_gram,
    max_visibility_lp,
)
from .search import (
    PowerLawFit,
    SearchConfig,
    extrapolate,
    fit_power_law,
    inner_maximize,
    n_sweep,
    outer_minimize,
    perturb_settings,
    state_to_model,
)

__all__ = [
    "__version__",
    "BellConfiguration",
    "ChshConfiguration",
    "ConstructionFailureError",
    "DEFAULT_RHO_MIN",
    "DiscreteLhvModel",
    "GramSvd",
    "InvalidInputError",
    "InvalidModelError",
    "LegendreLhvModel",
    "LvtError",
    "MAX_ORACLE_SETTINGS",
    "PowerLawFit",
    "ResourceLimitError",
    "SearchConfig",
    "SettingsEnsemble",
    "ThresholdResult",
    "ValidationReport",
    "VisibilityEstimate",
    "aligned_chsh_configuration",
    "analytic_threshold",
    "bell_lhs",
    "bell_threshold_numeric",
    "chsh_angle_lhs",
    "chsh_lhs",
    "chsh_threshold_numeric",
    "extrapolate",
    "fit_power_law",
    "gram_svd",
    "inner_maximize",
    "legendre",
    "max_visibility_for_gram",
    "max_visibility_lp",
    "model_for_visibility",
    "n_sweep",
    "outer_minimize",
    "perturb_settings",
    "quantum_joint",
    "quantum_marginal",
    "reconstruct_joint",
    "response",
    "sphere_quadrature",
    "state_to_model",
    "validate_model",
    "validity_flip_visibility",
    "validity_scan",
]
