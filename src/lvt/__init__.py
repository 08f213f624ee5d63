"""Threshold visibility for local-hidden-variable representability.

The damped singlet's joint outcome probabilities admit a local model
exactly when the visibility is small enough.  This package brackets
the threshold four independent ways, each measuring its own quantity:

- analytic: a Legendre-series model is local for every direction
  pair up to V = 1/3, so 1/3 is a lower bound on the threshold.
- search: a max-min over settings of certified lower bounds, one per
  settings ensemble, in one of two classes.  Below M = (N+1)^2 hidden
  states it searches the paper's 4-state SVD construction, whose limit
  as N grows is 1/3; from M = (N+1)^2 on, the full local polytope, by
  a see-saw finish over (N+1)^2 states.
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
    validate_model,
)
from .core import (
    legendre,
    quantum_joint,
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
    bell_threshold_numeric,
    chsh_threshold_numeric,
)
from .oracle import max_visibility_lp
from .search import (
    SearchConfig,
    extrapolate,
    inner_maximize,
    n_sweep,
    outer_minimize,
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
    "ResourceLimitError",
    "SearchConfig",
    "SettingsEnsemble",
    "ThresholdResult",
    "ValidationReport",
    "VisibilityEstimate",
    "analytic_threshold",
    "bell_threshold_numeric",
    "chsh_threshold_numeric",
    "extrapolate",
    "inner_maximize",
    "legendre",
    "max_visibility_lp",
    "model_for_visibility",
    "n_sweep",
    "outer_minimize",
    "quantum_joint",
    "reconstruct_joint",
    "response",
    "sphere_quadrature",
    "state_to_model",
    "validate_model",
    "validity_flip_visibility",
    "validity_scan",
]
