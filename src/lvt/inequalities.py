"""Classical Bell and CHSH bounds on the visibility.

Bell's three-setting inequality assumes local realism plus strict
anticorrelation (P(1,1;b,b) = 0) and, applied to the damped singlet,
reads (V/2)(3 - |a+c-b|^2) <= 1.  The left side peaks at a+c-b = 0,
giving the threshold V = 2/3.

The CHSH inequality needs no extra assumption: (V/2)(|a+b'-b|^2 +
|a'-b'-b|^2 - 6) <= 2.  Aligning a with b'-b and a' with -(b+b')
reduces it to 2 sqrt(2) V sin(phi/2 + pi/4) <= 2 in the angle phi
between b and b', maximal at phi = pi/2, giving V = 1/sqrt(2).

Those closed forms are the cross-check; the API is the two numeric
searches, bell_threshold_numeric and chsh_threshold_numeric, which
locate each maximum by multi-start simplex search over the direction
parameters and return a ThresholdResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import minimize

from .core import checked_directions, dot, seeded_rng
from .estimate import VisibilityEstimate

# Local simplex searches per numeric threshold.
_STARTS = 64


def _check_fields(cfg) -> None:
    for field in fields(cfg):
        value = checked_directions(getattr(cfg, field.name), field.name)
        object.__setattr__(cfg, field.name, value)


@dataclass(frozen=True, eq=False)
class BellConfiguration:
    """Three settings probing the strict-anticorrelation Bell bound.

    Each field is a read-only unit (3,) array, checked and renormalized
    by lvt.core.checked_directions.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True, eq=False)
class ChshConfiguration:
    """Two settings per side, held as BellConfiguration holds its three.

    phi is the angle between b and b2.
    """

    a: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        _check_fields(self)

    @property
    def phi(self) -> float:
        return math.acos(min(1.0, max(-1.0, dot(self.b, self.b2))))


def _bell_expression(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """(3 - |a+c-b|^2)/2, the Bell left side at V = 1."""
    vec = a + c - b
    return (3.0 - float(vec @ vec)) / 2.0


def _chsh_expression(a: np.ndarray, a2: np.ndarray, b: np.ndarray, b2: np.ndarray) -> float:
    """(|a+b2-b|^2 + |a2-b2-b|^2 - 6)/2, the CHSH left side at V = 1."""
    first = a + b2 - b
    second = a2 - b2 - b
    return (float(first @ first) + float(second @ second) - 6.0) / 2.0


def _directions_from_params(params: np.ndarray) -> list[np.ndarray]:
    out = []
    for i in range(0, params.shape[0], 2):
        theta, phi = params[i], params[i + 1]
        sin_t = math.sin(theta)
        out.append(np.array([sin_t * math.cos(phi), sin_t * math.sin(phi), math.cos(theta)]))
    return out


@dataclass(frozen=True)
class ThresholdResult:
    """Numeric maximization outcome for the Bell or the CHSH bound."""

    estimate: VisibilityEstimate
    configuration: BellConfiguration | ChshConfiguration
    max_expression: float


def _multi_start_maximize(objective, n_dirs: int, max_iterations: int, seed: int):
    """Best of _STARTS local simplex searches over spherical coordinates.

    Returns the best value, its unit directions and the evaluation count.
    """
    rng = seeded_rng(seed, 5)
    best_value = -math.inf
    best_params = None
    evaluations = 0
    for _ in range(_STARTS):
        x0 = np.empty(2 * n_dirs)
        x0[0::2] = np.arccos(rng.uniform(-1.0, 1.0, n_dirs))
        x0[1::2] = rng.uniform(0.0, 2.0 * math.pi, n_dirs)
        result = minimize(
            lambda p: -objective(*_directions_from_params(p)),
            x0,
            method="Nelder-Mead",
            options={"maxiter": max_iterations, "xatol": 1e-9, "fatol": 1e-12},
        )
        evaluations += int(result.nfev)
        if -result.fun > best_value:
            best_value = -result.fun
            best_params = result.x
    dirs = [d / np.linalg.norm(d) for d in _directions_from_params(best_params)]
    return float(best_value), dirs, evaluations


def bell_threshold_numeric(seed: int = 0) -> ThresholdResult:
    """Maximize (3 - |a+c-b|^2)/2 over unit a, b, c; threshold is 1/max."""
    best, dirs, evaluations = _multi_start_maximize(_bell_expression, 3, 1200, seed)
    estimate = VisibilityEstimate(
        value=1.0 / best, std_error=0.0, n_settings=3,
        provenance="bell", seed=int(seed), iterations_used=evaluations,
    )
    return ThresholdResult(estimate, BellConfiguration(*dirs), best)


def chsh_threshold_numeric(seed: int = 0) -> ThresholdResult:
    """Maximize the CHSH quartet expression; threshold is 2/max."""
    best, dirs, evaluations = _multi_start_maximize(_chsh_expression, 4, 1600, seed)
    estimate = VisibilityEstimate(
        value=2.0 / best, std_error=0.0, n_settings=2,
        provenance="chsh", seed=int(seed), iterations_used=evaluations,
    )
    return ThresholdResult(estimate, ChshConfiguration(*dirs), best)
