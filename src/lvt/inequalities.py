"""Classical Bell and CHSH bounds on the visibility.

Bell's three-setting inequality assumes local realism plus strict
anticorrelation (P(1,1;b,b) = 0) and, applied to the damped singlet,
reads (V/2)(3 - |a+c-b|^2) <= 1.  The left side peaks at a+c-b = 0,
giving the threshold V = 2/3.

The CHSH inequality needs no extra assumption: (V/2)(|a+b'-b|^2 +
|a'-b'-b|^2 - 6) <= 2.  Aligning a with b'-b and a' with -(b+b')
reduces it to 2 sqrt(2) V sin(phi/2 + pi/4) <= 2 in the angle phi
between b and b', maximal at phi = pi/2, giving V = 1/sqrt(2).

Both maxima are also located numerically by multi-start simplex search
over the direction parameters, cross-checking the closed forms; each
search returns a ThresholdResult.  The search and bell_lhs / chsh_lhs
evaluate the same expression, written once at V = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import Direction, as_direction, require_visibility, seeded_rng
from .errors import InvalidInputError
from .estimate import VisibilityEstimate

# Local simplex searches per numeric threshold.
_STARTS = 64


@dataclass(frozen=True)
class BellConfiguration:
    """Three settings probing the strict-anticorrelation Bell bound."""

    a: Direction
    b: Direction
    c: Direction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, as_direction(getattr(self, name)))


@dataclass(frozen=True)
class ChshConfiguration:
    """Two settings per side; phi is the angle between b and b2."""

    a: Direction
    a2: Direction
    b: Direction
    b2: Direction

    def __post_init__(self) -> None:
        for name in ("a", "a2", "b", "b2"):
            object.__setattr__(self, name, as_direction(getattr(self, name)))

    @property
    def phi(self) -> float:
        return math.acos(min(1.0, max(-1.0, self.b.dot(self.b2))))


def _bell_expression(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """(3 - |a+c-b|^2)/2, the Bell left side at V = 1."""
    vec = a + c - b
    return (3.0 - float(vec @ vec)) / 2.0


def _chsh_expression(a: np.ndarray, a2: np.ndarray, b: np.ndarray, b2: np.ndarray) -> float:
    """(|a+b2-b|^2 + |a2-b2-b|^2 - 6)/2, the CHSH left side at V = 1."""
    first = a + b2 - b
    second = a2 - b2 - b
    return (float(first @ first) + float(second @ second) - 6.0) / 2.0


def bell_lhs(cfg: BellConfiguration, v: float) -> float:
    """(V/2)(3 - |a+c-b|^2); the Bell bound is violated iff this exceeds 1."""
    v = require_visibility(v)
    return v * _bell_expression(cfg.a.as_array(), cfg.b.as_array(), cfg.c.as_array())


def chsh_lhs(cfg: ChshConfiguration, v: float) -> float:
    """(V/2)(|a+b2-b|^2 + |a2-b2-b|^2 - 6); violated iff this exceeds 2."""
    v = require_visibility(v)
    dirs = (cfg.a, cfg.a2, cfg.b, cfg.b2)
    return v * _chsh_expression(*(d.as_array() for d in dirs))


def aligned_chsh_configuration(b, b2) -> ChshConfiguration:
    """The a, a2 choices that maximize chsh_lhs for given b, b2.

    a points along b2 - b and a2 along -(b + b2); undefined when b and
    b2 are (anti)parallel.
    """
    b = as_direction(b)
    b2 = as_direction(b2)
    diff = b2.as_array() - b.as_array()
    total = b.as_array() + b2.as_array()
    diff_norm = float(np.linalg.norm(diff))
    total_norm = float(np.linalg.norm(total))
    if diff_norm < 1e-9 or total_norm < 1e-9:
        raise InvalidInputError(
            "alignment is undefined for parallel or antiparallel b, b2"
        )
    return ChshConfiguration(
        a=Direction(*(diff / diff_norm)),
        a2=Direction(*(-total / total_norm)),
        b=b,
        b2=b2,
    )


def chsh_angle_lhs(phi: float, v: float) -> float:
    """Angle form of the aligned CHSH left side: 2 sqrt(2) V sin(phi/2 + pi/4)."""
    v = require_visibility(v)
    phi = float(phi)
    if not (0.0 <= phi <= math.pi):
        raise InvalidInputError(f"phi must lie in [0, pi], got {phi!r}")
    return 2.0 * math.sqrt(2.0) * v * math.sin(phi / 2.0 + math.pi / 4.0)


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

    threshold: float
    configuration: BellConfiguration | ChshConfiguration
    max_expression: float
    iterations_used: int
    seed: int
    provenance: str
    n_settings: int

    def estimate(self) -> VisibilityEstimate:
        return VisibilityEstimate(
            value=self.threshold,
            std_error=0.0,
            n_settings=self.n_settings,
            provenance=self.provenance,
            seed=self.seed,
            iterations_used=self.iterations_used,
        )


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
    return ThresholdResult(
        threshold=1.0 / best,
        configuration=BellConfiguration(*dirs),
        max_expression=best,
        iterations_used=evaluations,
        seed=int(seed),
        provenance="bell",
        n_settings=3,
    )


def chsh_threshold_numeric(seed: int = 0) -> ThresholdResult:
    """Maximize the CHSH quartet expression; threshold is 2/max."""
    best, dirs, evaluations = _multi_start_maximize(_chsh_expression, 4, 1600, seed)
    return ThresholdResult(
        threshold=2.0 / best,
        configuration=ChshConfiguration(*dirs),
        max_expression=best,
        iterations_used=evaluations,
        seed=int(seed),
        provenance="chsh",
        n_settings=2,
    )
