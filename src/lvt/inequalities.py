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
over the direction parameters, cross-checking the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import Direction, require_visibility, seeded_rng
from .errors import InvalidInputError
from .estimate import VisibilityEstimate


def _coerce(d) -> Direction:
    return d if isinstance(d, Direction) else Direction.from_array(d)


@dataclass(frozen=True)
class BellConfiguration:
    """Three settings probing the strict-anticorrelation Bell bound."""

    a: Direction
    b: Direction
    c: Direction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _coerce(self.a))
        object.__setattr__(self, "b", _coerce(self.b))
        object.__setattr__(self, "c", _coerce(self.c))


@dataclass(frozen=True)
class ChshConfiguration:
    """Two settings per side; phi is the angle between b and b2."""

    a: Direction
    a2: Direction
    b: Direction
    b2: Direction

    def __post_init__(self) -> None:
        for name in ("a", "a2", "b", "b2"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))

    @property
    def phi(self) -> float:
        return math.acos(min(1.0, max(-1.0, self.b.dot(self.b2))))


def bell_lhs(cfg: BellConfiguration, v: float) -> float:
    """(V/2)(3 - |a+c-b|^2); the Bell bound is violated iff this exceeds 1."""
    v = require_visibility(v)
    vec = cfg.a.as_array() + cfg.c.as_array() - cfg.b.as_array()
    return (v / 2.0) * (3.0 - float(vec @ vec))


def chsh_lhs(cfg: ChshConfiguration, v: float) -> float:
    """(V/2)(|a+b2-b|^2 + |a2-b2-b|^2 - 6); violated iff this exceeds 2."""
    v = require_visibility(v)
    first = cfg.a.as_array() + cfg.b2.as_array() - cfg.b.as_array()
    second = cfg.a2.as_array() - cfg.b2.as_array() - cfg.b.as_array()
    return (v / 2.0) * (float(first @ first) + float(second @ second) - 6.0)


def aligned_chsh_configuration(b, b2) -> ChshConfiguration:
    """The a, a2 choices that maximize chsh_lhs for given b, b2.

    a points along b2 - b and a2 along -(b + b2); undefined when b and
    b2 are (anti)parallel.
    """
    b = _coerce(b)
    b2 = _coerce(b2)
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
class BellThresholdResult:
    """Numeric maximization outcome for the Bell bound."""

    threshold: float
    configuration: BellConfiguration
    max_expression: float
    iterations_used: int
    seed: int

    def estimate(self) -> VisibilityEstimate:
        return VisibilityEstimate(
            value=self.threshold,
            std_error=0.0,
            n_settings=3,
            provenance="bell",
            seed=self.seed,
            iterations_used=self.iterations_used,
        )


@dataclass(frozen=True)
class ChshThresholdResult:
    """Numeric maximization outcome for the CHSH bound."""

    threshold: float
    configuration: ChshConfiguration
    max_expression: float
    iterations_used: int
    seed: int

    def estimate(self) -> VisibilityEstimate:
        return VisibilityEstimate(
            value=self.threshold,
            std_error=0.0,
            n_settings=2,
            provenance="chsh",
            seed=self.seed,
            iterations_used=self.iterations_used,
        )


def _multi_start_maximize(objective, n_dirs: int, starts: int, max_iterations: int, seed: int):
    """Best of `starts` local simplex searches over spherical coordinates."""
    if starts < 1 or max_iterations < 1:
        raise InvalidInputError("optimizer budget must be >= 1 start and iteration")
    rng = seeded_rng(seed, 5)
    best_value = -math.inf
    best_params = None
    evaluations = 0
    for _ in range(starts):
        x0 = np.empty(2 * n_dirs)
        x0[0::2] = np.arccos(rng.uniform(-1.0, 1.0, n_dirs))
        x0[1::2] = rng.uniform(0.0, 2.0 * math.pi, n_dirs)
        result = minimize(
            lambda p: -objective(_directions_from_params(p)),
            x0,
            method="Nelder-Mead",
            options={"maxiter": max_iterations, "xatol": 1e-9, "fatol": 1e-12},
        )
        evaluations += int(result.nfev)
        if -result.fun > best_value:
            best_value = -result.fun
            best_params = result.x
    return float(best_value), _directions_from_params(best_params), evaluations


def bell_threshold_numeric(
    starts: int = 64, max_iterations: int = 1200, seed: int = 0
) -> BellThresholdResult:
    """Maximize (3 - |a+c-b|^2)/2 over unit a, b, c; threshold is 1/max."""

    def expression(dirs):
        vec = dirs[0] + dirs[2] - dirs[1]
        return (3.0 - float(vec @ vec)) / 2.0

    best, dirs, evaluations = _multi_start_maximize(expression, 3, starts, max_iterations, seed)
    cfg = BellConfiguration(
        a=Direction.from_array(dirs[0] / np.linalg.norm(dirs[0])),
        b=Direction.from_array(dirs[1] / np.linalg.norm(dirs[1])),
        c=Direction.from_array(dirs[2] / np.linalg.norm(dirs[2])),
    )
    return BellThresholdResult(
        threshold=1.0 / best,
        configuration=cfg,
        max_expression=best,
        iterations_used=evaluations,
        seed=int(seed),
    )


def chsh_threshold_numeric(
    starts: int = 64, max_iterations: int = 1600, seed: int = 0
) -> ChshThresholdResult:
    """Maximize the CHSH quartet expression; threshold is 2/max."""

    def expression(dirs):
        first = dirs[0] + dirs[3] - dirs[2]
        second = dirs[1] - dirs[3] - dirs[2]
        return (float(first @ first) + float(second @ second) - 6.0) / 2.0

    best, dirs, evaluations = _multi_start_maximize(expression, 4, starts, max_iterations, seed)
    cfg = ChshConfiguration(
        a=Direction.from_array(dirs[0] / np.linalg.norm(dirs[0])),
        a2=Direction.from_array(dirs[1] / np.linalg.norm(dirs[1])),
        b=Direction.from_array(dirs[2] / np.linalg.norm(dirs[2])),
        b2=Direction.from_array(dirs[3] / np.linalg.norm(dirs[3])),
    )
    return ChshThresholdResult(
        threshold=2.0 / best,
        configuration=cfg,
        max_expression=best,
        iterations_used=evaluations,
        seed=int(seed),
    )
