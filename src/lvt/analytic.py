"""Analytic local-hidden-variable family built from Legendre series.

Each side answers +-1 with probability f(m (n.lam)) where n is the
measurement direction, lam the shared hidden unit vector (uniformly
distributed), and f(x) = sum_j c_j P_j(x) a finite Legendre series.
Side B uses the mirrored response f(-m (n.lam)), which encodes the
anticorrelation of the pair.  Averaging the product of responses over
lam collapses, via Legendre orthogonality, to

    P_HV(m, m'; a, b) = sum_j c_j^2 / (2j+1) P_j(-m m' a.b).

Matching this against the damped-singlet probability forces c_0 = 1/2
and c_1 = sqrt(3 V)/2 with all higher terms zero, and f >= 0 on [-1, 1]
then caps the visibility at exactly 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import checked_directions, dot, legendre, require_outcome, require_visibility
from .errors import InvalidInputError, InvalidModelError

# A response value this far below zero is treated as a genuine
# positivity failure rather than round-off.
POSITIVITY_TOL = 1e-12

# Uniform certification grid, endpoints included.  The threshold models
# are affine in x so the endpoints alone decide validity; the interior
# points guard higher-degree coefficient lists.
_GRID = np.linspace(-1.0, 1.0, 1001)

# Width of the bracket validity_flip_visibility bisects down to.
_FLIP_TOL = 1e-12


@dataclass(frozen=True)
class LegendreLhvModel:
    """Response function f(x) = sum_j coefficients[j] P_j(x)."""

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise InvalidInputError("model needs at least one coefficient")
        if not all(np.isfinite(coeffs)):
            raise InvalidInputError("model coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    def evaluate(self, x):
        """f(x) for scalar or array x in [-1, 1]."""
        arr = np.asarray(x, dtype=float)
        total = np.zeros_like(arr)
        for j, c in enumerate(self.coefficients):
            if c != 0.0:
                total = total + c * np.asarray(legendre(j, arr))
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(total)
        return total

    @cached_property
    def min_response(self) -> float:
        """Minimum of f over the certification grid."""
        return float(np.min(self.evaluate(_GRID)))

    @property
    def is_valid(self) -> bool:
        """True iff f stays nonnegative on [-1, 1] (grid-certified)."""
        return self.min_response >= -POSITIVITY_TOL

    @property
    def is_probability_response(self) -> bool:
        """True iff f and its mirror form a two-outcome distribution.

        f(x) + f(-x) = 1 for every x requires c_0 = 1/2 and all even
        coefficients beyond c_0 to vanish; f must also be nonnegative.
        """
        if abs(self.coefficients[0] - 0.5) > POSITIVITY_TOL:
            return False
        for j, c in enumerate(self.coefficients):
            if j >= 2 and j % 2 == 0 and abs(c) > POSITIVITY_TOL:
                return False
        return self.is_valid


def response(model: LegendreLhvModel, m: int, n, lam, side: str = "a") -> float:
    """Outcome probability f(m (n.lam)); side "b" mirrors the argument.

    Rejects models that are not valid probability responses.
    """
    m = require_outcome(m)
    if side not in ("a", "b"):
        raise InvalidInputError(f"side must be 'a' or 'b', got {side!r}")
    if not model.is_probability_response:
        raise InvalidModelError(
            "model is not a probability response (needs c_0 = 1/2, zero even "
            "coefficients beyond c_0, and f >= 0 on [-1, 1])"
        )
    if side == "b":
        m = -m
    return float(model.evaluate(m * dot(checked_directions(n), checked_directions(lam))))


def model_for_visibility(v: float) -> LegendreLhvModel:
    """The unique (up to c_1 sign) Legendre model matching visibility v.

    c_0 = 1/2, c_1 = sqrt(3 v)/2.  The result is valid iff v <= 1/3.
    """
    v = require_visibility(v)
    return LegendreLhvModel((0.5, np.sqrt(3.0 * v) / 2.0))


def reconstruct_joint(model: LegendreLhvModel, m: int, m2: int, a, b) -> float:
    """Joint probability of the model: sum_j c_j^2/(2j+1) P_j(-m m' a.b)."""
    m = require_outcome(m)
    m2 = require_outcome(m2)
    x = -m * m2 * dot(checked_directions(a), checked_directions(b))
    x = min(1.0, max(-1.0, x))
    total = 0.0
    for j, c in enumerate(model.coefficients):
        if c != 0.0:
            total += c * c / (2 * j + 1) * legendre(j, x)
    return total


def analytic_threshold() -> float:
    """Largest visibility the Legendre family represents: exactly 1/3."""
    return 1.0 / 3.0


def validity_flip_visibility() -> float:
    """Locate by bisection the visibility where model validity flips.

    model_for_visibility(v) is valid for low v and invalid for high v;
    the returned value brackets the flip within _FLIP_TOL.
    """
    lo, hi = 0.0, 1.0
    if not model_for_visibility(lo).is_valid or model_for_visibility(hi).is_valid:
        raise InvalidModelError("validity is not bracketed on [0, 1]")
    while hi - lo > _FLIP_TOL:
        mid = 0.5 * (lo + hi)
        if model_for_visibility(mid).is_valid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def validity_scan(values: Sequence[float]) -> list[tuple[float, bool]]:
    """Validity flag of the matched model at each requested visibility."""
    return [(float(v), model_for_visibility(v).is_valid) for v in values]
