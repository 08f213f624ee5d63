"""Quantum-side ground truth for a visibility-damped singlet pair.

The joint probability of outcomes m, m' = +-1 when the two sides measure
spin along unit vectors a and b is

    P(m, m'; a, b) = (1 - m m' V a.b) / 4,

where V in [0, 1] is the visibility (V = 1: ideal singlet, V = 0:
uncorrelated noise); each side's marginal, the sum over the other's
outcome, is 1/2.  This module provides that probability, Legendre
polynomials via the three-term recurrence, and a product
Gauss-Legendre quadrature for averages over the unit sphere.
All types are immutable values and all functions are pure.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidInputError

# Accepted deviation of an input vector's norm from 1.  Anything further
# off is treated as a caller bug rather than silently renormalized.
NORM_SLACK = 1e-9

_SEED_MASK = (1 << 64) - 1


def require_outcome(m: int) -> int:
    """Validate that ``m`` is one of the two measurement outcomes +-1."""
    if isinstance(m, bool) or m not in (1, -1):
        raise InvalidInputError(f"outcome must be +1 or -1, got {m!r}")
    return int(m)


def require_int(value, name: str, minimum: int) -> int:
    """Validate that ``value`` is an integer (NumPy's too, never a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_visibility(v: float) -> float:
    """Validate that ``v`` is a visibility in [0, 1]."""
    v = float(v)
    if not math.isfinite(v) or v < 0.0 or v > 1.0:
        raise InvalidInputError(f"visibility must lie in [0, 1], got {v!r}")
    return v


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Generator on the stream named by a seed and tags, each taken mod 2^64."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=[int(e) & _SEED_MASK for e in entropy])
    )


def checked_directions(vectors, name: str = "direction") -> np.ndarray:
    """A read-only copy of a (3,) or nonempty (N, 3) array of unit vectors.

    Lists, tuples and arrays are accepted.  Each vector must be finite
    with norm sqrt(x x + y y + z z) within ``NORM_SLACK`` of 1, and is
    divided by that norm.  Dividing twice can move a vector by an ulp.
    """
    try:
        arr = np.array(vectors, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not an array of numbers: {exc}") from exc
    if arr.ndim not in (1, 2) or arr.shape[-1] != 3 or arr.size == 0:
        raise InvalidInputError(
            f"{name} must be a (3,) or nonempty (N, 3) array, got shape {arr.shape}"
        )
    rows = arr.reshape(-1, 3)
    x, y, z = rows.T
    norm = np.sqrt(x * x + y * y + z * z)
    off = ~(np.abs(norm - 1.0) <= NORM_SLACK)
    if off.any():
        row = int(np.argmax(off))
        label = f"{name} {row}" if arr.ndim == 2 else name
        raise InvalidInputError(
            f"{label} {rows[row].tolist()} has norm {float(norm[row])!r}, "
            f"not within {NORM_SLACK} of 1"
        )
    rows /= norm[:, None]
    arr.flags.writeable = False
    return arr


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v of two 3-vectors, summed left to right: x x' + y y' + z z'."""
    return float(u[0] * v[0] + u[1] * v[1] + u[2] * v[2])


def quantum_joint(m: int, m2: int, a, b, v: float) -> float:
    """Joint outcome probability (1 - m m' V a.b) / 4 of the damped singlet.

    The four outcome probabilities at fixed (a, b) sum to 1, and each lies
    in [0, 1] for any unit a, b and visibility in [0, 1].
    """
    m = require_outcome(m)
    m2 = require_outcome(m2)
    v = require_visibility(v)
    return (1.0 - m * m2 * v * dot(checked_directions(a), checked_directions(b))) / 4.0


def legendre(j: int, x):
    """Legendre polynomial P_j(x) by the recurrence
    (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}.

    ``x`` may be a scalar or an array with entries in [-1, 1]; values up
    to 1e-12 outside are clamped, anything further is rejected.
    """
    j = require_int(j, "polynomial degree", 0)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(np.abs(arr) > 1.0 + 1e-12):
        raise InvalidInputError("legendre argument must lie in [-1, 1] (tolerance 1e-12)")
    arr = np.clip(arr, -1.0, 1.0)

    p_prev = np.ones_like(arr)
    if j == 0:
        result = p_prev
    else:
        p_cur = arr.copy()
        for degree in range(1, j):
            p_next = ((2 * degree + 1) * arr * p_cur - degree * p_prev) / (degree + 1)
            p_prev, p_cur = p_cur, p_next
        result = p_cur
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(result)
    return result


@lru_cache(maxsize=64)
def _sphere_nodes(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes, one read-only (K, 3) array, and their weights.

    (degree+1) Gauss-Legendre nodes in cos(theta) crossed with
    2*(degree+1) uniform azimuth nodes: exact for integrands polynomial
    in the direction components up to total degree ``degree``; the
    weights sum to 1, the normalized sphere average.
    """
    cos_nodes, cos_weights = np.polynomial.legendre.leggauss(degree + 1)
    n_phi = 2 * (degree + 1)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    nodes = []
    for u in cos_nodes:
        sin_t = math.sqrt(max(0.0, 1.0 - u * u))
        nodes.extend((sin_t * math.cos(phi), sin_t * math.sin(phi), u) for phi in phis)
    weights = np.repeat(cos_weights / (2.0 * n_phi), n_phi)
    weights.flags.writeable = False
    return checked_directions(nodes, "quadrature node"), weights


def sphere_quadrature(f: Callable[[np.ndarray], float], degree: int) -> float:
    """Average of ``f`` over the unit sphere (integral against dOmega/4pi).

    ``f`` receives each node as a read-only row of shape (3,).
    """
    nodes, weights = _sphere_nodes(require_int(degree, "quadrature degree", 1))
    return float(sum(w * f(x) for x, w in zip(nodes, weights)))
