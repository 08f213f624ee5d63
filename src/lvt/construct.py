"""Settings, Gram factors, discrete models and their validation.

For N settings per side, the N x N Gram matrix g[j][k] = a_j.b_k has
rank at most 3, so g = U diag(p) V^T with three (or fewer) nonzero
singular values.  The factors come from QRs of the two (N, 3) arrays
of directions and one 3 x 3 SVD, so the whole Gram is formed only for
the LP oracle; validate_model checks a model against it a block of
rows at a time.  Given M hidden states with weights rho and two
triples of M-vectors q_i, t_i that are biorthogonal (q_i.t_j =
delta_ij) and orthogonal to the sqrt(rho) vector, the tables

    A'[j][n] = sum_i U[j][i] sqrt(p_i) (q_i)[n] / sqrt(rho_n)
    B'[k][n] = sum_i V[k][i] sqrt(p_i) (t_i)[n] / sqrt(rho_n)

satisfy sum_n rho_n A' B' = g exactly and have zero rho-weighted means.
Scale moves freely between q and t without changing that product, so
each table is divided by its own largest entry: A = A'/max|A'| and
B = B'/max|B'| are bounded expectation tables that realize the damped
correlations V g with V = 1/(max|A'| max|B'|), capped at 1.  V is the
visibility this frame certifies as locally representable.

lvt.search._state_tables is the one kernel that computes such tables,
from search states holding raw q, t and weights; the climb scores
with it and lvt.search.state_to_model builds models from it.  This
module holds the pieces it uses (the Gram factors, project_out and
_floor_normalized) and validate_model, which certifies any
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import NORM_SLACK, Direction, require_int, require_visibility
from .errors import InvalidInputError

# Weight floor applied before the 1/sqrt(rho) division; prevents
# overflow while barely constraining the search.
DEFAULT_RHO_MIN = 1e-6

# Relative cutoff below which a singular value is reported as exact zero.
_SINGULAR_CUTOFF = 1e-10

# Tolerance on the weights summing to 1.
_SIMPLEX_TOL = 1e-9

# Entries of the correlation residual validate_model holds at once.
_CHECK_BLOCK_ENTRIES = 1 << 17


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row of an (N, 3) array over its norm.

    The norm is one dot product per row, as np.linalg.norm takes it for a
    single vector; a sum of squares along the rows can round differently.
    """
    return vectors / np.sqrt(vectors[:, None, :] @ vectors[:, :, None])[:, 0]


def _checked_side(side, name: str) -> np.ndarray:
    """An (N, 3) array of unit rows, each checked and renormalized as Direction does."""
    if not isinstance(side, np.ndarray):
        side = [d.as_array() if isinstance(d, Direction) else d for d in side]
    vectors = np.array(side, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != 3 or vectors.shape[0] == 0:
        raise InvalidInputError(
            f"{name}-side directions must form a nonempty (N, 3) array, got shape {vectors.shape}"
        )
    x, y, z = vectors.T
    norm = np.sqrt(x * x + y * y + z * z)
    off = ~(np.abs(norm - 1.0) <= NORM_SLACK)
    if off.any():
        raise InvalidInputError(
            f"{name}-side direction {np.argmax(off)} has norm {float(norm[off][0])!r}, "
            f"not within {NORM_SLACK} of 1"
        )
    return _readonly(vectors / norm[:, None])


@dataclass(frozen=True, eq=False)
class SettingsEnsemble:
    """N measurement directions per side, held as read-only (N, 3) arrays.

    Each side may be an (N, 3) array or a sequence of Directions or
    triples; every row must have norm within NORM_SLACK of 1 and is
    renormalized as Direction renormalizes.  An ensemble equals only
    itself and hashes by identity.
    """

    a_matrix: np.ndarray
    b_matrix: np.ndarray

    def __post_init__(self) -> None:
        a = _checked_side(self.a_matrix, "a")
        b = _checked_side(self.b_matrix, "b")
        if a.shape[0] != b.shape[0]:
            raise InvalidInputError(
                f"need equal setting counts per side, got {a.shape[0]} and {b.shape[0]}"
            )
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_matrix", b)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "SettingsEnsemble":
        """Uniform directions, each side drawn in one call, the a side first."""
        n = require_int(n, "setting count", 1)
        return cls(
            unit_rows(rng.standard_normal((n, 3))), unit_rows(rng.standard_normal((n, 3)))
        )

    @property
    def n_settings(self) -> int:
        return self.a_matrix.shape[0]

    @cached_property
    def a_side(self) -> tuple:
        """The a side as Directions; each renormalizes its row, which can move it by an ulp."""
        return tuple(Direction(*row) for row in self.a_matrix)

    @cached_property
    def b_side(self) -> tuple:
        """The b side as Directions; each renormalizes its row, which can move it by an ulp."""
        return tuple(Direction(*row) for row in self.b_matrix)

    @cached_property
    def gram(self) -> np.ndarray:
        """gram[j][k] = a_j . b_k, clipped to [-1, 1] against round-off.

        The whole N x N matrix, for the LP oracle.  The search and its
        certification never read it: they use the rank-3 factors (svd)
        and validate_model's row blocks, and hold no N x N array.
        """
        return _readonly(np.clip(self.a_matrix @ self.b_matrix.T, -1.0, 1.0))

    @cached_property
    def svd(self) -> "GramSvd":
        """The Gram's rank-3 factors, computed once per ensemble from the settings.

        gram = A B^T for the (N, 3) direction arrays, so reduced QRs
        A = Q_a R_a and B = Q_b R_b give gram = Q_a (R_a R_b^T) Q_b^T.
        The SVD W diag(p) Z^T of that small middle factor yields
        u = Q_a W and v = Q_b Z: O(N) work, where an SVD of the N x N
        Gram costs O(N^3).
        """
        n = self.n_settings
        q_a, r_a = np.linalg.qr(self.a_matrix)
        q_b, r_b = np.linalg.qr(self.b_matrix)
        w, s, zt = np.linalg.svd(r_a @ r_b.T)
        k = min(n, 3)
        u = np.zeros((n, 3))
        v = np.zeros((n, 3))
        p = np.zeros(3)
        u[:, :k] = q_a @ w
        v[:, :k] = q_b @ zt.T
        p[:k] = s
        p[p < _SINGULAR_CUTOFF * max(p[0], 0.0)] = 0.0
        return GramSvd(u=u, v=v, p=p)


@dataclass(frozen=True)
class GramSvd:
    """Rank-3 factorization gram = u diag(p) v^T.

    u and v are N x 3; columns beyond min(N, 3) are zero filler whose
    singular value is zero, so they never contribute to assembled
    tables.  p is descending with sub-cutoff values reported as exact
    zeros.
    """

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if u.ndim != 2 or u.shape[1] != 3 or v.shape != u.shape or p.shape != (3,):
            raise InvalidInputError("factor shapes must be (N, 3), (N, 3), (3,)")
        if np.any(p < 0.0) or np.any(np.diff(p) > 0.0):
            raise InvalidInputError("singular values must be nonnegative and descending")
        k = min(u.shape[0], 3)
        for mat in (u, v):
            residual = np.max(np.abs(mat[:, :k].T @ mat[:, :k] - np.eye(k)))
            if residual > 1e-10:
                raise InvalidInputError(f"factor columns not orthonormal, residual {residual:.2e}")
        object.__setattr__(self, "u", _readonly(u))
        object.__setattr__(self, "v", _readonly(v))
        object.__setattr__(self, "p", _readonly(p))


def gram_svd(settings: SettingsEnsemble) -> GramSvd:
    """SVD of the settings Gram matrix, truncated to three columns.

    The factorization is cached on the ensemble, so every call after
    the first returns the same read-only GramSvd.
    """
    return settings.svd


def project_out(rows: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Remove the component along a unit vector from each row.

    rows is (..., K, M) and unit is (..., M); leading axes pair up, so a
    stack of row blocks can each lose its own unit vector.
    """
    return rows - (rows @ unit[..., :, None]) * unit[..., None, :]


def _floor_normalized(raw: np.ndarray, rho_min: float) -> np.ndarray:
    """Map arbitrary reals onto the weight simplex with a floor.

    Negative entries clip to zero; the positive mass is scaled into the
    budget left over after granting every state its floor.  A row with
    no finite positive mass gets equal weights.  Works along the last
    axis, so a stack of rows maps row by row.  raw is a float array with
    a last axis of M >= 1 and rho_min lies in (0, 1/M]; nothing checks
    either, since the search's table kernel calls this on every batch
    of states.
    """
    m = raw.shape[-1]
    w = np.maximum(raw, 0.0)
    total = w.sum(axis=-1, keepdims=True)
    if not (total.min() > 0.0 and total.max() < np.inf):
        flat = ~((total > 0.0) & (total < np.inf))
        w[np.broadcast_to(flat, w.shape)] = 1.0
        total[flat] = float(m)
    return rho_min + (1.0 - m * rho_min) * w / total


@dataclass(frozen=True)
class DiscreteLhvModel:
    """Hidden-state weights plus per-setting expectation tables.

    a_table[j][n] and b_table[k][n] are the conditional expectations of
    each side's outcome given hidden state n; the model reproduces the
    correlations visibility * gram.
    """

    rho: np.ndarray
    a_table: np.ndarray
    b_table: np.ndarray
    visibility: float

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        a = np.asarray(self.a_table, dtype=float)
        b = np.asarray(self.b_table, dtype=float)
        if rho.ndim != 1 or a.ndim != 2 or a.shape != b.shape or a.shape[1] != rho.shape[0]:
            raise InvalidInputError("tables must be N x M with M matching the weights")
        if np.any(rho <= 0.0) or abs(float(np.sum(rho)) - 1.0) > _SIMPLEX_TOL:
            raise InvalidInputError("rho must be strictly positive and sum to 1")
        vis = require_visibility(self.visibility)
        object.__setattr__(self, "rho", _readonly(rho))
        object.__setattr__(self, "a_table", _readonly(a))
        object.__setattr__(self, "b_table", _readonly(b))
        object.__setattr__(self, "visibility", vis)

    @property
    def n_settings(self) -> int:
        return self.a_table.shape[0]

    @property
    def m_states(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Worst-case violations of the discrete-model constraints."""

    correlation_violation: float
    bound_violation: float
    marginal_violation: float
    probability_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            max(
                self.correlation_violation,
                self.bound_violation,
                self.marginal_violation,
                self.probability_violation,
            )
            <= self.tol
        )


def validate_model(
    model: DiscreteLhvModel, settings: SettingsEnsemble, tol: float = 1e-9
) -> ValidationReport:
    """Check the model against its settings.

    Reports the worst violation of: correlations equal visibility*gram;
    table entries bounded by 1; rho-weighted means zero; reconstructed
    outcome probabilities (1 -+ entry)/2 inside [0, 1].

    The correlations are checked in blocks of rows, about
    _CHECK_BLOCK_ENTRIES entries each: rows j of the product
    sum_n rho_n A[j][n] B[k][n], formed as one BLAS product
    (A[rows] * rho) @ B^T, against the same rows of the clipped Gram
    a_j . b_k.  The check needs O(N*M) memory and never holds an N x N
    array.
    """
    if model.n_settings != settings.n_settings:
        raise InvalidInputError(
            f"model covers {model.n_settings} settings, ensemble has {settings.n_settings}"
        )
    if not 0.0 < tol < math.inf:
        raise InvalidInputError(f"tolerance must be finite and > 0, got {tol!r}")
    rows = max(1, _CHECK_BLOCK_ENTRIES // settings.n_settings)
    worst = []
    for start in range(0, settings.n_settings, rows):
        block = slice(start, start + rows)
        product = (model.a_table[block] * model.rho) @ model.b_table.T
        gram = np.clip(settings.a_matrix[block] @ settings.b_matrix.T, -1.0, 1.0)
        worst.append(np.max(np.abs(product - model.visibility * gram)))
    corr = float(np.max(worst))
    bound = max(
        0.0,
        float(np.max(np.abs(model.a_table))) - 1.0,
        float(np.max(np.abs(model.b_table))) - 1.0,
    )
    marginal = max(
        float(np.max(np.abs(model.a_table @ model.rho))),
        float(np.max(np.abs(model.b_table @ model.rho))),
    )
    prob_a = (1.0 - model.a_table) / 2.0
    prob_b = (1.0 + model.b_table) / 2.0
    prob = max(
        0.0,
        float(np.max(-prob_a)),
        float(np.max(prob_a - 1.0)),
        float(np.max(-prob_b)),
        float(np.max(prob_b - 1.0)),
    )
    return ValidationReport(
        correlation_violation=corr,
        bound_violation=bound,
        marginal_violation=marginal,
        probability_violation=prob,
        tol=float(tol),
    )
