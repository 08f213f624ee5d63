"""Explicit discrete LHV construction from an SVD of the settings Gram.

For N settings per side, the N x N Gram matrix g[j][k] = a_j.b_k has
rank at most 3, so g = U diag(p) V^T with three (or fewer) nonzero
singular values.  The factors come from QRs of the two (N, 3) arrays
of directions and one 3 x 3 SVD, so the Gram itself is formed only
where a model is checked against it.  Given M hidden states with
weights rho and two triples of M-vectors q_i, t_i that are
biorthogonal (q_i.t_j = delta_ij) and orthogonal to the sqrt(rho)
vector, the tables

    A'[j][n] = sum_i U[j][i] sqrt(p_i) (q_i)[n] / sqrt(rho_n)
    B'[k][n] = sum_i V[k][i] sqrt(p_i) (t_i)[n] / sqrt(rho_n)

satisfy sum_n rho_n A' B' = g exactly and have zero rho-weighted means.
Rescaling by the largest entry, 1/sqrt(V) = max |entries|, turns them
into bounded expectation tables A = sqrt(V) A', B = sqrt(V) B' that
realize the damped correlations V g.  V is the visibility this frame
certifies as locally representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import Direction
from .errors import ConstructionFailureError, InvalidInputError

# Weight floor applied before the 1/sqrt(rho) division; prevents
# overflow while barely constraining the search.
DEFAULT_RHO_MIN = 1e-6

# Relative cutoff below which a singular value is reported as exact zero.
_SINGULAR_CUTOFF = 1e-10

# Frame invariant tolerances.
_BIORTHO_TOL = 1e-10
_SIMPLEX_TOL = 1e-9

_SEED_MASK = (1 << 64) - 1


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SettingsEnsemble:
    """N measurement directions per side plus their Gram matrix."""

    a_side: tuple
    b_side: tuple

    def __post_init__(self) -> None:
        a = tuple(d if isinstance(d, Direction) else Direction.from_array(d) for d in self.a_side)
        b = tuple(d if isinstance(d, Direction) else Direction.from_array(d) for d in self.b_side)
        if len(a) == 0 or len(a) != len(b):
            raise InvalidInputError(
                f"need equal nonzero setting counts per side, got {len(a)} and {len(b)}"
            )
        object.__setattr__(self, "a_side", a)
        object.__setattr__(self, "b_side", b)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "SettingsEnsemble":
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidInputError(f"setting count must be an integer >= 1, got {n!r}")
        return cls(
            tuple(Direction.random(rng) for _ in range(n)),
            tuple(Direction.random(rng) for _ in range(n)),
        )

    @classmethod
    def from_arrays(cls, a_vectors, b_vectors) -> "SettingsEnsemble":
        a = np.asarray(a_vectors, dtype=float)
        b = np.asarray(b_vectors, dtype=float)
        for name, arr in (("a", a), ("b", b)):
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise InvalidInputError(
                    f"{name}-side vectors must form an (N, 3) array, got shape {arr.shape}"
                )
        return cls(tuple(map(Direction.from_array, a)), tuple(map(Direction.from_array, b)))

    @property
    def n_settings(self) -> int:
        return len(self.a_side)

    @cached_property
    def a_matrix(self) -> np.ndarray:
        return _readonly(np.array([d.as_array() for d in self.a_side]))

    @cached_property
    def b_matrix(self) -> np.ndarray:
        return _readonly(np.array([d.as_array() for d in self.b_side]))

    @cached_property
    def gram(self) -> np.ndarray:
        """gram[j][k] = a_j . b_k, clipped to [-1, 1] against round-off."""
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


@dataclass(frozen=True)
class AuxiliaryFrame:
    """Biorthogonal triples q, t over M hidden states with weights rho.

    Invariants: q_i.t_j = delta_ij; both triples orthogonal to the
    sqrt(rho) vector; rho a strictly positive probability vector.
    """

    q: np.ndarray
    t: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        t = np.asarray(self.t, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        if q.ndim != 2 or q.shape[0] != 3 or t.shape != q.shape:
            raise InvalidInputError("q and t must both be 3 x M arrays")
        m = q.shape[1]
        if rho.shape != (m,):
            raise InvalidInputError(f"rho must have length {m}, got shape {rho.shape}")
        if m < 4:
            raise InvalidInputError(
                f"need at least 4 hidden states (3 biorthogonal pairs plus the "
                f"sqrt(rho) constraint exhaust dimension 4), got {m}"
            )
        if np.any(rho <= 0.0) or abs(float(np.sum(rho)) - 1.0) > _SIMPLEX_TOL:
            raise InvalidInputError("rho must be strictly positive and sum to 1")
        srho = np.sqrt(rho)
        cross = np.max(np.abs(q @ t.T - np.eye(3)))
        if cross > _BIORTHO_TOL:
            raise InvalidInputError(f"q.t biorthogonality residual {cross:.2e} exceeds tolerance")
        mean_res = max(np.max(np.abs(q @ srho)), np.max(np.abs(t @ srho)))
        if mean_res > _BIORTHO_TOL:
            raise InvalidInputError(
                f"sqrt(rho)-orthogonality residual {mean_res:.2e} exceeds tolerance"
            )
        object.__setattr__(self, "q", _readonly(q))
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "rho", _readonly(rho))

    @property
    def m_states(self) -> int:
        return self.q.shape[1]


def project_out(rows: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Remove the component along a unit vector from each row."""
    return rows - np.outer(rows @ unit, unit)


def biorthogonalize(q: np.ndarray, t_raw: np.ndarray) -> np.ndarray:
    """Recombine the rows of t_raw so that q_i . t_j = delta_ij.

    Solves the 3 x 3 system through the cross-Gram; a second pass
    refines the solution to machine precision.  Raises LinAlgError when
    the cross-Gram is singular.
    """
    t = t_raw
    for _ in range(2):
        cross = q @ t.T
        t = np.linalg.solve(cross.T, t)
    return t


def make_frame(rho: Sequence[float], seed: int, rho_min: float = DEFAULT_RHO_MIN) -> AuxiliaryFrame:
    """Sample a random auxiliary frame over the given weights.

    Draws 6 Gaussian M-vectors, projects out the sqrt(rho) direction,
    and biorthogonalizes t against q.  A singular cross-Gram (measure
    zero) triggers a resample with the next seed; 100 consecutive
    failures raise a construction failure.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if rho_arr.ndim != 1 or rho_arr.shape[0] < 4:
        raise InvalidInputError(
            f"need at least 4 hidden-state weights, got shape {rho_arr.shape}"
        )
    if not (0.0 < rho_min <= 1.0 / rho_arr.shape[0]):
        raise InvalidInputError(f"rho_min must lie in (0, 1/M], got {rho_min!r}")
    if np.any(rho_arr < rho_min * (1.0 - 1e-12)):
        raise InvalidInputError("every weight must be at least rho_min")
    if abs(float(np.sum(rho_arr)) - 1.0) > _SIMPLEX_TOL:
        raise InvalidInputError("weights must sum to 1")
    srho = np.sqrt(rho_arr)

    base = int(seed) & _SEED_MASK
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[base, attempt]))
        q = project_out(rng.standard_normal((3, rho_arr.shape[0])), srho)
        t_raw = project_out(rng.standard_normal((3, rho_arr.shape[0])), srho)
        cross = q @ t_raw.T
        svals = np.linalg.svd(cross, compute_uv=False)
        if svals[-1] < 1e-8 * max(1.0, svals[0]):
            continue
        t = biorthogonalize(q, t_raw)
        if np.max(np.abs(q @ t.T - np.eye(3))) > 1e-12:
            continue
        return AuxiliaryFrame(q=q, t=t, rho=rho_arr)
    raise ConstructionFailureError(
        f"no nonsingular frame found in 100 attempts from seed {seed}"
    )


def floor_normalized_weights(raw: Sequence[float], rho_min: float = DEFAULT_RHO_MIN) -> np.ndarray:
    """Map arbitrary reals onto the weight simplex with a floor.

    Negative entries clip to zero; the positive mass is scaled into the
    budget left over after granting every state its floor.
    """
    raw_arr = np.asarray(raw, dtype=float)
    if raw_arr.ndim != 1 or raw_arr.shape[0] < 1:
        raise InvalidInputError(f"weights must form a 1-d array, got shape {raw_arr.shape}")
    m = raw_arr.shape[0]
    if not (0.0 < rho_min <= 1.0 / m):
        raise InvalidInputError(f"rho_min must lie in (0, 1/M], got {rho_min!r}")
    w = np.clip(raw_arr, 0.0, None)
    total = float(np.sum(w))
    if total <= 0.0 or not math.isfinite(total):
        w = np.ones(m)
        total = float(m)
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
        vis = float(self.visibility)
        if not math.isfinite(vis) or vis < 0.0 or vis > 1.0:
            raise InvalidInputError(f"visibility must lie in [0, 1], got {vis!r}")
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

    def correlations(self) -> np.ndarray:
        """sum_n rho_n A[j][n] B[k][n]; equals visibility * gram when valid."""
        return np.einsum("n,jn,kn->jk", self.rho, self.a_table, self.b_table)


def raw_tables(svd: GramSvd, frame: AuxiliaryFrame) -> tuple[np.ndarray, np.ndarray]:
    """Unbounded tables A', B' with sum_n rho_n A'B' = gram exactly."""
    inv_srho = 1.0 / np.sqrt(frame.rho)
    sqrt_p = np.sqrt(svd.p)
    a_raw = (svd.u * sqrt_p) @ frame.q * inv_srho
    b_raw = (svd.v * sqrt_p) @ frame.t * inv_srho
    return a_raw, b_raw


def visibility_from_tables(a_raw: np.ndarray, b_raw: np.ndarray) -> float:
    """1/sqrt(V) = largest absolute entry, capped so that V <= 1."""
    max_entry = max(float(np.max(np.abs(a_raw))), float(np.max(np.abs(b_raw))))
    if max_entry <= 1.0:
        return 1.0
    return (1.0 / max_entry) ** 2


def assemble_model(settings: SettingsEnsemble, frame: AuxiliaryFrame) -> DiscreteLhvModel:
    """Build the bounded model this frame certifies for these settings.

    A zero Gram matrix (all pairs orthogonal) yields zero tables and
    visibility 1: zero correlations are representable at any damping.
    """
    svd = gram_svd(settings)
    a_raw, b_raw = raw_tables(svd, frame)
    vis = visibility_from_tables(a_raw, b_raw)
    root = math.sqrt(vis)
    return DiscreteLhvModel(
        rho=frame.rho,
        a_table=root * a_raw,
        b_table=root * b_raw,
        visibility=vis,
    )


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
    """
    if model.n_settings != settings.n_settings:
        raise InvalidInputError(
            f"model covers {model.n_settings} settings, ensemble has {settings.n_settings}"
        )
    if tol <= 0.0:
        raise InvalidInputError(f"tolerance must be > 0, got {tol!r}")
    corr = float(np.max(np.abs(model.correlations() - model.visibility * settings.gram)))
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
