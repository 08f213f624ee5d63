"""Alternating-LP ("see-saw") finish over general M-state tables.

The SVD construction only builds tables whose columns lie in the
rank-3 span of the settings Gram matrix.  For N > 3 that class sits
strictly inside the set of all M-state local models, and even where
the two coincide (N <= 3, or M = 4) the hill climb reaches mixtures of
many finely balanced product terms only slowly.  This module polishes
a certified model over general tables instead.  With two of the three
blocks (A table, B table, hidden-state weights rho) fixed, the largest
visibility is a linear program in the third:

    A step:   max V  s.t.  A diag(rho) B^T = V g,  A rho = 0,  |A| <= 1
    B step:   the same with the sides swapped
    rho step: max V  s.t.  sum_n rho_n a_n b_n^T = V g,
                           sum_n rho_n a_n = 0 = sum_n rho_n b_n,
                           rho >= 0,  sum_n rho_n = 1

Each step starts from a feasible point, so the visibility never drops.
A basic optimum of the rho step zeroes many weights.  Zero-weight
states are dropped and redrawn as random sign states: every rho step
offers 2M freshly drawn ones next to the current states, M being the
caller's state cap, and those the LP gives weight replace the dropped
ones if the new support fits in M states, else the step falls back to
the current states.  lvt.search caps at 4 in its 4-state class and at
(N+1)^2 in its full class, where a basic optimum always fits.
The finish first splits each of the model's K states into cap // K
equal copies: the same model, but one whose table steps can move the
copies apart.  A 4-state start at a rank-3 Gram has square table steps,
which return their starting tables (lvt.search skips the finish there);
from one, the full class stalled near the climb's start value in 5 of
12 seeded searches at N = 10-12.
The LPs are reduced to the span of the fixed side's columns, so a
table step has N*(rank+1) equality rows and the rho step at most
(rank_A+1)*(rank_B+1) <= (min(N, 3M)+1)^2, never N^2.  The Gram enters
each step through its rank-3 factors g = U diag(p) V^T, cached on the
settings (lvt.construct): the reduced targets and the parts of g
outside the spans come from N x 3 and 3 x rank products, so each step
costs O(N*M) besides its solve.  The least-squares corrections of the
finished model run through the same factors, in O(N*M^2), and its
final check, validate_model, compares correlations with the Gram a
block of rows at a time, so the finish never holds an N x N array.
HiGHS solves every step, through lvt.lp.

The finish never enumerates deterministic strategies and never calls
the LP oracle, so comparing it with the oracle compares two
independent computations.  Its result is rebuilt exactly (weights
renormalized, correlations corrected by least squares, marginals
removed, tables rescaled into [-1, 1]) and kept only if validate_model
certifies it and it beats the model it started from.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .construct import DiscreteLhvModel, GramSvd, SettingsEnsemble, validate_model
from .errors import ConstructionFailureError
from .lp import csc, maximize_last

# Relative cutoffs: singular values spanning a fixed block, and the part
# of the target outside that span beyond which only V = 0 is feasible.
_RANK_TOL = 1e-10
_SPAN_TOL = 1e-8

# Weights at or below this count as dropped by the weight LP.
_DEAD_WEIGHT = 1e-12

# A step is taken when its LP value is at least the current value less
# this slack, which rides through solver round-off on flat stretches.
_STEP_SLACK = 1e-9

# Stopping rule: a round is the three steps; stop after _PATIENCE rounds
# in a row that gain less than _MIN_GAIN, or after _MAX_ROUNDS.
_MAX_ROUNDS = 60
_PATIENCE = 8
_MIN_GAIN = 1e-7

# Each weight step offers this many fresh random sign states per state.
_POOL_FACTOR = 2

# Least-squares passes that remove the LP's correlation residual.
_CORRECTION_PASSES = 3

# Tolerance the rebuilt model must pass; tighter than the 1e-8 promise.
_CERTIFY_TOL = 1e-9

# The corrections can leave a table entry past 1 by round-off: at N = 1
# an LP optimum at V = 1 came back with max|A| = 1 + 4e-16 and
# max|B| = 1 + 9e-16.  Overshoots up to this are clipped rather than
# rescaled, so they cost no visibility; validate_model at _CERTIFY_TOL
# still gates the result.
_CLIP_SLACK = 1e-12


def _span(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(basis, coordinates) with mat = basis @ coordinates, basis orthonormal."""
    u, s, wt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > _RANK_TOL * s[0])) if s.size and s[0] > 0.0 else 0
    return u[:, :rank], s[:rank, None] * wt[:rank]


def gram_rank(settings: SettingsEnsemble) -> int:
    """Rank of the settings Gram, min(N, 3) in general position.

    settings.svd already reports every singular value below its cutoff
    as an exact zero, so this counts the nonzero ones.
    """
    return int(np.count_nonzero(settings.svd.p))


def square_table_steps(rank: int, m: int) -> bool:
    """True when a start of M states has square table steps at a Gram of this rank.

    That is rank 3 and M = 4: lvt.search skips the finish there.
    """
    return rank + 1 >= m


def _outside(residual: np.ndarray, target: GramSvd) -> bool:
    """True when residual, the part of target outside a span, exceeds round-off."""
    return float(np.linalg.norm(residual)) > _SPAN_TOL * max(
        float(np.linalg.norm(target.p)), 1.0
    )


def side_lp(
    other: np.ndarray, rho: np.ndarray, target: GramSvd
) -> Optional[tuple[np.ndarray, float]]:
    """Best table T for one side with the other side and the weights fixed.

    Maximizes V subject to T diag(rho) other^T = V g, T rho = 0 and
    |T| <= 1, where g = target.u diag(target.p) target.v^T.  The N x N
    correlation rows are reduced to the span of the fixed side's
    weighted columns, where they read R t_j = V h_j for each setting j,
    and HiGHS solves the LP.  Returns (T, V), or None when g leaves that
    span (only V = 0 is feasible) or HiGHS fails.
    """
    n, m = other.shape
    basis, coords = _span(other * rho)
    height = coords.shape[0] + 1
    # g @ basis = u diag(p) (v^T basis); the part of g outside the span,
    # u diag(p) v^T (I - basis basis^T), has the norm of its last two
    # factors because u has orthonormal columns.
    inner = target.v.T @ basis
    if _outside(target.p[:, None] * (target.v.T - inner @ basis.T), target):
        return None
    rhs = np.zeros((n, height))
    rhs[:, :-1] = (target.u * target.p) @ inner
    block = np.vstack([coords, rho[None, :]])
    # Block-diagonal rows, one (rank+1) x m block per setting, plus the
    # V column; assembled directly in compressed-column form.
    table_rows = (height * np.arange(n))[:, None, None] + np.arange(height)[None, None, :]
    indices = np.concatenate(
        [np.broadcast_to(table_rows, (n, m, height)).ravel(), np.arange(n * height)]
    )
    data = np.concatenate([np.broadcast_to(block.T, (n, m, height)).ravel(), -rhs.ravel()])
    indptr = np.append(height * np.arange(n * m + 1), height * n * (m + 1))
    upper = np.ones(n * m + 1)
    lower = -upper
    lower[-1] = 0.0
    solved = maximize_last((indptr, indices, data), np.zeros(n * height), lower, upper)
    if solved is None:
        return None
    return solved[0][:-1].reshape(n, m), float(solved[0][-1])


def weight_lp(
    a: np.ndarray, b: np.ndarray, target: GramSvd
) -> Optional[tuple[np.ndarray, float]]:
    """Best weights for fixed tables; returns (rho, V) or None.

    With a_n = U_A alpha_n and b_n = U_B beta_n over orthonormal bases
    of the tables' column spans, the correlation rows reduce to
    sum_n rho_n alpha_n beta_n^T = V U_A^T g U_B, where
    g = target.u diag(target.p) target.v^T.
    """
    m = a.shape[1]
    basis_a, alpha = _span(a)
    basis_b, beta = _span(b)
    left = basis_a.T @ target.u * target.p
    right = target.v.T @ basis_b
    reduced = left @ right
    # The part of g outside the two spans is (I - P_A) g + P_A g (I - P_B),
    # two mutually orthogonal terms whose norms need only N x 3 and
    # rank x N factors (P the projectors onto the spans).
    outside = np.concatenate([
        (target.u * target.p - basis_a @ left).ravel(),
        (left @ (target.v.T - right @ basis_b.T)).ravel(),
    ])
    if _outside(outside, target):
        return None
    products = (alpha[:, None, :] * beta[None, :, :]).reshape(-1, m)
    rows = np.vstack([products, alpha, beta, np.ones((1, m))])
    v_column = np.zeros(rows.shape[0])
    v_column[: reduced.size] = -reduced.ravel()
    b_eq = np.zeros(rows.shape[0])
    b_eq[-1] = 1.0
    upper = np.full(m + 1, np.inf)
    upper[-1] = 1.0
    solved = maximize_last(csc(np.column_stack([rows, v_column])), b_eq, np.zeros(m + 1), upper)
    if solved is None:
        return None
    return solved[0][:-1], float(solved[0][-1])


def _table_scale(table: np.ndarray) -> float:
    """Divisor that brings a table into [-1, 1], or 1 within _CLIP_SLACK."""
    peak = float(np.max(np.abs(table)))
    return peak if peak > 1.0 + _CLIP_SLACK else 1.0


def _correct(
    fixed: np.ndarray, table: np.ndarray, rho: np.ndarray, visibility: float, target: GramSvd
) -> np.ndarray:
    """Least-norm change of table toward table diag(rho) fixed^T = V g, table rho = 0.

    g = target.u diag(target.p) target.v^T.  The (N+1) x N residual
    [V g^T - fixed diag(rho) table^T; -(table rho)^T] factors as
    left @ [target.u, table]^T, so the least-squares solve runs on the
    3+M columns of left, O(N*M^2), and the N x N residual is never formed.
    """
    n, m = table.shape
    lhs = np.vstack([fixed * rho, rho[None, :]])
    left = np.zeros((n + 1, 3 + m))
    left[:n, :3] = visibility * target.v * target.p
    left[:n, 3:] = -(fixed * rho)
    left[n, 3:] = -rho
    coef, *_ = np.linalg.lstsq(lhs, left, rcond=None)
    return table + np.column_stack([target.u, table]) @ coef.T


def certified_model(
    a: np.ndarray,
    b: np.ndarray,
    rho: np.ndarray,
    visibility: float,
    settings: SettingsEnsemble,
    m_states: int,
) -> Optional[DiscreteLhvModel]:
    """Exact model of at most m_states states near an LP solution, or None.

    Keeps only the states whose weight is above _DEAD_WEIGHT and
    renormalizes them, corrects the correlations toward
    visibility * gram by alternating least squares, removes the
    marginals and rescales both tables into [-1, 1] (lowering the
    visibility by the same factor; overshoots of at most _CLIP_SLACK are
    clipped instead).  Returns None when no state lives, more than
    m_states do, visibility <= 0 or the result fails to certify.
    """
    live = rho > _DEAD_WEIGHT
    if not live.any() or live.sum() > m_states or visibility <= 0.0:
        return None
    rho = rho[live] / np.sum(rho[live])
    a = a[:, live]
    b = b[:, live]
    svd = settings.svd
    svd_t = GramSvd(u=svd.v, v=svd.u, p=svd.p)
    for _ in range(_CORRECTION_PASSES):
        a = _correct(b, a, rho, visibility, svd)
        b = _correct(a, b, rho, visibility, svd_t)
    a = a - (a @ rho)[:, None]
    b = b - (b @ rho)[:, None]
    scale_a, scale_b = _table_scale(a), _table_scale(b)
    a = np.clip(a / scale_a, -1.0, 1.0)
    b = np.clip(b / scale_b, -1.0, 1.0)
    visibility = min(1.0, visibility / (scale_a * scale_b))
    model = DiscreteLhvModel(rho=rho, a_table=a, b_table=b, visibility=visibility)
    if not validate_model(model, settings, _CERTIFY_TOL).passed:
        return None
    return model


def certify(model: DiscreteLhvModel, settings: SettingsEnsemble) -> DiscreteLhvModel:
    """The model itself if validate_model passes it at _CERTIFY_TOL, else raises."""
    if not validate_model(model, settings, _CERTIFY_TOL).passed:
        raise ConstructionFailureError(f"model fails validation at {_CERTIFY_TOL}")
    return model


def seesaw(
    model: DiscreteLhvModel, settings: SettingsEnsemble, rng: np.random.Generator, m_states: int
) -> DiscreteLhvModel:
    """Polish a certified model by alternating LPs; never returns a worse one.

    rng draws the random sign states offered to each weight step, and the
    finished model holds at most m_states states.  Each of the model's
    K states is first split into m_states // K equal copies (module
    docstring).
    """
    if model.visibility >= 1.0:
        return model
    svd = settings.svd
    svd_t = GramSvd(u=svd.v, v=svd.u, p=svd.p)
    n = settings.n_settings
    m = m_states
    copies = m // model.rho.shape[0]
    a, b = np.repeat(model.a_table, copies, axis=1), np.repeat(model.b_table, copies, axis=1)
    rho, v = np.repeat(model.rho / copies, copies), model.visibility
    best = v
    stall = 0
    for _ in range(_MAX_ROUNDS):
        step = side_lp(b, rho, svd)
        if step is not None and step[1] >= v - _STEP_SLACK:
            a, v = step
        step = side_lp(a, rho, svd_t)
        if step is not None and step[1] >= v - _STEP_SLACK:
            b, v = step
        pool_a = np.column_stack([a, rng.choice((-1.0, 1.0), size=(n, _POOL_FACTOR * m))])
        pool_b = np.column_stack([b, rng.choice((-1.0, 1.0), size=(n, _POOL_FACTOR * m))])
        step = weight_lp(pool_a, pool_b, svd)
        if step is None or np.sum(step[0] > _DEAD_WEIGHT) > m:
            pool_a, pool_b = a, b
            step = weight_lp(a, b, svd)
        if step is not None and step[1] >= v - _STEP_SLACK:
            keep = step[0] > _DEAD_WEIGHT
            a, b, rho, v = pool_a[:, keep], pool_b[:, keep], step[0][keep], step[1]
        if v > best + _MIN_GAIN:
            best = v
            stall = 0
        else:
            stall += 1
        if stall >= _PATIENCE or v >= 1.0:
            break
    finished = certified_model(a, b, rho, v, settings, m)
    if finished is None or finished.visibility <= model.visibility:
        return model
    return finished


def finish_cells(n: int, m: int) -> int:
    """Most LP cells one finish solves at N settings and a cap of M
    states: each LP's rows times its columns, summed.

    0 where square_table_steps(min(N, 3), M) holds: lvt.search skips the
    finish there for settings in general position.  Each of up to
    _MAX_ROUNDS rounds solves two table steps, the weight LP over the
    current and pooled states, and at most one fallback weight LP over
    the current states.  Every table the finish holds has zero marginals,
    T rho = 0, so its M or fewer columns have rank at most min(N, M - 1).
    A table step has N * (rank + 1) rows and N * M + 1 columns.  A weight
    LP has (rank_A + 1) * (rank_B + 1) rows and a column per offered
    state plus V; the pooled one is offered the current states and
    _POOL_FACTOR * M fresh ones.
    """
    if square_table_steps(min(n, 3), m):
        return 0
    table = n * (min(n, m - 1) + 1) * (n * m + 1)
    pooled = (min(n, m - 1 + _POOL_FACTOR * m) + 1) ** 2 * ((1 + _POOL_FACTOR) * m + 1)
    current = (min(n, m - 1) + 1) ** 2 * (m + 1)
    return _MAX_ROUNDS * (2 * table + pooled + current)
