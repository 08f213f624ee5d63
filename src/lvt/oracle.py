"""Exact small-instance ground truth via the local correlation polytope.

A correlation matrix c[j][k] admits a local model iff it is a convex
mixture of deterministic strategies, where each strategy assigns fixed
signs a_s in {+-1}^N and b_s in {+-1}^N and contributes the rank-1
matrix a_s b_s^T.  The largest representable visibility for a Gram
matrix g is therefore the linear program

    max V  s.t.  V g[j][k] = sum_s w_s a_s[j] b_s[k],  w >= 0,
                 sum_s w_s = 1,  0 <= V <= 1.

Zero-marginal constraints come for free: averaging every strategy with
its global sign flip zeroes the marginals without touching the
correlations.  The global flip also means fixing a_s[0] = +1 loses no
generality, leaving 2^(2N-1) strategies.

The LP is solved by column generation with exact pricing (Brierley,
Navascues & Vertesi, arXiv:1609.05011) on SciPy's HiGHS.  A restricted
master LP holds some of the strategies, each next to its partner with b
negated; the pairs average to zero, so V = 0 is feasible.  It starts
from two sets of pairs:

- the hemisphere strategies of the settings.  g's top three singular
  triplets factor it as g ~ X Y^T, with X = U sqrt(S) and Y = V sqrt(S)
  zero-padded to three columns, and a hidden direction lam gives the
  strategy (sign(X lam), sign(Y lam)).  One lam per cell of the 2N
  planes normal to the rows of X and Y gives every such strategy: each
  cell has a vertex +-(n_i x n_j) for some pair of normals, and the four
  cells around it take every sign at i and j.  In general position that
  is N(2N - 1) + 1 gauge-fixed pairs (121 at N = 8), and they alone span
  every N x N matrix.  They took about a third of the pivots of the
  N^2 + 1 gauge-fixed a with the largest ||g^T a||_1, the start they
  replaced, at N = 8-12.  Any +-1 pair is a strategy, so round-off or a
  degenerate arrangement (rank below 3, repeated or coplanar settings)
  can cost speed but never exactness;
- the N^2 strategies u_i u_k^T, where u_0 = (1, ..., 1) and
  u_j = u_0 - 2 e_j.  These span every N x N matrix, so V > 0 is
  feasible from the first solve whatever the arrangement.

The master's duals Y (one per correlation entry) and mu (the
normalisation row) price every strategy: for a given a the best b is
sign(Y^T a), with reduced gain ||Y^T a||_1 + mu.  Each round the at most
N^2 + 1 strategies with the largest positive gain join the master, in
index order, and it is solved again; once none is left the master's
optimum is the optimum over all 2^(2N-1) strategies.  Pricing scans all
2^(N-1) gauge-fixed a every round, so no array ever holds every strategy
column.  The master is one lvt.lp.Master for the whole solve: each round
appends its priced columns, and primal simplex restarts from the last
optimal basis.

The master also forgets.  After a round that raised V by more than
lvt.lp.RISE_TOL, once it holds more than 4(N^2 + 1) columns, it deletes
every strategy column that was nonbasic in each of the last two rounds;
V's own column always stays.  Those columns carry zero weight, so the
current mixture stays feasible and V never falls, and a deleted strategy
that prices in again simply rejoins.  Only rounds that raise V delete,
and V at each such round is the optimum over one of finitely many column
sets, so the generation cannot cycle; the last round still prices all
2^(2N-1) strategies, so the answer stays exact.  Rounds that leave V
within that tolerance count as unchanged.  In general position the first
master has 6N^2 - 2N + 3 columns and the second solve one batch more,
7N^2 - 2N + 4; while every round raises V, no later solve sees more than
5(N^2 + 1).
"""

from __future__ import annotations

import numpy as np

from .construct import SettingsEnsemble
from .errors import InvalidInputError, LvtError, ResourceLimitError
from .estimate import VisibilityEstimate
from .lp import Master, csc

# Hard cap on settings per side.  On a 2-core machine three random
# instances took 75-89 s and peaked at 225 MB at N = 18; N = 19 would
# double the pricing arrays.
MAX_ORACLE_SETTINGS = 18

# A strategy joins the master when its reduced gain exceeds this.
_PRICE_TOL = 1e-9
# A solve gives up after this many rounds that leave V unchanged; rounds
# that raise V are finitely many.  Random instances up to N = 18 took up
# to 299 rounds, and every one raised V by more than lvt.lp.RISE_TOL.
_MAX_ROUNDS = 200


def _signs(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with 0 -> +1, so every strategy entry is +-1."""
    return np.where(x >= 0.0, 1.0, -1.0)


def _strategy_columns(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Master columns of the strategies a[s] b[s]^T: correlation rows, then normalisation."""
    products = (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], n * n)
    return np.hstack([products, np.ones((a.shape[0], 1))]).T


def _largest(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the count largest values in index order; ties go to the lower index."""
    return np.sort(np.argsort(-values, kind="stable")[:count])


def _hemisphere_strategies(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sign(X lam), sign(Y lam)) for lam in each cell of the planes normal to the rows of X and Y.

    X = U sqrt(S) and Y = V sqrt(S) come from g's top three singular
    triplets, zero-padded to three columns.  Every cell has a vertex
    +-(n_i x n_j) for some pair of the 2N normals, and the four cells
    around it take every sign at i and j; a[0] = +1 fixes the gauge.
    """
    n = g.shape[0]
    u, s, vt = np.linalg.svd(g)
    root = np.sqrt(s[:3])
    normals = np.zeros((2 * n, 3))
    normals[:n, : root.shape[0]] = u[:, :3] * root
    normals[n:, : root.shape[0]] = vt[:3].T * root
    i, j = np.triu_indices(2 * n, 1)
    signs = np.repeat(_signs(np.cross(normals[i], normals[j]) @ normals.T), 4, axis=0)
    rows = np.arange(signs.shape[0])
    signs[rows, np.repeat(i, 4)] = np.tile([1.0, 1.0, -1.0, -1.0], i.shape[0])
    signs[rows, np.repeat(j, 4)] = np.tile([1.0, -1.0, 1.0, -1.0], i.shape[0])
    cells = np.unique(signs * signs[:, :1], axis=0)
    return cells[:, :n], cells[:, n:]


def _check_settings_count(n: int) -> None:
    """Refuse more than MAX_ORACLE_SETTINGS settings per side."""
    if n > MAX_ORACLE_SETTINGS:
        raise ResourceLimitError(
            f"oracle handles at most {MAX_ORACLE_SETTINGS} settings per side "
            f"(2^(2N-1) strategies), got {n}"
        )


def max_visibility_for_gram(gram) -> tuple[float, int]:
    """LP optimum for a raw Gram-like matrix; returns (visibility, iterations).

    Accepts any square matrix with entries in [-1, 1], physical or not,
    so scaled correlation targets can be probed directly.  iterations
    is the number of HiGHS simplex iterations summed over the rounds.
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise InvalidInputError(f"gram must be square and nonempty, got shape {g.shape}")
    if not np.all(np.isfinite(g)) or np.max(np.abs(g)) > 1.0 + 1e-9:
        raise InvalidInputError("gram entries must be finite and lie in [-1, 1]")
    n = g.shape[0]
    _check_settings_count(n)

    # Every gauge-fixed a (a[0] = +1); bit j of row i's index flips a[j + 1].
    # No bit array outlives this: at N = 18 one would hold 18 MB for the whole solve.
    a_rows = np.ones((1 << (n - 1), n))
    a_rows[:, 1:] -= 2.0 * ((np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1)
    batch = n * n + 1
    a_cells, b_cells = _hemisphere_strategies(g)
    # u_0 = (1, ..., 1) and u_j = u_0 - 2 e_j: their products u_i u_k^T span every N x N matrix.
    spanning = 1.0 - 2.0 * np.eye(n)
    spanning[0] = 1.0
    a_start = np.vstack([a_cells, np.repeat(spanning, n, axis=0)])
    b_start = np.vstack([b_cells, np.tile(spanning, (n, 1))])
    first = _strategy_columns(n, np.vstack([a_start, a_start]), np.vstack([b_start, -b_start]))
    v_column = np.append(-g.ravel(), 0.0)
    b_eq = np.zeros(n * n + 1)
    b_eq[-1] = 1.0
    upper = np.full(first.shape[1] + 1, np.inf)
    upper[-1] = 1.0
    master = Master(
        csc(np.column_stack([first, v_column])), b_eq, np.zeros(first.shape[1] + 1), upper,
        failure="oracle master LP failed",
    )
    iterations, unchanged = 0, 0
    while True:
        value, duals, nit = master.solve()
        iterations += nit
        scores = a_rows @ duals[: n * n].reshape(n, n)
        gains = np.abs(scores).sum(axis=1) + duals[-1]
        priced = np.flatnonzero(gains > _PRICE_TOL)
        if priced.size == 0:
            return min(1.0, max(0.0, value)), iterations
        if not master.rose:
            unchanged += 1
            if unchanged > _MAX_ROUNDS:
                raise LvtError(
                    f"oracle column generation did not converge: more than {_MAX_ROUNDS} "
                    "rounds left V unchanged"
                )
        chosen = priced[_largest(gains[priced], batch)]
        master.add(csc(_strategy_columns(n, a_rows[chosen], _signs(scores[chosen]))))


def max_visibility_lp(settings: SettingsEnsemble) -> VisibilityEstimate:
    """Exact maximum representable visibility for the given settings.

    Refuses N > MAX_ORACLE_SETTINGS before building the N x N Gram.
    """
    _check_settings_count(settings.n_settings)
    value, iterations = max_visibility_for_gram(settings.gram)
    return VisibilityEstimate(
        value=value,
        std_error=0.0,
        n_settings=settings.n_settings,
        provenance="oracle",
        seed=0,
        iterations_used=iterations,
    )
