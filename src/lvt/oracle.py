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
master LP holds some of the strategies: at the start every gauge-fixed
a paired with b = +-sign(g^T a), whose +- pairs average to zero so
V = 0 is feasible.  Its duals Y (one per correlation entry) and mu (the
normalisation row) price every strategy: for a given a the best b is
sign(Y^T a), with reduced gain ||Y^T a||_1 + mu.  Each strategy with a
positive gain joins the master, which is solved again; once none is
left the master's optimum is the optimum over all 2^(2N-1) strategies.
Pricing scans only the 2^(N-1) gauge-fixed a, so no array ever holds
every strategy column.  Each master runs through lvt.lp, presolve off.
"""

from __future__ import annotations

import numpy as np

from .construct import SettingsEnsemble
from .errors import InvalidInputError, LvtError, ResourceLimitError
from .estimate import VisibilityEstimate
from .lp import csc, maximize_last

# Hard cap on settings per side; at N = 12 a solve took 12-24 s and
# peaked at 270-350 MB on a 2-core machine.
MAX_ORACLE_SETTINGS = 12

# A strategy joins the master when its reduced gain exceeds this.
_PRICE_TOL = 1e-9
# Random instances up to N = 12 converge in at most about 10 rounds.
_MAX_ROUNDS = 200


def _signs(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with 0 -> +1, so every strategy entry is +-1."""
    return np.where(x >= 0.0, 1.0, -1.0)


def _solve_master(g: np.ndarray, a_cols: np.ndarray, b_cols: np.ndarray):
    """Restricted master over the strategies a_cols[s] b_cols[s]^T.

    Returns (V, Y, mu, simplex iterations), with Y the (N, N) duals of
    the correlation rows and mu the dual of the normalisation row.
    """
    n = g.shape[0]
    count = a_cols.shape[0]
    a_eq = np.zeros((n * n + 1, count + 1))
    a_eq[: n * n, :count] = (a_cols[:, :, None] * b_cols[:, None, :]).reshape(count, -1).T
    a_eq[: n * n, count] = -g.ravel()
    a_eq[n * n, :count] = 1.0
    b_eq = np.zeros(n * n + 1)
    b_eq[-1] = 1.0
    upper = np.full(count + 1, np.inf)
    upper[-1] = 1.0
    # Presolve costs more than it saves on these dense masters (0.28 s
    # against 0.17 s at N = 8, 3.2 s against 2.3 s at N = 10).
    x, duals, nit = maximize_last(
        csc(a_eq), b_eq, np.zeros(count + 1), upper,
        presolve=False, failure="oracle master LP failed",
    )
    return float(x[-1]), duals[: n * n].reshape(n, n), float(duals[-1]), nit


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
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    a_rows = np.hstack([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits])
    b_start = _signs(a_rows @ g)
    a_cols = np.vstack([a_rows, a_rows])
    b_cols = np.vstack([b_start, -b_start])
    iterations = 0
    for _ in range(_MAX_ROUNDS):
        value, y, mu, nit = _solve_master(g, a_cols, b_cols)
        iterations += nit
        scores = a_rows @ y
        priced = np.abs(scores).sum(axis=1) + mu > _PRICE_TOL
        if not priced.any():
            return min(1.0, max(0.0, value)), iterations
        a_cols = np.vstack([a_cols, a_rows[priced]])
        b_cols = np.vstack([b_cols, _signs(scores[priced])])
    raise LvtError(f"oracle column generation did not converge in {_MAX_ROUNDS} rounds")


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
