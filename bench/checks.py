"""Output checks made apart from the program.

Nothing here imports lvt.  Every check takes plain arrays and numbers
and returns a list of problems, empty when the output passes.  The Gram
matrix is always recomputed here from the settings' unit vectors, and
exact LP values are checked against an LP built here over every
deterministic strategy and solved by HiGHS.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

# Model certification tolerance: weights, table bounds, marginals and
# correlations must all hold to this.
MODEL_TOL = 1e-8
# An exact LP value must match the HiGHS reference this closely; the
# two are measured to agree to a few 1e-12.
LP_TOL = 1e-7
# The N = 2 closed form matches the LP to round-off.
CHSH_TOL = 1e-9
# Search against the exact reference: never above it by more than the
# upper slack, never below it by more than the lower slack.
AGREE_UPPER = 5e-3
AGREE_LOWER = 0.02
# Window for the sweep's extrapolated N -> infinity limit.
LIMIT_WINDOW = (0.30, 0.36)


def gram(a_vectors, b_vectors) -> np.ndarray:
    """a_j . b_k from the two sides' unit vectors."""
    return np.asarray(a_vectors, dtype=float) @ np.asarray(b_vectors, dtype=float).T


def certify_model(g, rho, a_table, b_table, visibility, value) -> list:
    """Problems with a search model that should reproduce visibility * g.

    value is the estimate reported for the model and must equal its
    visibility exactly.
    """
    rho = np.asarray(rho, dtype=float)
    a = np.asarray(a_table, dtype=float)
    b = np.asarray(b_table, dtype=float)
    problems = []
    if value != visibility:
        problems.append(f"estimate {value!r} differs from the model's visibility {visibility!r}")
    if a.shape != b.shape or a.shape != (g.shape[0], rho.shape[0]):
        return problems + [f"table shapes {a.shape}, {b.shape} do not fit {g.shape}, {rho.shape}"]
    if not np.all(rho > 0.0):
        problems.append("a weight is not positive")
    if abs(float(rho.sum()) - 1.0) > MODEL_TOL:
        problems.append(f"weights sum to {float(rho.sum())!r}")
    bound = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if bound > 1.0 + MODEL_TOL:
        problems.append(f"table entry {bound!r} exceeds 1")
    marginal = max(float(np.max(np.abs(a @ rho))), float(np.max(np.abs(b @ rho))))
    if marginal > MODEL_TOL:
        problems.append(f"marginal {marginal:.3e} is not zero")
    corr = float(np.max(np.abs((a * rho) @ b.T - visibility * g)))
    if corr > MODEL_TOL:
        problems.append(f"correlations miss visibility * gram by {corr:.3e}")
    return problems


def _sign_rows(n_bits: int) -> np.ndarray:
    idx = np.arange(1 << n_bits)[:, None]
    return 1.0 - 2.0 * ((idx >> np.arange(n_bits)) & 1)


def reference_lp_value(g) -> float:
    """max V with V g a mixture of the 2^(2N-1) strategies a b^T, a_0 = +1.

    Fixing a_0 loses nothing: a strategy and its global flip give the
    same correlation matrix.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    a_rows = np.ones((1 << (n - 1), n))
    a_rows[:, 1:] = _sign_rows(n - 1)
    columns = np.einsum("sj,tk->stjk", a_rows, _sign_rows(n)).reshape(-1, n * n)
    count = columns.shape[0]
    a_eq = np.zeros((n * n + 1, count + 1))
    a_eq[: n * n, :count] = columns.T
    a_eq[: n * n, count] = -g.ravel()
    a_eq[n * n, :count] = 1.0
    b_eq = np.zeros(n * n + 1)
    b_eq[-1] = 1.0
    cost = np.zeros(count + 1)
    cost[-1] = -1.0
    bounds = np.zeros((count + 1, 2))
    bounds[:, 1] = np.inf
    bounds[-1, 1] = 1.0
    # Presolve costs more than it saves on this dense LP: 3.9 s against
    # 2.4 s at N = 8, with the same optimum.
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
                     options={"presolve": False})
    if result.status != 0:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return float(result.x[-1])


def chsh_closed_form(g) -> float:
    """V = min(1, 2 / max over the four CHSH sign patterns) at N = 2."""
    g = np.asarray(g, dtype=float)
    total = g.sum()
    largest = max(abs(total - 2.0 * g[j, k]) for j in range(2) for k in range(2))
    return min(1.0, 2.0 / largest) if largest > 0.0 else 1.0


def check_lp_value(value, g) -> tuple:
    """(problems, reference) for an exact LP value at Gram matrix g."""
    g = np.asarray(g, dtype=float)
    reference = reference_lp_value(g)
    problems = []
    if abs(value - reference) > LP_TOL:
        problems.append(f"LP value {value!r} differs from the HiGHS reference {reference!r}")
    if g.shape == (2, 2):
        closed = chsh_closed_form(g)
        if abs(value - closed) > CHSH_TOL:
            problems.append(f"LP value {value!r} differs from the CHSH closed form {closed!r}")
    return problems, reference


def check_agreement(best, reference) -> list:
    """The best search value lies in [reference - 0.02, reference + 5e-3]."""
    if best > reference + AGREE_UPPER:
        return [f"search value {best!r} exceeds the exact value {reference!r}"]
    if best < reference - AGREE_LOWER:
        return [f"search value {best!r} falls short of the exact value {reference!r}"]
    return []


def check_sweep(record: dict, inner_values: dict, n_values) -> list:
    """A `lvt search --extrapolate --json` record against the inner maxima behind it.

    inner_values maps each N to the inner maxima the run computed there;
    each N's reported value must be the least of them, and the
    extrapolated limit (the row with n_settings 0) must lie in the window.
    """
    problems = []
    rows = {e["n_settings"]: e["value"] for e in record["estimates"]}
    for n in n_values:
        if n not in rows:
            problems.append(f"no estimate for N={n}")
        elif not inner_values.get(n):
            problems.append(f"no inner maxima behind N={n}")
        elif rows[n] != min(inner_values[n]):
            problems.append(f"N={n} value {rows[n]!r} is not the least inner value")
    limit = rows.get(0)
    if limit is None:
        problems.append("no extrapolated limit")
    elif not LIMIT_WINDOW[0] <= limit <= LIMIT_WINDOW[1]:
        problems.append(f"extrapolated limit {limit!r} outside {LIMIT_WINDOW}")
    return problems
