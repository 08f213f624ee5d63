"""The one place lvt calls HiGHS, through SciPy's binding with linprog's settings.

So it returns linprog(method="highs")'s solution, duals and iteration
count bit for bit, without linprog's per-call option checks and input cleaning.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize._highspy import _core as highs

from .errors import LvtError


def _options(presolve: bool) -> "highs.HighsOptions":
    # HiGHS's default tolerances (1e-7) leave residuals the see-saw's
    # rebuild would lose as visibility, and duals too coarse for pricing.
    options = highs.HighsOptions()
    options.output_flag = options.log_to_console = False
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-10
    options.presolve = "on" if presolve else "off"
    return options


_OPTIONS = {True: _options(True), False: _options(False)}

# One solver per process serves every LP of at most _SHARED_NONZEROS
# nonzeros: building a HiGHS instance costs about 95 us, more than many
# of the see-saw's LPs take to solve.  Each solve clears the previous
# solution and basis and passes the options again, so it starts cold, as
# a new instance would.  HiGHS keeps its buffers after a clear, so a
# larger LP, such as an N = 8 oracle master, gets an instance of its
# own, freed with it: sharing one raised that workload's peak RSS from
# 94 to 101-104 MB.
_SHARED_NONZEROS = 10_000
_SOLVER = highs._Highs()


def csc(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of a dense matrix's nonzeros, column by column."""
    cols, rows = np.nonzero(dense.T)
    return np.searchsorted(cols, np.arange(dense.shape[1] + 1)), rows, dense.T[cols, rows]


def maximize_last(
    columns: tuple, b_eq: np.ndarray, lower: np.ndarray, upper: np.ndarray,
    presolve: bool = True, failure: Optional[str] = None,
) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """Maximize x[-1] over A x = b_eq, lower <= x <= upper; A as CSC (indptr, indices, data).

    Returns (x, row duals as linprog's eqlin.marginals, simplex iterations),
    or None unless HiGHS reports an optimum; given a failure message, raises
    LvtError naming HiGHS's model status instead.
    """
    indptr, indices, data = columns
    keep = data != 0.0
    lp = highs.HighsLp()
    matrix = lp.a_matrix_
    lp.num_col_ = matrix.num_col_ = lower.shape[0]
    lp.num_row_ = matrix.num_row_ = b_eq.shape[0]
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.start_ = np.concatenate(([0], np.cumsum(keep)))[indptr]
    matrix.index_, matrix.value_ = indices[keep], data[keep]
    lp.col_cost_ = np.append(np.zeros(lower.shape[0] - 1), -1.0)
    lp.col_lower_, lp.col_upper_ = lower, upper
    lp.row_lower_ = lp.row_upper_ = b_eq
    if keep.sum() <= _SHARED_NONZEROS:
        solver = _SOLVER
        solver.clearSolver()
    else:
        solver = highs._Highs()
    solver.passOptions(_OPTIONS[presolve])
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        if failure is None:
            return None
        raise LvtError(f"{failure}: HiGHS model status {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    x, duals = np.array(solution.col_value), np.array(solution.row_dual)
    return x, duals, int(solver.getInfo().simplex_iteration_count)
