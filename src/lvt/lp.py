"""The one place lvt calls HiGHS, through SciPy's binding with linprog's settings.

maximize_last solves one LP cold and returns linprog(method="highs")'s
solution, duals and iteration count bit for bit, without linprog's
per-call option checks and input cleaning.  Master keeps one HiGHS
instance across the rounds of a column generation, so each re-solve
starts from the last optimal basis.
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


_OPTIONS = _options(presolve=True)

# A Master, presolve off: it costs more than it saves on the oracle's
# dense masters (0.28 s against 0.17 s at N = 8, 3.2 s against 2.3 s at
# N = 10, solved cold).  The first solve has no basis and runs HiGHS's
# default dual simplex, faster cold than primal.  Columns that join an
# optimal master enter nonbasic at zero, so its basis stays primal
# feasible and every re-solve restarts primal simplex from it; dual
# simplex gained nothing from that basis.
_MASTER_COLD = _options(presolve=False)
_MASTER_WARM = _options(presolve=False)
_MASTER_WARM.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal

# One solver per process serves every LP of at most _SHARED_NONZEROS
# nonzeros: building a HiGHS instance costs about 95 us, more than many
# of the see-saw's LPs take to solve.  Each solve clears the previous
# solution and basis and passes the options again, so it starts cold, as
# a new instance would.  HiGHS keeps its buffers after a clear, so a
# larger LP, such as a see-saw step at N = 1000, gets an instance of its
# own, freed with it.
_SHARED_NONZEROS = 10_000
_SOLVER = highs._Highs()


def csc(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of a dense matrix's nonzeros, column by column."""
    cols, rows = np.nonzero(dense.T)
    return np.searchsorted(cols, np.arange(dense.shape[1] + 1)), rows, dense.T[cols, rows]


def _nonzeros(columns: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC (indptr, indices, data) without its stored zeros."""
    indptr, indices, data = columns
    keep = data != 0.0
    return np.concatenate(([0], np.cumsum(keep)))[indptr], indices[keep], data[keep]


def _lp(nonzeros: tuple, b_eq: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """HiGHS's form of: minimize -x[-1] over A x = b_eq, lower <= x <= upper.

    A comes as _nonzeros' (start, index, value).
    """
    lp = highs.HighsLp()
    matrix = lp.a_matrix_
    lp.num_col_ = matrix.num_col_ = lower.shape[0]
    lp.num_row_ = matrix.num_row_ = b_eq.shape[0]
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.start_, matrix.index_, matrix.value_ = nonzeros
    lp.col_cost_ = np.append(np.zeros(lower.shape[0] - 1), -1.0)
    lp.col_lower_, lp.col_upper_ = lower, upper
    lp.row_lower_ = lp.row_upper_ = b_eq
    return lp


def _run(solver, failure: Optional[str]) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """Run HiGHS; (x, row duals, simplex iterations) at an optimum, else None or LvtError."""
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        if failure is None:
            return None
        raise LvtError(f"{failure}: HiGHS model status {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    x, duals = np.array(solution.col_value), np.array(solution.row_dual)
    return x, duals, int(solver.getInfo().simplex_iteration_count)


def maximize_last(
    columns: tuple, b_eq: np.ndarray, lower: np.ndarray, upper: np.ndarray,
) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """Maximize x[-1] over A x = b_eq, lower <= x <= upper; A as CSC (indptr, indices, data).

    Returns (x, row duals as linprog's eqlin.marginals, simplex iterations),
    or None unless HiGHS reports an optimum.
    """
    nonzeros = _nonzeros(columns)
    if nonzeros[1].shape[0] <= _SHARED_NONZEROS:
        solver = _SOLVER
        solver.clearSolver()
    else:
        solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    solver.passModel(_lp(nonzeros, b_eq, lower, upper))
    return _run(solver, None)


class Master:
    """A column generation's restricted master on one HiGHS instance.

    Starts as maximize_last's LP; add() appends columns with zero cost
    and bounds [0, inf), and solve() re-solves from the last optimal
    basis.  A solve that ends without an optimum raises LvtError with
    the given failure message and HiGHS's model status.
    """

    def __init__(
        self, columns: tuple, b_eq: np.ndarray, lower: np.ndarray, upper: np.ndarray,
        failure: str,
    ) -> None:
        self._solver = highs._Highs()
        self._solver.passOptions(_MASTER_COLD)
        self._solver.passModel(_lp(_nonzeros(columns), b_eq, lower, upper))
        self._objective = lower.shape[0] - 1
        self._failure = failure

    def add(self, columns: tuple) -> None:
        """Append CSC columns (indptr, indices, data) over the master's rows."""
        start, index, value = _nonzeros(columns)
        count = start.shape[0] - 1
        self._solver.addCols(
            count, np.zeros(count), np.zeros(count), np.full(count, np.inf),
            index.shape[0], start[:-1].astype(np.int32), index.astype(np.int32), value,
        )

    def solve(self) -> tuple[float, np.ndarray, int]:
        """(maximized value, row duals, simplex iterations of this run)."""
        x, duals, nit = _run(self._solver, self._failure)
        self._solver.passOptions(_MASTER_WARM)
        return float(x[self._objective]), duals, nit
