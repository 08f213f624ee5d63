"""The one place lvt calls HiGHS, through SciPy's binding with linprog's settings.

maximize_last solves one LP cold and returns the solution, duals and
iteration count of linprog(method="highs") with presolve off bit for
bit, without linprog's per-call option checks and input cleaning.
Both pass HiGHS their callers' CSC arrays as built; HiGHS drops zeros.
Master keeps one HiGHS instance across the rounds of a column
generation, so each re-solve starts from the last optimal basis, and
drops the columns that have stayed nonbasic, so its size follows what
the optimum needs rather than the generation's history.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize._highspy import _core as highs

from .errors import LvtError


def _options(primal: bool) -> "highs.HighsOptions":
    # HiGHS's default tolerances (1e-7) leave residuals the see-saw's
    # rebuild would lose as visibility, and duals too coarse for pricing.
    options = highs.HighsOptions()
    options.output_flag = options.log_to_console = False
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-10
    options.presolve = "off"
    if primal:
        options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal
    return options


# Presolve off: it took more than half of HiGHS's time on the see-saw's
# LPs of 6-25 rows, and 0.28 s against 0.17 s on an oracle master at
# N = 8 (3.2 s against 2.3 s at N = 10).  A cold solve runs HiGHS's
# default dual simplex, faster cold than primal.  Columns that join an
# optimal master enter nonbasic at zero, so its basis stays primal
# feasible and every re-solve restarts primal simplex from it; dual
# simplex gained nothing from that basis.
_COLD, _PRIMAL = _options(primal=False), _options(primal=True)

# One solver per process serves every LP of at most _SHARED_ENTRIES
# stored entries: a new HiGHS instance per LP added about 120 us to each
# of the see-saw's LPs, which take about 350 us on a shared one.  Each
# solve clears the previous solution and basis and passes the options
# again, so it starts cold, as a new instance would.  HiGHS keeps its
# buffers after a clear, so a larger LP, such as a see-saw step at
# N = 1000, gets an instance of its own, freed with it.
_SHARED_ENTRIES = 10_000
_SOLVER = highs._Highs()

# Master drops stale columns only once it holds more than _FLOOR_PER_ROW
# columns per row, and then those nonbasic in each of the last
# _STALE_SOLVES solves.  On the oracle at N = 12 (random instances, 2-core
# machine), when its first master held 2^N strategy columns and every
# priced strategy joined, this cut the largest master from 12 200-17 300
# columns to 5 977-6 145 and peak RSS from 360-520 MB to 187 MB, in half
# the time.
# At age 1 the master shrank to its basis and V crept up about 1e-3 a
# round: no solve at N = 10 or 12 converged in 200 rounds.  Age 3 peaked
# at 218-220 MB.  Without the floor, 20 solves at N = 4 and 5 took up to
# 11 and 12 rounds instead of 8 and 11, and no less time.
_FLOOR_PER_ROW = 4
_STALE_SOLVES = 2


def csc(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of a dense matrix's nonzeros, column by column."""
    cols, rows = np.nonzero(dense.T)
    return np.searchsorted(cols, np.arange(dense.shape[1] + 1)), rows, dense.T[cols, rows]


def _pass(solver, columns: tuple, b_eq: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    """Hand solver maximize_last's LP, A as CSC (indptr, indices, data)."""
    start, index, value = columns[0].astype(np.int32), columns[1].astype(np.int32), columns[2]
    count = lower.shape[0]
    status = solver.passModel(
        count, b_eq.shape[0], index.shape[0], highs.MatrixFormat.kColwise,
        highs.ObjSense.kMinimize, 0.0, np.append(np.zeros(count - 1), -1.0), lower, upper,
        b_eq, b_eq, start, index, value, np.zeros(count, np.int32),
    )
    # HiGHS warns when it drops stored zeros and entries below 1e-9, and
    # on an error keeps the previous model, so an error is the only refusal.
    if status == highs.HighsStatus.kError:
        raise LvtError("HiGHS refused the LP")


def _run(solver) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """Run HiGHS; (x, row duals, simplex iterations) at an optimum, else None."""
    solver.run()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
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
    solver = _SOLVER if columns[1].shape[0] <= _SHARED_ENTRIES else highs._Highs()
    solver.clearSolver()
    solver.passOptions(_COLD)
    _pass(solver, columns, b_eq, lower, upper)
    return _run(solver)


class Master:
    """A column generation's restricted master on one HiGHS instance.

    Starts as maximize_last's LP; add() appends columns with zero cost
    and bounds [0, inf), and solve() re-solves from the last optimal
    basis.  A run that ends without an optimum is solved once more from
    scratch by primal simplex; if that fails too, solve() raises
    LvtError with the given failure message and HiGHS's model status.

    After a solve that strictly raised the objective, once the master
    holds more than _FLOOR_PER_ROW columns per row, solve() deletes
    every column that was nonbasic in each of the last _STALE_SOLVES
    solves, except the objective's own column, whose index it tracks.
    A nonbasic column is zero at the optimum, so the optimum stays
    feasible and the basis stays valid: the objective never falls.
    Deletion follows only strict rises, and the objective at each is the
    optimum over one of finitely many column sets, so only finitely
    many solves delete and a column generation on this master cannot
    cycle; between them the master only grows.
    """

    def __init__(
        self, columns: tuple, b_eq: np.ndarray, lower: np.ndarray, upper: np.ndarray,
        failure: str,
    ) -> None:
        self._solver = highs._Highs()
        self._solver.passOptions(_COLD)
        _pass(self._solver, columns, b_eq, lower, upper)
        self._objective = lower.shape[0] - 1
        self._failure = failure
        # Per column, the number of solves in a row it ended nonbasic.
        self._nonbasic = np.zeros(lower.shape[0], np.int64)
        self._floor = _FLOOR_PER_ROW * b_eq.shape[0]
        self._value = -np.inf

    def add(self, columns: tuple) -> None:
        """Append CSC columns (indptr, indices, data) over the master's rows."""
        indptr, indices, data = columns
        count = indptr.shape[0] - 1
        self._solver.addCols(
            count, np.zeros(count), np.zeros(count), np.full(count, np.inf),
            indices.shape[0], indptr[:-1].astype(np.int32), indices.astype(np.int32), data,
        )
        self._nonbasic = np.append(self._nonbasic, np.zeros(count, np.int64))

    def solve(self) -> tuple[float, np.ndarray, int]:
        """(maximized value, row duals, simplex iterations of this run)."""
        solved = _run(self._solver)
        self._solver.passOptions(_PRIMAL)
        if solved is None:
            self._solver.clearSolver()
            solved = _run(self._solver)
        if solved is None:
            status = self._solver.modelStatusToString(self._solver.getModelStatus())
            raise LvtError(f"{self._failure}: HiGHS model status {status}")
        value = float(solved[0][self._objective])
        self._drop_stale(raised=value > self._value)
        self._value = value
        return value, solved[1], solved[2]

    def _drop_stale(self, raised: bool) -> None:
        """Age every column by this solve's basis; delete the stale ones after a rise."""
        # Basic variables are column indices, or -(1 + row) for a row's slack.
        basic = self._solver.getBasicVariables()[1]
        self._nonbasic += 1
        self._nonbasic[basic[basic >= 0]] = 0
        if not raised or self._nonbasic.shape[0] <= self._floor:
            return
        stale = self._nonbasic >= _STALE_SOLVES
        stale[self._objective] = False
        if stale.any():
            self._solver.deleteCols(int(stale.sum()), np.flatnonzero(stale).astype(np.int32))
            self._objective -= int(stale[: self._objective].sum())
            self._nonbasic = self._nonbasic[~stale]
