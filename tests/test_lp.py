"""lvt.lp against scipy.optimize.linprog(method="highs") at the same tolerances.

lvt.lp calls HiGHS through SciPy's private binding, so these tests pin
that coupling: a SciPy release that changes the binding or the settings
linprog passes fails here.
"""

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.optimize import linprog

from lvt import LvtError, SettingsEnsemble
from lvt import lp as lp_module
from lvt import oracle as oracle_module
from lvt import seesaw as seesaw_module
from lvt.oracle import max_visibility_for_gram
from lvt.seesaw import side_lp, weight_lp

from models import span_model


def recorded_lps(monkeypatch, module, run):
    """The arguments of every maximize_last call module makes during run()."""
    calls = []
    real = module.maximize_last

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "maximize_last", recording)
    run()
    monkeypatch.setattr(module, "maximize_last", real)
    assert calls
    return calls


def assert_matches_linprog(args, kwargs):
    (indptr, indices, data), b_eq, lower, upper = args
    a_eq = sparse.csc_matrix((data, indices, indptr), shape=(b_eq.shape[0], lower.shape[0]))
    cost = np.zeros(lower.shape[0])
    cost[-1] = -1.0
    options = {
        "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
        "presolve": False,
    }
    expected = linprog(
        cost, A_eq=a_eq, b_eq=b_eq, bounds=np.column_stack([lower, upper]),
        method="highs", options=options,
    )
    assert expected.status == 0
    x, duals, nit = lp_module.maximize_last(*args, **kwargs)
    assert np.array_equal(x, expected.x)
    assert np.array_equal(duals, expected.eqlin.marginals)
    assert nit == expected.nit


def test_non_square_table_step_matches_linprog(monkeypatch):
    settings, model = span_model(4, 10, 17)
    calls = recorded_lps(
        monkeypatch, seesaw_module,
        lambda: side_lp(np.array(model.b_table), np.array(model.rho), settings.svd),
    )
    for args, kwargs in calls:
        assert_matches_linprog(args, kwargs)


def test_pooled_weight_lp_matches_linprog(monkeypatch):
    settings, model = span_model(3, 8, 19)
    rng = np.random.default_rng(5)
    pool_a = np.column_stack([model.a_table, rng.choice((-1.0, 1.0), size=(3, 16))])
    pool_b = np.column_stack([model.b_table, rng.choice((-1.0, 1.0), size=(3, 16))])
    calls = recorded_lps(
        monkeypatch, seesaw_module, lambda: weight_lp(pool_a, pool_b, settings.svd)
    )
    for args, kwargs in calls:
        assert_matches_linprog(args, kwargs)


def built_master(monkeypatch, gram):
    """max_visibility_for_gram(gram)'s value and the lp.Master it solved."""
    made = []
    real = oracle_module.Master

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(oracle_module, "Master", recording)
    value, _ = max_visibility_for_gram(gram)
    monkeypatch.setattr(oracle_module, "Master", real)
    assert len(made) == 1
    return value, made[0]


def every_strategy(n):
    """Every gauge-fixed a (a[0] = +1) and every b, as rows of signs."""
    signs = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    return signs[signs[:, 0] > 0], signs


def full_column_lp(gram, a_all, b_all):
    """linprog's max V with V gram a mixture of the strategies a b^T over the given rows."""
    n = gram.shape[0]
    products = np.einsum("sj,tk->stjk", a_all, b_all).reshape(-1, n * n)
    count = products.shape[0]
    a_eq = sparse.csc_matrix(np.vstack([np.column_stack([products.T, -gram.ravel()]),
                                        np.append(np.ones(count), 0.0)]))
    cost = np.zeros(count + 1)
    cost[-1] = -1.0
    upper = np.append(np.full(count, np.inf), 1.0)
    expected = linprog(
        cost, A_eq=a_eq, b_eq=np.append(np.zeros(n * n), 1.0),
        bounds=np.column_stack([np.zeros(count + 1), upper]), method="highs",
        options={"presolve": False},
    )
    assert expected.status == 0
    return expected.x[-1]


# The warm-started master must reach the optimum over all 2^(2N-1)
# strategies, and its final duals must prove it: no strategy prices in.
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_oracle_master_certificate(monkeypatch, n):
    gram = SettingsEnsemble.random(n, np.random.default_rng(n)).gram
    value, master = built_master(monkeypatch, gram)
    a_all, b_all = every_strategy(n)
    assert abs(value - full_column_lp(gram, a_all, b_all)) <= 1e-9

    # Refactorizing the same basis may move the last bits.
    again, duals, nit = master.solve()
    assert nit == 0
    assert abs(again - value) <= 1e-12
    y, mu = duals[: n * n].reshape(n, n), duals[-1]
    gains = np.einsum("sj,jk,tk->st", a_all, y, b_all) + mu
    assert gains.max() <= oracle_module._PRICE_TOL


# Deleting stale columns must leave the optimum where the full master
# puts it, and the final duals must still price out every strategy.
@pytest.mark.parametrize("n", [8, 10])
def test_oracle_master_drops_stale_columns_exactly(monkeypatch, n):
    gram = SettingsEnsemble.random(n, np.random.default_rng([27, n])).gram
    with monkeypatch.context() as patch:
        patch.setattr(lp_module, "_FLOOR_PER_ROW", 1 << 40)
        kept_value, kept = built_master(patch, gram)
    value, master = built_master(monkeypatch, gram)
    assert abs(value - kept_value) <= 1e-9
    assert master._solver.getNumCol() < kept._solver.getNumCol()

    # Only nonbasic columns went, so the last basis is still optimal.
    again, duals, nit = master.solve()
    assert nit == 0
    assert abs(again - value) <= 1e-12
    a_rows, _ = every_strategy(n)
    y, mu = duals[: n * n].reshape(n, n), duals[-1]
    assert (np.abs(a_rows @ y).sum(axis=1) + mu).max() <= oracle_module._PRICE_TOL


def master_columns(solver):
    """The solver's constraint matrix, one bytes key per dense column."""
    matrix = solver.getLp().a_matrix_
    dense = sparse.csc_matrix(
        (matrix.value_, matrix.index_, matrix.start_),
        shape=(solver.getNumRow(), solver.getNumCol()),
    ).toarray()
    return [column.tobytes() for column in dense.T]


def test_master_drops_only_columns_nonbasic_in_the_last_two_solves(monkeypatch):
    # With no size floor every solve that raises V deletes; watch each.
    # Of default_rng(0) to (39) at N = 4, 8 instances delete, the first
    # being default_rng(3); default_rng(4) converges without deleting.
    monkeypatch.setattr(lp_module, "_FLOOR_PER_ROW", 0)
    gram = SettingsEnsemble.random(4, np.random.default_rng(3)).gram
    solves = []  # per solve: ({column: basic?}, deleted columns)
    values, v_key = [], []

    class HiddenV:
        """The master's solver, but V's column is never reported basic."""

        def __init__(self, master):
            self.master, self.solver = master, master._solver

        def __getattr__(self, name):
            return getattr(self.solver, name)

        def getBasicVariables(self):
            status, basic = self.solver.getBasicVariables()
            return status, basic[basic != self.master._objective]

    # V's column is basic whenever 0 < V < 1; hide that, so that only
    # the master's own guard keeps it.
    class Watched(lp_module.Master):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._solver = HiddenV(self)

        def _drop_stale(self, raised):
            before = master_columns(self._solver)
            if not v_key:
                v_key.append(before[self._objective])
            status = self._solver.getBasis().col_status
            basic = {key: s == lp_module.highs.HighsBasisStatus.kBasic
                     for key, s in zip(before, status)}
            super()._drop_stale(raised)
            after = master_columns(self._solver)
            solves.append((basic, set(before) - set(after)))
            assert after[self._objective] == v_key[0]

        def solve(self):
            solved = super().solve()
            values.append(solved[0])
            return solved

    monkeypatch.setattr(oracle_module, "Master", Watched)
    value, _ = max_visibility_for_gram(gram)
    assert np.array_equal(np.frombuffer(v_key[0]), np.append(-gram.ravel(), 0.0))
    assert sum(len(deleted) for _, deleted in solves) > 0
    for t, (basic, deleted) in enumerate(solves):
        assert v_key[0] not in deleted
        assert not deleted or (t > 0 and values[t] > values[t - 1])
        for key in deleted:
            assert basic[key] is False
            assert solves[t - 1][0].get(key) is False
    assert abs(value - full_column_lp(gram, *every_strategy(4))) <= 1e-9


def test_round_off_reads_delete_nothing(monkeypatch):
    # A converged master re-solves from an optimal basis with no pivots:
    # a degenerate optimum.  Reads that creep up by 3e-12 a solve, as
    # HiGHS's did, are within RISE_TOL of the last rise, so even with no
    # size floor no solve rises and no column is deleted.
    monkeypatch.setattr(lp_module, "_FLOOR_PER_ROW", 0)
    gram = SettingsEnsemble.random(4, np.random.default_rng(3)).gram
    value, master = built_master(monkeypatch, gram)
    columns = master_columns(master._solver)
    reads = []
    run = lp_module._run

    def creeping(solver):
        # Only the objective's entry of x is read; shift every entry alike.
        solved = run(solver)
        reads.append(solved)
        return solved[0] + 3e-12 * len(reads), *solved[1:]

    monkeypatch.setattr(lp_module, "_run", creeping)
    for read in range(1, 4):
        again, _, nit = master.solve()
        assert nit == 0 and not master.rose
        assert again > value + 3e-12 * read - 1e-12
        assert master_columns(master._solver) == columns


def test_oracle_master_recovers_from_a_failed_dual_run(monkeypatch):
    # A master holding every gauge-fixed a with +-sign(g^T a) on this
    # instance: its cold dual simplex run ends without an optimum, and
    # the primal retry from scratch solves it.
    n = 8
    gram = SettingsEnsemble.random(n, np.random.default_rng([95, n, 0])).gram
    a_rows, _ = every_strategy(n)
    b_rows = np.where(a_rows @ gram >= 0.0, 1.0, -1.0)
    strategies = oracle_module._strategy_columns(
        n, np.vstack([a_rows, a_rows]), np.vstack([b_rows, -b_rows])
    )
    matrix = np.column_stack([strategies, np.append(-gram.ravel(), 0.0)])
    b_eq = np.append(np.zeros(n * n), 1.0)
    upper = np.append(np.full(strategies.shape[1], np.inf), 1.0)
    runs = []
    real = lp_module._run
    monkeypatch.setattr(lp_module, "_run", lambda solver: runs.append(real(solver)) or runs[-1])
    master = lp_module.Master(
        lp_module.csc(matrix), b_eq, np.zeros(upper.shape[0]), upper, failure="master failed",
    )
    value = master.solve()[0]
    assert len(runs) == 2 and runs[0] is None and runs[1] is not None
    expected = linprog(
        np.append(np.zeros(strategies.shape[1]), -1.0), A_eq=matrix, b_eq=b_eq,
        bounds=np.column_stack([np.zeros(upper.shape[0]), upper]), method="highs",
    )
    assert expected.status == 0
    assert abs(value - expected.x[-1]) <= 1e-9

    value, _ = max_visibility_for_gram(gram)
    assert abs(value - full_column_lp(gram, *every_strategy(n))) <= 1e-9


def test_csc_matches_scipy_sparse():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((7, 5)) * (rng.uniform(size=(7, 5)) < 0.5)
    dense[:, 2] = 0.0
    expected = sparse.csc_matrix(dense)
    indptr, indices, data = lp_module.csc(dense)
    assert np.array_equal(indptr, expected.indptr)
    assert np.array_equal(indices, expected.indices)
    assert np.array_equal(data, expected.data)


def test_infeasible_lp_returns_none():
    # x0 = 1 and x0 = 2 at once.
    columns = (np.array([0, 2, 2]), np.array([0, 1]), np.array([1.0, 1.0]))
    assert lp_module.maximize_last(
        columns, np.array([1.0, 2.0]), np.zeros(2), np.full(2, 5.0)
    ) is None


def test_shared_solver_repeats_a_solve_after_an_infeasible_lp(monkeypatch):
    # One HiGHS instance serves every small LP, so an infeasible LP in
    # between must leave no basis or status that changes the next one.
    settings, model = span_model(4, 10, 17)
    args, kwargs = recorded_lps(
        monkeypatch, seesaw_module,
        lambda: side_lp(np.array(model.b_table), np.array(model.rho), settings.svd),
    )[0]
    first = lp_module.maximize_last(*args, **kwargs)
    columns = (np.array([0, 2, 2]), np.array([0, 1]), np.array([1.0, 1.0]))
    assert lp_module.maximize_last(
        columns, np.array([1.0, 2.0]), np.zeros(2), np.full(2, 5.0)
    ) is None
    again = lp_module.maximize_last(*args, **kwargs)
    assert np.array_equal(again[0], first[0])
    assert np.array_equal(again[1], first[1])
    assert again[2] == first[2]


def test_failed_oracle_master_raises(monkeypatch):
    # The first solve runs on _COLD; re-solves, and the retry after a
    # failed run, on _PRIMAL.  A failed _COLD run alone is recovered.
    gram = SettingsEnsemble.random(4, np.random.default_rng(3)).gram
    for limited in ((lp_module._COLD, lp_module._PRIMAL), (lp_module._PRIMAL,)):
        with monkeypatch.context() as patch:
            for options in limited:
                patch.setattr(options, "simplex_iteration_limit", 0)
            with pytest.raises(LvtError, match="oracle master LP failed: HiGHS model status"):
                max_visibility_for_gram(gram)
    with monkeypatch.context() as patch:
        patch.setattr(lp_module._COLD, "simplex_iteration_limit", 0)
        value, _ = max_visibility_for_gram(gram)
    assert abs(value - full_column_lp(gram, *every_strategy(4))) <= 1e-9


def test_dropped_tiny_entry_solves_and_matches_linprog():
    # maximize x2 over x0 + 1e-12 x1 + 0 x2 = 0.5, x0 + x1 - x2 = 0,
    # 0 <= x <= 1, with the zero stored.  maximize_last hands HiGHS the
    # arrays as built, and HiGHS drops both the stored zero and 1e-12.
    columns = (np.array([0, 2, 4, 6]), np.array([0, 1, 0, 1, 0, 1]),
               np.array([1.0, 1.0, 1e-12, 1.0, 0.0, -1.0]))
    b_eq = np.array([0.5, 0.0])
    assert_matches_linprog((columns, b_eq, np.zeros(3), np.ones(3)), {})
    held = lp_module._SOLVER.getLp().a_matrix_
    assert (held.start_, held.index_, held.value_) == ([0, 2, 3, 4], [0, 1, 1, 1],
                                                       [1.0, 1.0, 1.0, -1.0])


def test_models_are_passed_as_arrays(monkeypatch):
    # maximize_last and Master hand HiGHS arrays, never a HighsLp.
    def refuse(*args, **kwargs):
        raise AssertionError("HighsLp built")

    settings, model = span_model(4, 10, 17)
    gram = SettingsEnsemble.random(4, np.random.default_rng(3)).gram
    with monkeypatch.context() as patch:
        patch.setattr(lp_module.highs, "HighsLp", refuse)
        assert side_lp(np.array(model.b_table), np.array(model.rho), settings.svd) is not None
        value, _ = max_visibility_for_gram(gram)
    assert abs(value - full_column_lp(gram, *every_strategy(4))) <= 1e-9
