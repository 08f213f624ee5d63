import numpy as np
from scipy.optimize import linprog

from lvt import (
    DiscreteLhvModel,
    GramSvd,
    SettingsEnsemble,
    max_visibility_lp,
    validate_model,
)
from lvt import seesaw as seesaw_module
from lvt.seesaw import certified_model, seesaw, side_lp, weight_lp

from models import span_model


def test_finish_is_certified_and_never_worse():
    # The finish keeps only the states its weights use: a basic optimum
    # of the weight LP gives weight to at most (N+1)^2 of them.
    n = 4
    settings, start = span_model(n, 34, 7)
    finished = seesaw(start, settings, np.random.default_rng(1), start.m_states)
    assert finished is not start
    assert finished.visibility >= start.visibility
    assert finished.visibility <= max_visibility_lp(settings).value + 1e-9
    assert finished.m_states <= (n + 1) ** 2
    assert np.all(finished.rho > seesaw_module._DEAD_WEIGHT)
    assert validate_model(finished, settings, 1e-8).passed


def test_finish_reaches_the_oracle_with_enough_states():
    for n, seed in ((3, 21), (3, 22), (4, 23), (4, 24)):
        settings, start = span_model(n, 2 * (n * n + 1), seed)
        finished = seesaw(start, settings, np.random.default_rng(seed), start.m_states)
        assert finished.visibility >= max_visibility_lp(settings).value - 0.02


def finished_model(n, m, seed):
    """A certified model over general tables: the finish of a span model."""
    settings, start = span_model(n, m, seed)
    return settings, seesaw(start, settings, np.random.default_rng(seed), start.m_states)


def table_targets(settings):
    """The A step's and the B step's targets, as factors of gram and gram^T."""
    svd = settings.svd
    return svd, GramSvd(u=svd.v, v=svd.u, p=svd.p)


def dense(target):
    return (target.u * target.p) @ target.v.T


def square_steps(settings, model):
    """The (fixed table, target) pairs whose reduced system R is square."""
    pairs = zip((model.b_table, model.a_table), table_targets(settings))
    return [
        (np.array(fixed), target) for fixed, target in pairs
        if np.linalg.matrix_rank(fixed) == model.m_states - 1
    ]


def test_table_lp_keeps_the_model_exact():
    # At (4, 10) no R is square.  At (100, 4) both fixed sides, and at
    # (4, 5) the finish's A table, have rank M - 1, so R is square.
    cases = [span_model(4, 10, 17), span_model(100, 4, 17), finished_model(4, 5, 17)]
    assert [len(square_steps(*case)) for case in cases] == [0, 2, 1]
    for settings, start in cases:
        gram = settings.gram
        pairs = zip((start.b_table, start.a_table), table_targets(settings), (gram, gram.T))
        for fixed, target, expected in pairs:
            table, v = side_lp(np.array(fixed), np.array(start.rho), target)
            assert v >= start.visibility - 1e-9
            assert np.max(np.abs(table)) <= 1.0 + 1e-9
            assert np.max(np.abs(table @ start.rho)) < 1e-8
            correlations = (table * start.rho) @ fixed.T
            assert np.max(np.abs(correlations - v * expected)) < 1e-8


def full_table_lp(other, rho, target):
    """max V over T diag(rho) other^T = V target, T rho = 0, |T| <= 1, unreduced."""
    n, m = other.shape
    correlation_rows = np.column_stack([np.kron(np.eye(n), other * rho), -target.ravel()])
    marginal_rows = np.column_stack([np.kron(np.eye(n), rho[None, :]), np.zeros(n)])
    bounds = np.ones((n * m + 1, 2))
    bounds[:, 0] = -1.0
    bounds[-1, 0] = 0.0
    cost = np.zeros(n * m + 1)
    cost[-1] = -1.0
    result = linprog(
        cost, A_eq=np.vstack([correlation_rows, marginal_rows]), b_eq=np.zeros(n * n + n),
        bounds=bounds, method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.status == 0
    return result.x[:-1].reshape(n, m), result.x[-1]


def test_square_table_step_matches_highs():
    cases = [span_model(4, 4, 29), span_model(7, 4, 31), finished_model(4, 5, 17)]
    capped = 0
    for settings, model in cases:
        steps = square_steps(settings, model)
        assert steps
        # With R square, t_j = V R^-1 h_j is the only solution; a target
        # scaled by 0.01 leaves max|R^-1 H| <= 1, so V caps at 1.
        steps += [
            (fixed, GramSvd(u=target.u, v=target.v, p=0.01 * target.p))
            for fixed, target in steps
        ]
        rho = np.array(model.rho)
        for fixed, target in steps:
            table, v = side_lp(fixed, rho, target)
            expected_table, expected_v = full_table_lp(fixed, rho, dense(target))
            assert abs(v - expected_v) < 1e-9
            assert np.max(np.abs(table - expected_table)) < 1e-8
            capped += v == 1.0
    assert capped >= len(cases)


def test_weight_lp_keeps_the_model_exact():
    settings, start = span_model(3, 8, 19)
    rho, v = weight_lp(np.array(start.a_table), np.array(start.b_table), settings.svd)
    assert v >= start.visibility - 1e-9
    assert np.min(rho) >= -1e-12
    assert abs(np.sum(rho) - 1.0) < 1e-9
    assert np.max(np.abs(start.a_table @ rho)) < 1e-8
    correlations = (start.a_table * rho) @ start.b_table.T
    assert np.max(np.abs(correlations - v * settings.gram)) < 1e-8


def test_finish_leaves_the_rank_three_span():
    # At N = 4 the construction's tables have rank 3 at most; the finish
    # works over general tables, so its tables need not.
    settings, start = span_model(4, 34, 11)
    assert np.linalg.matrix_rank(start.a_table) == 3
    finished = seesaw(start, settings, np.random.default_rng(2), start.m_states)
    assert np.linalg.matrix_rank(finished.a_table) == 4
    assert finished.visibility > start.visibility


def test_finish_is_deterministic_per_stream():
    settings, start = span_model(3, 8, 5)
    one = seesaw(start, settings, np.random.default_rng(3), start.m_states)
    two = seesaw(start, settings, np.random.default_rng(3), start.m_states)
    assert one.visibility == two.visibility
    assert np.array_equal(one.a_table, two.a_table)
    assert np.array_equal(one.rho, two.rho)


def test_full_visibility_model_is_returned_unchanged():
    z = np.array([[0.0, 0.0, 1.0]])
    settings = SettingsEnsemble(z, z)
    model = DiscreteLhvModel(
        rho=np.full(4, 0.25),
        a_table=np.array([[1.0, -1.0, 1.0, -1.0]]),
        b_table=np.array([[1.0, -1.0, 1.0, -1.0]]),
        visibility=1.0,
    )
    assert seesaw(model, settings, np.random.default_rng(0), model.m_states) is model


def test_certified_model_rejects_what_it_cannot_certify():
    # A dead fifth state is dropped, and the four live ones are not
    # padded out to m_states.
    settings, start = span_model(3, 4, 9)
    a, b = np.array(start.a_table), np.array(start.b_table)
    a, b = np.column_stack([a, a[:, :1]]), np.column_stack([b, b[:, :1]])
    rho = np.append(start.rho, seesaw_module._DEAD_WEIGHT)
    assert certified_model(a, b, rho, 0.0, settings, 4) is None
    assert certified_model(a, b, rho, start.visibility, settings, 3) is None
    rebuilt = certified_model(a, b, rho, start.visibility, settings, 6)
    assert rebuilt.m_states == 4
    assert rebuilt.a_table.shape == rebuilt.b_table.shape == (3, 4)
    assert abs(rebuilt.visibility - start.visibility) < 1e-9


def test_factored_correction_matches_the_dense_one():
    # The dense form: the least-squares change of the table that removes
    # the N x N correlation residual and the marginal residual.
    for n, m, seed in ((4, 4, 31), (100, 4, 32), (100, 10, 33)):
        settings, start = span_model(n, m, seed)
        rng = np.random.default_rng(seed)
        a = np.array(start.a_table) + 0.01 * rng.standard_normal((n, m))
        b = np.array(start.b_table)
        rho = np.array(start.rho)
        target = start.visibility * settings.gram
        lhs = np.vstack([b * rho, rho[None, :]])
        residual = np.vstack([(target - (a * rho) @ b.T).T, -(a @ rho)[None, :]])
        delta, *_ = np.linalg.lstsq(lhs, residual, rcond=None)
        dense = a + delta.T
        factored = seesaw_module._correct(b, a, rho, start.visibility, settings.svd)
        assert np.max(np.abs(factored - dense)) < 1e-12


def test_lp_rows_grow_with_n_not_n_squared(monkeypatch):
    n, m = 200, 4
    settings, start = span_model(n, m, 13)
    heights = []
    real_lp = seesaw_module.maximize_last

    def recording_lp(columns, b_eq, *args, **kwargs):
        heights.append(b_eq.shape[0])
        return real_lp(columns, b_eq, *args, **kwargs)

    monkeypatch.setattr(seesaw_module, "maximize_last", recording_lp)
    finished = seesaw(start, settings, np.random.default_rng(4), start.m_states)
    assert heights
    assert max(heights) <= n * (m + 1)
    assert validate_model(finished, settings, 1e-8).passed
