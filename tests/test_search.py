import math
import tracemalloc

import numpy as np
import pytest

from lvt import search as search_module
from lvt import seesaw as seesaw_module
from lvt import (
    DEFAULT_RHO_MIN,
    ConstructionFailureError,
    InvalidInputError,
    SearchConfig,
    SettingsEnsemble,
    VisibilityEstimate,
    extrapolate,
    fit_power_law,
    inner_maximize,
    max_visibility_lp,
    n_sweep,
    outer_minimize,
    perturb_settings,
    state_to_model,
    validate_model,
)
from lvt.construct import ValidationReport, _floor_normalized, project_out, unit_rows
from lvt.core import checked_directions, seeded_rng

from directions import random_direction


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SearchConfig(n_settings=0)
    with pytest.raises(InvalidInputError):
        SearchConfig(n_settings=2, m_states=3)
    for fixed in ("step_scale", "patience", "rho_min"):
        with pytest.raises(TypeError):
            SearchConfig(n_settings=2, **{fixed: 1})
    cfg = SearchConfig(n_settings=2)
    assert cfg.m_states == 4


def test_single_pair_converges_to_full_visibility():
    # At N = 1 every M >= 4 reaches (N+1)^2, so the climb takes one step
    # per restart and the finish alone lifts its model to V = 1.
    z = (0.0, 0.0, 1.0)
    settings = SettingsEnsemble((z,), (z,))
    for m in (4, 5):
        cfg = SearchConfig(n_settings=1, m_states=m, inner_iters=3000, restarts=2, seed=2)
        model, est = inner_maximize(settings, cfg)
        assert est.value > 1.0 - 1e-12
        assert est.iterations_used <= 3 * cfg.restarts
        assert validate_model(model, settings, 1e-8).passed


def test_single_setting_reaches_exactly_one():
    # The finish's LP reaches V = 1 there; its rebuilt tables overshoot 1
    # by round-off, which certified_model clips instead of rescaling.
    settings = SettingsEnsemble.random(1, np.random.default_rng([1, 1]))
    cfg = SearchConfig(n_settings=1, m_states=4, restarts=3, seed=1)
    model, est = inner_maximize(settings, cfg)
    assert est.value == 1.0
    assert validate_model(model, settings, 1e-9).passed


def test_inner_maximum_never_exceeds_exact_optimum():
    rng = np.random.default_rng(83)
    for n, m in ((2, 4), (3, 4), (4, 8)):
        for _ in range(3):
            settings = SettingsEnsemble.random(n, rng)
            cfg = SearchConfig(
                n_settings=n, m_states=m, inner_iters=2000, restarts=2, seed=1
            )
            _, est = inner_maximize(settings, cfg)
            oracle = max_visibility_lp(settings)
            assert est.value <= oracle.value + 5e-3


@pytest.mark.parametrize("n, m", [(2, 4), (2, 5), (30, 4), (4, 34), (1000, 4)])
def test_kernel_value_matches_rebuilt_model(n, m):
    # The climb scores states with the stacked kernel, and state_to_model
    # builds the model of one state with the same kernel.  The two read
    # the same exact visibility up to the round-off of the model's
    # mean subtraction, and the model must certify it.
    rng = np.random.default_rng([89, n, m])
    settings = SettingsEnsemble.random(n, rng)
    w_ab = search_module._scaled_factors(settings)
    x = np.concatenate([rng.standard_normal((40, 6 * m)), rng.uniform(size=(40, m))], axis=1)
    tables, solved = search_module._state_tables(x, w_ab, m)
    assert solved.all()
    _, values = search_module._scores(tables, np.full(40, math.inf))
    for state, value in zip(x, values):
        model = state_to_model(state, settings)
        assert abs(model.visibility - value) <= 1e-12 * value
        assert validate_model(model, settings, 1e-8).passed


def inverse_tables(x, w_ab, m):
    """The kernel's tables, solving each 3x3 system with np.linalg.inv."""
    out = []
    for state in x:
        srho = np.sqrt(_floor_normalized(state[6 * m :], DEFAULT_RHO_MIN))
        q = project_out(state[: 3 * m].reshape(3, m), srho)
        t = project_out(state[3 * m : 6 * m].reshape(3, m), srho)
        t = np.linalg.inv(t @ q.T) @ t
        out.append(w_ab @ (np.stack([q, t]) / srho))
    return np.array(out)


@pytest.mark.parametrize("n, m", [(3, 5), (4, 4), (1000, 4), (2, 34)])
def test_adjugate_kernel_matches_an_inverse(n, m):
    rng = np.random.default_rng([139, n, m])
    settings = SettingsEnsemble.random(n, rng)
    w_ab = search_module._scaled_factors(settings)
    x = np.concatenate([rng.standard_normal((50, 6 * m)), rng.uniform(size=(50, m))], axis=1)
    tables, solved = search_module._state_tables(x, w_ab, m)
    assert solved.all()
    expected = inverse_tables(x, w_ab, m)
    error = np.abs(tables - expected).max(axis=(2, 3)) / np.abs(expected).max(axis=(2, 3))
    assert error.max() <= 1e-12


def test_singular_states_come_back_unsolved():
    # A zero state, and a state whose q rows 0 and 1 are equal, leave the
    # 3x3 system singular: its determinant is exactly zero.
    m = 5
    rng = np.random.default_rng(149)
    w_ab = search_module._scaled_factors(SettingsEnsemble.random(3, rng))
    x = np.concatenate([rng.standard_normal((3, 6 * m)), rng.uniform(size=(3, m))], axis=1)
    x[1] = 0.0
    x[2, m : 2 * m] = x[2, :m]
    tables, solved = search_module._state_tables(x, w_ab, m)
    assert solved.tolist() == [True, False, False]
    assert not tables[1:].any()


def test_singular_state_raises_construction_failure():
    # A zero state leaves the 3x3 biorthogonalizing system singular.
    settings = SettingsEnsemble.random(3, np.random.default_rng(0))
    with pytest.raises(ConstructionFailureError):
        state_to_model(np.zeros(28), settings)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_is_rejected(bad):
    settings = SettingsEnsemble.random(3, np.random.default_rng(0))
    x = np.ones(28)
    x[5] = bad
    with pytest.raises(InvalidInputError, match="state is not finite"):
        state_to_model(x, settings)


def test_climb_never_calls_a_matrix_inverse(monkeypatch):
    def no_inverse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    settings = SettingsEnsemble.random(3, np.random.default_rng([151, 3]))
    cfg = SearchConfig(n_settings=3, m_states=5, inner_iters=500, restarts=6, seed=1)
    value, _, evals = search_module._climb(settings, cfg)
    assert evals >= 6 * 500
    assert value > 0.0


def test_inner_maximize_deterministic():
    rng = np.random.default_rng(97)
    for n, m in ((2, 4), (4, 8)):
        settings = SettingsEnsemble.random(n, rng)
        cfg = SearchConfig(n_settings=n, m_states=m, inner_iters=500, restarts=2, seed=7)
        _, one = inner_maximize(settings, cfg)
        _, two = inner_maximize(settings, cfg)
        assert one.value == two.value


@pytest.mark.parametrize("n, m", [(2, 10), (3, 20), (4, 34)])
def test_finish_alone_reaches_the_oracle_from_m_of_n_plus_one_squared(n, m):
    # From M = (N+1)^2 on, every basic optimum of the finish's weight LP
    # fits in M states, so the climb takes one step per restart: a start
    # draw and one move each, whatever inner_iters says.
    settings = SettingsEnsemble.random(n, np.random.default_rng([137, n]))
    oracle = max_visibility_lp(settings).value
    results = []
    for inner_iters in (10, 4000):
        cfg = SearchConfig(
            n_settings=n, m_states=m, inner_iters=inner_iters, restarts=3, seed=n
        )
        model, est = inner_maximize(settings, cfg)
        assert est.iterations_used <= 3 * cfg.restarts
        assert abs(est.value - oracle) < 1e-6
        assert validate_model(model, settings, 1e-8).passed
        results.append((est.value, est.iterations_used))
    assert results[0] == results[1]


def test_search_below_n_plus_one_squared_climbs_its_full_budget():
    # (N, M) = (3, 15) lies just below (N+1)^2 = 16: the climb keeps its
    # budget, and value and step count are those of the uncapped search.
    settings = SettingsEnsemble.random(3, np.random.default_rng([133, 3]))
    cfg = SearchConfig(n_settings=3, m_states=15, inner_iters=1000, restarts=2, seed=3)
    _, est = inner_maximize(settings, cfg)
    assert est.value == 0.7766569143712716
    assert est.iterations_used == 2002


def test_m4_model_keeps_zero_marginals():
    # At M = 4 the t half of a state leaves the tables unchanged (t is
    # fixed by q), whatever it holds.  Here it holds 1e9 sqrt(rho) on each
    # row: projecting that off leaves round-off along sqrt(rho), which
    # the kernel's 3x3 solve carries into t, so the kernel's raw table
    # B' has a marginal |B' rho| past the 1e-8 bound.  state_to_model
    # subtracts each row's rho-weighted mean and keeps the marginals at
    # zero.
    settings = SettingsEnsemble.random(4, np.random.default_rng([98, 4]))
    cfg = SearchConfig(n_settings=4, m_states=4, inner_iters=4000, restarts=1, seed=98)
    _, best_x, _ = search_module._climb(settings, cfg)
    x = best_x.copy()
    m = cfg.m_states
    rho = _floor_normalized(x[6 * m :], DEFAULT_RHO_MIN)
    srho = np.sqrt(rho)
    x[3 * m : 6 * m] += np.tile(1e9 * srho, 3)
    w_ab = search_module._scaled_factors(settings)
    tables, solved = search_module._state_tables(x[None], w_ab, m)
    assert solved[0]
    b_raw = tables[0, 1]
    assert np.max(np.abs(b_raw @ rho)) / np.max(np.abs(b_raw)) > 1e-8
    model = state_to_model(x, settings)
    assert validate_model(model, settings, 1e-8).passed
    assert np.max(np.abs(model.b_table @ model.rho)) < 1e-12


def stepwise_climb(settings, config, retire=True):
    """Reference climb: one move per restart per step, all restarts in lockstep.

    Each restart reads its moves from a queue refilled from its stream
    sm._DRAWS at a time.  With retire, a restart that reaches V = 1
    stops, and so does every higher-index restart, after that step.
    """
    sm = search_module
    w_ab = sm._scaled_factors(settings)
    m = config.m_states
    dim = 7 * m
    count = config.restarts
    rngs = [seeded_rng(config.seed, sm._TAG_RESTART, r) for r in range(count)]
    evals = 0
    x = np.empty((count, dim))
    for r, rng in enumerate(rngs):
        while True:
            x[r] = np.concatenate([rng.standard_normal(6 * m), rng.uniform(0.0, 1.0, m)])
            evals += 1
            tables, solved = sm._state_tables(x[r : r + 1], w_ab, m)
            if solved[0] and sm._scores(tables, np.array([math.inf]))[0][0] > -np.inf:
                break
    queues = [[] for _ in range(count)]

    def next_move(r):
        if not queues[r]:
            index = rngs[r].integers(dim, size=sm._DRAWS)
            normal = rngs[r].standard_normal(sm._DRAWS)
            queues[r] = list(zip(index, normal))
        return queues[r].pop(0)

    current, _ = sm._state_tables(x, w_ab, m)
    ladder = [sm._SHARPNESS_BASE * 2.0**k for k in range(sm._SHARPNESS_DOUBLINGS)]
    ladder.append(math.inf)
    beta = ladder[0]
    phase_len = max(1, config.inner_iters // len(ladder))
    score, best_v = sm._scores(current.copy(), np.full(count, beta))
    best_x = x.copy()
    factor = [1.0] * count
    rejections = [0] * count
    streak = [0] * count
    retired = count
    if retire:
        retired = next((r for r in range(count) if best_v[r] >= 1.0), count)
    for k in range(config.inner_iters):
        live = [r for r in range(retired) if factor[r] >= sm._FACTOR_FLOOR]
        if not live:
            break
        if k > 0 and k % phase_len == 0 and k // phase_len < len(ladder):
            beta = ladder[k // phase_len]
            score, _ = sm._scores(current.copy(), np.full(count, beta))
        moves = [next_move(r) for r in live]
        evals += len(live)
        # At M = 4 a t-half move is a rejection, never scored.
        scored = [
            i for i, (index, _) in enumerate(moves) if m > 4 or not 3 * m <= index < 6 * m
        ]
        accepted = np.zeros(len(live), dtype=bool)
        if scored:
            candidate = x[[live[i] for i in scored]]
            for row, i in enumerate(scored):
                index, normal = moves[i]
                candidate[row, index] += sm._STEP_SCALE * factor[live[i]] * normal
            tables, solved = sm._state_tables(candidate, w_ab, m)
            new_score, new_v = sm._scores(tables.copy(), np.full(len(scored), beta))
            for row, i in enumerate(scored):
                accepted[i] = solved[row] and new_score[row] > score[live[i]]
        for i, r in enumerate(live):
            if accepted[i]:
                j = scored.index(i)
                x[r] = candidate[j]
                current[r] = tables[j]
                score[r] = new_score[j]
                if new_v[j] > best_v[r]:
                    best_v[r] = new_v[j]
                    best_x[r] = candidate[j]
                    if retire and best_v[r] >= 1.0:
                        retired = min(retired, r)
                rejections[r] = 0
                streak[r] += 1
                if streak[r] >= 10:
                    factor[r] = min(factor[r] * 2.0, sm._FACTOR_CAP)
                    streak[r] = 0
            else:
                streak[r] = 0
                rejections[r] += 1
                if rejections[r] >= sm._PATIENCE:
                    factor[r] *= 0.5
                    rejections[r] = 0
    return best_v, best_x, evals


def winner(values):
    """Index of the highest value, ties to the lowest index, as _climb picks."""
    return min(range(len(values)), key=lambda r: (-values[r], r))


@pytest.mark.parametrize(
    "n, m, restarts",
    [(2, 4, 1), (3, 5, 6), (30, 4, 2), (4, 34, 3), (1, 4, 3), (4, 4, 6), (2, 10, 3), (2, 5, 6)],
)
def test_block_climb_matches_stepwise_reference(monkeypatch, n, m, restarts):
    # Short climbs take a patience of 7, which halves the step factor
    # often enough that blocks end on halvings, restarts run out early,
    # and blocks meet the rung ends.  At (1, 4, 3) restart 1 reaches
    # V = 1, so restart 2 retires while restart 0 climbs on.  (2, 5, 6)
    # is a full climb at the default patience and budget: restart 0
    # reaches V = 1 at step 525, after restarts 1, 3 and 5 have climbed
    # past it, so their steps past it do not count.  _climb returns the
    # reference's winner: its best value and state, and every step the
    # reference counts.
    full = (n, m, restarts) == (2, 5, 6)
    if full:
        settings = SettingsEnsemble.random(n, np.random.default_rng([1, n]))
        cfg = SearchConfig(n_settings=n, m_states=m, restarts=restarts, seed=1)
    else:
        monkeypatch.setattr(search_module, "_PATIENCE", 7)
        settings = SettingsEnsemble.random(n, np.random.default_rng([107, n, m]))
        cfg = SearchConfig(
            n_settings=n, m_states=m, inner_iters=300, restarts=restarts, seed=5
        )
    value, state, evals = search_module._climb(settings, cfg)
    ref_v, ref_x, ref_evals = stepwise_climb(settings, cfg)
    w = winner(ref_v)
    assert value == ref_v[w]
    assert np.array_equal(state, ref_x[w])
    assert evals == ref_evals
    if full:
        assert (w, value) == (0, 1.0)


def test_retiring_at_full_visibility_keeps_the_winner():
    # Restarts 1 and 2 reach V = 1 here; restart 0 does not.
    settings = SettingsEnsemble.random(2, np.random.default_rng([109, 2, 0]))
    cfg = SearchConfig(n_settings=2, inner_iters=600, restarts=3, seed=0)
    full_v, full_x, full_evals = stepwise_climb(settings, cfg, retire=False)
    ref_v, ref_x, ref_evals = stepwise_climb(settings, cfg)
    w = winner(full_v)
    assert full_v[w] == 1.0
    assert winner(ref_v) == w
    assert ref_v[w] == full_v[w]
    assert np.array_equal(ref_x[w], full_x[w])
    assert ref_evals < full_evals
    assert (full_evals, ref_evals) == (1803, 1180)
    value, state, evals = search_module._climb(settings, cfg)
    assert value == ref_v[w]
    assert np.array_equal(state, ref_x[w])
    assert evals == ref_evals


def test_climb_memory_does_not_grow_with_the_budget():
    # Moves are drawn _DRAWS at a time into a ring of two batches, so a
    # budget of 10^7 steps holds no more drawn moves than one of 10^3.
    # Both restarts reach V = 1 here, and the climb stops after 575
    # counted steps, starting draws included.
    settings = SettingsEnsemble.random(2, np.random.default_rng([0, 2]))
    cfg = SearchConfig(n_settings=2, m_states=4, inner_iters=10**7, restarts=2, seed=0)
    tracemalloc.start()
    try:
        value, _, evals = search_module._climb(settings, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (value, evals) == (1.0, 575)
    assert peak < 2**20


def _cross_condition(x, m, rho_min):
    """Condition number of each state's 3x3 biorthogonalizing system."""
    out = []
    for state in x:
        srho = np.sqrt(_floor_normalized(state[6 * m :], rho_min))
        q = project_out(state[: 3 * m].reshape(3, m), srho)
        t = project_out(state[3 * m : 6 * m].reshape(3, m), srho)
        out.append(np.linalg.cond(t @ q.T))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 30])
def test_m4_t_half_moves_leave_the_tables_unchanged(monkeypatch, n):
    # At M = 4, t is the dual basis of q inside sqrt(rho)'s 3-dimensional
    # complement, whatever the t half holds, so the climb takes a t-half
    # move as a rejection without scoring it.  The tables then move only
    # by the round-off of the 3x3 solve, which grows with that system's
    # condition number: 1.9e-12 relative at a condition number of 2.7e4,
    # and at most 0.6 eps times it, over these 96 moved states.  At
    # M = 5 the t half counts.
    rng = np.random.default_rng([113, n])
    settings = SettingsEnsemble.random(n, rng)
    w_ab = search_module._scaled_factors(settings)
    # The figures above were measured with weights floored at 0.01; the
    # kernel reads its floor from the module.
    rho_min = 0.01
    monkeypatch.setattr(search_module, "DEFAULT_RHO_MIN", rho_min)
    for m in (4, 5):
        x = np.concatenate([rng.standard_normal((4, 6 * m)), rng.uniform(size=(4, m))], axis=1)
        base, solved = search_module._state_tables(x, w_ab, m)
        assert solved.all()
        largest = 0.0
        for k in range(3 * m, 6 * m):
            moved = x.copy()
            moved[:, k] += 0.5 * rng.standard_normal(4)
            tables, solved = search_module._state_tables(moved, w_ab, m)
            assert solved.all()
            # Each side relative to its own largest entry, as the
            # scale-balanced visibility reads them.
            change = np.abs(tables - base).max(axis=(2, 3)) / np.abs(base).max(axis=(2, 3))
            change = change.max(axis=1)
            if m == 4:
                condition = np.maximum(
                    _cross_condition(x, m, rho_min), _cross_condition(moved, m, rho_min)
                )
                assert np.all(change[condition < 1e3] < 1e-12)
                assert np.all(change < 1e-15 * condition)
            largest = max(largest, float(change.max()))
        if m == 5:
            assert largest > 1e-3


def test_soft_score_is_finite_far_below_the_peak():
    # Entries 10^3 / beta below the peak would underflow exp without the
    # exponent floor; the score must still equal the unclamped formula.
    beta = 50.0
    tables = np.zeros((1, 2, 3, 4))
    tables[0] = 1.0
    tables[0, :, 0, 0] = 1.0 + 1e3 / beta
    score, visibility = search_module._scores(tables.copy(), np.array([beta]))
    magnitudes = np.abs(tables).reshape(1, 2, -1)
    peaks = magnitudes.max(axis=2)
    with np.errstate(under="ignore"):
        spread = np.exp(beta * (magnitudes - peaks[:, :, None])).sum(axis=2)
    soft = np.log(spread) / beta + peaks
    assert np.isfinite(score[0])
    assert score[0] == 1.0 / (soft[0, 0] * soft[0, 1])
    assert visibility[0] == 1.0 / 21.0**2


def test_outer_minimum_at_single_setting_is_one():
    cfg = SearchConfig(
        n_settings=1, inner_iters=3000, outer_iters=4, restarts=3, seed=0
    )
    est = outer_minimize(cfg)
    assert est.value > 1.0 - 1e-3


def test_outer_minimize_deterministic():
    cfg = SearchConfig(n_settings=2, inner_iters=400, outer_iters=4, restarts=1, seed=9)
    assert outer_minimize(cfg).value == outer_minimize(cfg).value


def test_sweep_single_element_matches_direct_call():
    cfg = SearchConfig(n_settings=5, inner_iters=400, outer_iters=3, restarts=1, seed=11)
    direct = outer_minimize(SearchConfig(
        n_settings=3, inner_iters=400, outer_iters=3, restarts=1, seed=11))
    swept = n_sweep([3], cfg)
    assert len(swept) == 1
    assert swept[0].value == direct.value


def test_sweep_rejects_bad_inputs():
    cfg = SearchConfig(n_settings=2, inner_iters=100, outer_iters=1, restarts=1)
    assert n_sweep([], cfg) == []
    with pytest.raises(InvalidInputError):
        n_sweep([3, 2], cfg)
    with pytest.raises(InvalidInputError):
        n_sweep([0], cfg)


def test_perturbed_settings_stay_unit():
    rng = np.random.default_rng(101)
    settings = SettingsEnsemble.random(4, rng)
    jittered = perturb_settings(settings, rng)
    for side in (jittered.a_matrix, jittered.b_matrix):
        assert np.all(np.abs(np.linalg.norm(side, axis=1) - 1.0) < 1e-12)


def reference_jitter(side, rng):
    """perturb_settings on one side, one direction at a time."""
    out = []
    for d in side:
        vec = d + search_module._SETTINGS_JITTER * rng.standard_normal(3)
        out.append(checked_directions(vec / np.linalg.norm(vec)))
    return out


@pytest.mark.parametrize("n", [1, 3, 100, 1000])
def test_array_settings_match_directions_drawn_one_at_a_time(n):
    def same_rows(settings, sides):
        return all(
            np.array_equal(matrix, side)
            for matrix, side in zip((settings.a_matrix, settings.b_matrix), sides)
        )

    for seed in range(4):
        rng = np.random.default_rng([127, n, seed])
        ref_rng = np.random.default_rng([127, n, seed])
        settings = SettingsEnsemble.random(n, rng)
        sides = [[random_direction(ref_rng) for _ in range(n)] for _ in "ab"]
        assert same_rows(settings, sides)
        for _ in range(2):
            settings = perturb_settings(settings, rng)
            sides = [reference_jitter(side, ref_rng) for side in sides]
            assert same_rows(settings, sides)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_power_law_fit_recovers_exact_model():
    ns = [4, 16, 64, 256]
    values = [1.0 / 3.0 + n ** (-0.5) for n in ns]
    fit = fit_power_law(ns, values)
    assert abs(fit.v_inf - 1.0 / 3.0) < 1e-6
    assert abs(fit.alpha - 0.5) < 1e-12


def test_power_law_fit_constant_data():
    fit = fit_power_law([3, 10, 30], [0.4, 0.4, 0.4])
    assert abs(fit.v_inf - 0.4) < 1e-12
    assert abs(fit.c) < 1e-12


def test_extrapolate_requires_three_distinct_counts():
    def est(n, v):
        return VisibilityEstimate(
            value=v, std_error=0.01, n_settings=n,
            provenance="mc-search", seed=0, iterations_used=10,
        )

    with pytest.raises(InvalidInputError):
        extrapolate([est(3, 0.5), est(10, 0.45)])
    out = extrapolate([est(4, 1.0 / 3.0 + 0.5), est(16, 1.0 / 3.0 + 0.25),
                       est(64, 1.0 / 3.0 + 0.125)])
    assert out.n_settings == 0
    assert out.provenance == "mc-search"
    assert abs(out.value - 1.0 / 3.0) < 1e-6


def test_state_to_model_certifies_its_value():
    rng = np.random.default_rng(103)
    for n, m in ((3, 4), (4, 8)):
        settings = SettingsEnsemble.random(n, rng)
        cfg = SearchConfig(n_settings=n, m_states=m, inner_iters=800, restarts=1, seed=13)
        model, est = inner_maximize(settings, cfg)
        assert model.m_states == m
        assert abs(model.visibility - est.value) < 1e-12
        report = validate_model(model, settings, 1e-8)
        assert report.passed


def test_search_path_never_reads_the_gram(monkeypatch):
    def no_gram(self):
        raise AssertionError("the N x N Gram was formed")

    monkeypatch.setattr(SettingsEnsemble, "gram", property(no_gram))
    checked = []

    def recording_validate(model, settings, tol):
        checked.append(model)
        return validate_model(model, settings, tol)

    monkeypatch.setattr(seesaw_module, "validate_model", recording_validate)
    settings = SettingsEnsemble.random(300, np.random.default_rng(107))
    cfg = SearchConfig(n_settings=300, inner_iters=100, restarts=1, seed=17)
    model, est = inner_maximize(settings, cfg)
    assert checked
    assert model.visibility == est.value
    assert validate_model(model, settings, 1e-8).passed


def test_inner_maximize_skips_the_finish_where_it_is_a_fixed_point(monkeypatch):
    # At M = 4 and N >= 3 (a rank-3 Gram) every finish step would return
    # the climb's own model, so inner_maximize certifies it instead.
    finished = []
    real_seesaw = search_module.seesaw

    def recording_seesaw(model, settings, rng):
        finished.append(settings.n_settings)
        return real_seesaw(model, settings, rng)

    monkeypatch.setattr(search_module, "seesaw", recording_seesaw)
    rng = np.random.default_rng(131)
    for n, m, runs_finish in ((3, 4, False), (4, 4, False), (100, 4, False),
                              (2, 4, True), (3, 5, True)):
        settings = SettingsEnsemble.random(n, rng)
        cfg = SearchConfig(n_settings=n, m_states=m, inner_iters=300, restarts=2, seed=n)
        finished.clear()
        model, est = inner_maximize(settings, cfg)
        assert finished == ([n] if runs_finish else [])
        assert model.visibility == est.value
        assert validate_model(model, settings, 1e-8).passed


def test_m4_finish_still_runs_on_a_rank_two_gram():
    # Coplanar A directions give the Gram rank 2, so a table step is an
    # LP again and the finish can gain: here it does.
    rng = np.random.default_rng(137)
    a = rng.standard_normal((4, 3))
    a[:, 2] = 0.0
    settings = SettingsEnsemble(unit_rows(a), unit_rows(rng.standard_normal((4, 3))))
    assert seesaw_module.gram_rank(settings) == 2
    cfg = SearchConfig(n_settings=4, inner_iters=300, restarts=2, seed=1)
    _, state, _ = search_module._climb(settings, cfg)
    climbed = state_to_model(state, settings)
    model, est = inner_maximize(settings, cfg)
    assert est.value > climbed.visibility + 1e-6
    assert validate_model(model, settings, 1e-8).passed


@pytest.mark.parametrize("n", [3, 4, 10, 100])
def test_finish_is_a_fixed_point_at_m4(n):
    # The reason inner_maximize skips the finish at M = 4, N >= 3.
    settings = SettingsEnsemble.random(n, np.random.default_rng([139, n]))
    cfg = SearchConfig(n_settings=n, inner_iters=400, restarts=2, seed=n)
    _, state, _ = search_module._climb(settings, cfg)
    climbed = state_to_model(state, settings)
    polished = seesaw_module.seesaw(
        climbed, settings, seeded_rng(cfg.seed, search_module._TAG_FINISH)
    )
    assert abs(polished.visibility - climbed.visibility) <= 1e-12


def test_uncertified_climb_model_raises(monkeypatch):
    failing = ValidationReport(1.0, 0.0, 0.0, 0.0, tol=1e-9)
    monkeypatch.setattr(seesaw_module, "validate_model", lambda model, settings, tol: failing)
    settings = SettingsEnsemble.random(3, np.random.default_rng(149))
    cfg = SearchConfig(n_settings=3, inner_iters=100, restarts=1, seed=3)
    with pytest.raises(ConstructionFailureError):
        inner_maximize(settings, cfg)
