import math

import numpy as np
import pytest

from lvt import search as search_module
from lvt import (
    Direction,
    InvalidInputError,
    SearchConfig,
    SettingsEnsemble,
    VisibilityEstimate,
    biorthogonalize,
    extrapolate,
    fit_power_law,
    floor_normalized_weights,
    gram_svd,
    inner_maximize,
    max_visibility_lp,
    n_sweep,
    outer_minimize,
    perturb_settings,
    project_out,
    state_to_model,
    validate_model,
)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SearchConfig(n_settings=0)
    with pytest.raises(InvalidInputError):
        SearchConfig(n_settings=2, m_states=3)
    with pytest.raises(InvalidInputError):
        SearchConfig(n_settings=2, step_scale=0.0)
    with pytest.raises(InvalidInputError):
        SearchConfig(n_settings=2, rho_min=0.5)
    cfg = SearchConfig(n_settings=2)
    assert cfg.m_states == 4


def test_single_pair_converges_to_full_visibility():
    z = Direction(0.0, 0.0, 1.0)
    settings = SettingsEnsemble((z,), (z,))
    cfg = SearchConfig(n_settings=1, inner_iters=3000, restarts=2, seed=2)
    _, est = inner_maximize(settings, cfg)
    assert est.value > 1.0 - 1e-3


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


def test_accepted_values_non_decreasing_and_models_valid():
    rng = np.random.default_rng(89)
    settings = SettingsEnsemble.random(2, rng)
    cfg = SearchConfig(n_settings=2, inner_iters=1500, restarts=1, seed=4)
    accepted = []

    def record(state, value):
        accepted.append((state, value))

    inner_maximize(settings, cfg, on_accept=record)
    values = [v for _, v in accepted]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    for state, value in accepted[:: max(1, len(accepted) // 10)]:
        model = state_to_model(state, settings, cfg)
        assert validate_model(model, settings, 1e-8).passed
        assert abs(model.visibility - value) < 1e-9


def test_inner_maximize_deterministic():
    rng = np.random.default_rng(97)
    for n, m in ((2, 4), (4, 8)):
        settings = SettingsEnsemble.random(n, rng)
        cfg = SearchConfig(n_settings=n, m_states=m, inner_iters=500, restarts=2, seed=7)
        _, one = inner_maximize(settings, cfg)
        _, two = inner_maximize(settings, cfg)
        assert one.value == two.value


def test_m4_model_keeps_zero_marginals():
    # At M = 4 the t half of a state leaves the tables unchanged (t is
    # fixed by q), whatever it holds.  Here it holds 1e9 sqrt(rho) on each
    # row: projecting that off leaves round-off along sqrt(rho), which
    # biorthogonalize carries into t, so rebuilt without a second
    # projection the marginal |B rho| misses the 1e-8 bound.
    # state_to_model projects t off sqrt(rho) again and keeps the
    # marginals at zero.
    settings = SettingsEnsemble.random(4, np.random.default_rng([98, 4]))
    cfg = SearchConfig(n_settings=4, m_states=4, inner_iters=4000, restarts=1, seed=98)
    _, best_x, _ = search_module._climb(settings, cfg)
    x = best_x[0].copy()
    m = cfg.m_states
    rho = floor_normalized_weights(x[6 * m :], cfg.rho_min)
    srho = np.sqrt(rho)
    x[3 * m : 6 * m] += np.tile(1e9 * srho, 3)
    q = project_out(x[: 3 * m].reshape(3, m), srho)
    t = biorthogonalize(q, project_out(x[3 * m : 6 * m].reshape(3, m), srho))
    svd = gram_svd(settings)
    b_raw = (svd.v * np.sqrt(svd.p)) @ (t / srho)
    assert np.max(np.abs(b_raw @ rho)) / np.max(np.abs(b_raw)) > 1e-8
    model = state_to_model(x, settings, cfg)
    assert validate_model(model, settings, 1e-8).passed
    assert np.max(np.abs(model.b_table @ model.rho)) < 1e-12


def stepwise_climb(settings, config, retire=True):
    """Reference climb: one move per restart per step, all restarts in lockstep.

    Each restart reads its moves from a queue refilled from its stream
    sm._DRAWS at a time.  With retire, a restart that reaches V = 1
    stops, and so does every higher-index restart, after that step.
    """
    sm = search_module
    svd = gram_svd(settings)
    sqrt_p = np.sqrt(svd.p)
    w_ab = np.stack([svd.u * sqrt_p, svd.v * sqrt_p])
    m = config.m_states
    dim = 7 * m
    count = config.restarts
    rngs = [sm._derive_rng([config.seed, sm._TAG_RESTART, r]) for r in range(count)]
    evals = 0
    x = np.empty((count, dim))
    for r, rng in enumerate(rngs):
        while True:
            x[r] = np.concatenate([rng.standard_normal(6 * m), rng.uniform(0.0, 1.0, m)])
            evals += 1
            tables, solved = sm._state_tables(x[r : r + 1], w_ab, m, config.rho_min)
            if solved[0] and sm._scores(tables, np.array([math.inf]))[0][0] > -np.inf:
                break
    queues = [[] for _ in range(count)]

    def next_move(r):
        if not queues[r]:
            index = rngs[r].integers(dim, size=sm._DRAWS)
            normal = rngs[r].standard_normal(sm._DRAWS)
            queues[r] = list(zip(index, normal))
        return queues[r].pop(0)

    current, _ = sm._state_tables(x, w_ab, m, config.rho_min)
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
                candidate[row, index] += config.step_scale * factor[live[i]] * normal
            tables, solved = sm._state_tables(candidate, w_ab, m, config.rho_min)
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
                if rejections[r] >= config.patience:
                    factor[r] *= 0.5
                    rejections[r] = 0
    return best_v, best_x, evals


@pytest.mark.parametrize(
    "n, m, restarts", [(2, 4, 1), (3, 5, 6), (30, 4, 2), (4, 34, 3), (1, 4, 3)]
)
def test_block_climb_matches_stepwise_reference(n, m, restarts):
    # patience 7 halves the step factor often enough that blocks end on
    # halvings, restarts run out early, and blocks meet the rung ends.
    # At (1, 4, 3) restart 1 reaches V = 1, so restart 2 retires while
    # restart 0 climbs on.
    settings = SettingsEnsemble.random(n, np.random.default_rng([107, n, m]))
    cfg = SearchConfig(
        n_settings=n, m_states=m, inner_iters=300, restarts=restarts, patience=7, seed=5
    )
    best_v, best_x, evals = search_module._climb(settings, cfg)
    ref_v, ref_x, ref_evals = stepwise_climb(settings, cfg)
    assert np.array_equal(best_v, ref_v)
    assert np.array_equal(best_x, ref_x)
    assert evals == ref_evals


def test_retiring_at_full_visibility_keeps_the_winner():
    # Restarts 1 and 2 reach V = 1 here; restart 0 does not.
    settings = SettingsEnsemble.random(2, np.random.default_rng([109, 2, 0]))
    cfg = SearchConfig(n_settings=2, inner_iters=600, restarts=3, seed=0)

    def winner(values):
        return min(range(cfg.restarts), key=lambda r: (-values[r], r))

    full_v, full_x, full_evals = stepwise_climb(settings, cfg, retire=False)
    ref_v, ref_x, ref_evals = stepwise_climb(settings, cfg)
    w = winner(full_v)
    assert full_v[w] == 1.0
    assert winner(ref_v) == w
    assert ref_v[w] == full_v[w]
    assert np.array_equal(ref_x[w], full_x[w])
    assert ref_evals < full_evals
    assert (full_evals, ref_evals) == (1803, 1180)
    best_v, best_x, evals = search_module._climb(settings, cfg)
    assert np.array_equal(best_v, ref_v)
    assert np.array_equal(best_x, ref_x)
    assert evals == ref_evals


def _cross_condition(x, m, rho_min):
    """Condition number of each state's 3x3 biorthogonalizing system."""
    out = []
    for state in x:
        srho = np.sqrt(floor_normalized_weights(state[6 * m :], rho_min))
        q = project_out(state[: 3 * m].reshape(3, m), srho)
        t = project_out(state[3 * m : 6 * m].reshape(3, m), srho)
        out.append(np.linalg.cond(t @ q.T))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 30])
def test_m4_t_half_moves_leave_the_tables_unchanged(n):
    # At M = 4, t is the dual basis of q inside sqrt(rho)'s 3-dimensional
    # complement, whatever the t half holds, so the climb takes a t-half
    # move as a rejection without scoring it.  The tables then move only
    # by the round-off of the 3x3 inverse, which grows with that system's
    # condition number: 2.2e-12 relative at a condition number of 2.7e4
    # among these states, and at most 1.2 eps times it over 320 states.
    # At M = 5 the t half counts.
    rng = np.random.default_rng([113, n])
    settings = SettingsEnsemble.random(n, rng)
    svd = gram_svd(settings)
    w_ab = np.stack([svd.u * np.sqrt(svd.p), svd.v * np.sqrt(svd.p)])
    rho_min = 0.01
    for m in (4, 5):
        x = np.concatenate([rng.standard_normal((4, 6 * m)), rng.uniform(size=(4, m))], axis=1)
        base, solved = search_module._state_tables(x, w_ab, m, rho_min)
        assert solved.all()
        largest = 0.0
        for k in range(3 * m, 6 * m):
            moved = x.copy()
            moved[:, k] += 0.5 * rng.standard_normal(4)
            tables, solved = search_module._state_tables(moved, w_ab, m, rho_min)
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
    for side in (jittered.a_side, jittered.b_side):
        for d in side:
            assert abs(np.linalg.norm(d.as_array()) - 1.0) < 1e-12


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
