import math

import numpy as np
import pytest

from lvt import (
    Direction,
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
    # At M = 4 the t half of the winning climb state here had drifted
    # along sqrt(rho) far enough that the model missed the 1e-8
    # marginal bound (|B rho| = 1.3e-8) until state_to_model projected
    # t off sqrt(rho) again.
    settings = SettingsEnsemble.random(4, np.random.default_rng([1623668192, 4, 3]))
    cfg = SearchConfig(
        n_settings=4, m_states=4, inner_iters=4000, restarts=6,
        seed=1623668192 * 100_000 + 304,
    )
    model, _ = inner_maximize(settings, cfg)
    assert validate_model(model, settings, 1e-8).passed
    assert np.max(np.abs(model.b_table @ model.rho)) < 1e-12


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
