import math
from dataclasses import fields

import numpy as np
import pytest

import lvt
from lvt import (
    BellConfiguration,
    ChshConfiguration,
    InvalidInputError,
    ThresholdResult,
    bell_threshold_numeric,
    chsh_threshold_numeric,
)
from lvt.inequalities import _bell_expression, _chsh_expression

from directions import random_direction


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _aligned_chsh(b, b2):
    """a along b2 - b and a2 along -(b + b2): the CHSH maximum for given b, b2."""
    return ChshConfiguration(a=_unit(b2 - b), a2=_unit(-(b + b2)), b=b, b2=b2)


def _chsh_angle_form(phi):
    """The aligned CHSH expression at V = 1: 2 sqrt(2) sin(phi/2 + pi/4)."""
    return 2.0 * math.sqrt(2.0) * math.sin(phi / 2.0 + math.pi / 4.0)


def test_three_setting_closed_form_value():
    cfg = BellConfiguration(
        a=[1.0, 0.0, 0.0],
        b=(0.0, 1.0, 0.0),
        c=np.array([0.0, 0.0, 1.0]),
    )
    closure = cfg.a + cfg.c - cfg.b
    expected = 0.5 * (3.0 - float(closure @ closure))
    assert abs(_bell_expression(cfg.a, cfg.b, cfg.c) - expected) < 1e-14


def test_three_setting_maximum_at_closed_triangle():
    # vectors at 120 degrees make a + c itself unit, so b = a + c closes
    # the triangle exactly and the expression peaks at 3/2, so that
    # (V/2)(3 - |a+c-b|^2) reaches the bound 1 at V = 2/3
    a = np.array([1.0, 0.0, 0.0])
    c = np.array([-0.5, math.sqrt(3.0) / 2.0, 0.0])
    b = a + c
    cfg = BellConfiguration(a=a, b=b, c=c)
    assert abs(2.0 / 3.0 * _bell_expression(cfg.a, cfg.b, cfg.c) - 1.0) < 1e-12


def test_three_setting_threshold():
    result = bell_threshold_numeric(seed=0)
    assert abs(result.estimate.value - 2.0 / 3.0) < 1e-3
    cfg = result.configuration
    closure = cfg.a + cfg.c - cfg.b
    assert float(np.linalg.norm(closure)) < 0.05
    assert result.estimate.provenance == "bell"
    assert result.estimate.n_settings == 3


def test_numeric_maxima_match_the_lhs_at_full_visibility():
    # The searches maximize the left sides at V = 1; the reported
    # configuration is the optimum renormalized, so the expression at it
    # and the reported maximum agree to round-off.
    bell = bell_threshold_numeric(seed=0)
    cfg = bell.configuration
    assert abs(_bell_expression(cfg.a, cfg.b, cfg.c) - bell.max_expression) < 1e-12
    assert bell.estimate.value == 1.0 / bell.max_expression
    chsh = chsh_threshold_numeric(seed=0)
    cfg = chsh.configuration
    assert abs(_chsh_expression(cfg.a, cfg.a2, cfg.b, cfg.b2) - chsh.max_expression) < 1e-12
    assert chsh.estimate.value == 2.0 / chsh.max_expression


def test_four_setting_closed_form_value():
    rng = np.random.default_rng(7)
    cfg = ChshConfiguration(
        a=random_direction(rng),
        a2=random_direction(rng),
        b=random_direction(rng),
        b2=random_direction(rng),
    )
    first = cfg.a + cfg.b2 - cfg.b
    second = cfg.a2 - cfg.b2 - cfg.b
    expected = 0.5 * (float(first @ first) + float(second @ second) - 6.0)
    assert abs(_chsh_expression(cfg.a, cfg.a2, cfg.b, cfg.b2) - expected) < 1e-13


def test_configurations_hold_checked_read_only_arrays():
    cfg = ChshConfiguration(
        a=[1.0, 0.0, 0.0], a2=(0.0, 1.0, 0.0), b=[0.0, 0.0, 1.0], b2=[0.0, 1.0, 0.0]
    )
    for name in ("a", "a2", "b", "b2"):
        value = getattr(cfg, name)
        assert isinstance(value, np.ndarray) and value.shape == (3,)
        assert not value.flags.writeable
    assert cfg.phi == math.pi / 2.0
    # eq=False: arrays have no truth value, so configurations compare by identity
    assert cfg == cfg and cfg != ChshConfiguration(cfg.a, cfg.a2, cfg.b, cfg.b2)
    with pytest.raises(InvalidInputError):
        BellConfiguration(a=[1.0, 0.0, 0.0], b=[0.0, 2.0, 0.0], c=[0.0, 0.0, 1.0])
    with pytest.raises(InvalidInputError):
        ChshConfiguration(a=[1.0, 0.0], a2=cfg.a2, b=cfg.b, b2=cfg.b2)


def test_four_setting_angle_form_peaks_at_right_angle():
    # At phi = pi/2 the aligned expression is 2 sqrt(2), so V = 1/sqrt(2)
    # meets the bound 2; at other angles it stays below.
    b = np.array([0.0, 0.0, 1.0])
    v = 1.0 / math.sqrt(2.0)
    for phi in (0.3, 1.0, math.pi / 2.0, 2.0):
        cfg = _aligned_chsh(b, np.array([math.sin(phi), 0.0, math.cos(phi)]))
        value = v * _chsh_expression(cfg.a, cfg.a2, cfg.b, cfg.b2)
        assert value <= 2.0 + 1e-12
        if phi == math.pi / 2.0:
            assert abs(value - 2.0) < 1e-12


def test_aligned_configuration_matches_angle_form():
    rng = np.random.default_rng(19)
    for _ in range(5):
        b = random_direction(rng)
        b2 = random_direction(rng)
        phi = math.acos(max(-1.0, min(1.0, float(b @ b2))))
        if phi < 0.1 or phi > math.pi - 0.1:
            continue
        cfg = _aligned_chsh(b, b2)
        expression = _chsh_expression(cfg.a, cfg.a2, cfg.b, cfg.b2)
        assert abs(expression - _chsh_angle_form(phi)) < 1e-12


def test_four_setting_threshold():
    # At the unit-test and acceptance seeds the search finds the
    # configuration the closed form assumes: a along b2 - b and a2
    # along -(b + b2).
    for seed in (0, 20260819):
        result = chsh_threshold_numeric(seed=seed)
        assert abs(result.estimate.value - 1.0 / math.sqrt(2.0)) < 1e-3
        cfg = result.configuration
        assert abs(cfg.phi - math.pi / 2.0) < 0.02
        assert float(cfg.a @ _unit(cfg.b2 - cfg.b)) > 1.0 - 1e-9
        assert float(cfg.a2 @ _unit(-(cfg.b + cfg.b2))) > 1.0 - 1e-9
        assert result.estimate.provenance == "chsh"
        assert result.estimate.n_settings == 2


def test_thresholds_deterministic():
    one = bell_threshold_numeric(seed=5)
    two = bell_threshold_numeric(seed=5)
    assert one.estimate == two.estimate


def test_threshold_result_holds_only_its_estimate_configuration_and_maximum():
    assert [f.name for f in fields(ThresholdResult)] == [
        "estimate", "configuration", "max_expression",
    ]


def test_retired_helpers_are_gone():
    for name in ("bell_lhs", "chsh_lhs", "chsh_angle_lhs", "aligned_chsh_configuration",
                 "quantum_marginal"):
        assert name not in lvt.__all__
        assert not hasattr(lvt, name)
    # Names only the tests imported from the package stay in their
    # modules, where the program calls them.
    homes = {
        "gram_svd": lvt.construct, "fit_power_law": lvt.search, "PowerLawFit": lvt.search,
        "perturb_settings": lvt.search, "max_visibility_for_gram": lvt.oracle,
        "MAX_ORACLE_SETTINGS": lvt.oracle,
    }
    for name, module in homes.items():
        assert name not in lvt.__all__
        assert not hasattr(lvt, name)
        assert hasattr(module, name)
