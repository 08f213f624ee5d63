import math

import numpy as np
import pytest

from lvt import (
    BellConfiguration,
    ChshConfiguration,
    Direction,
    InvalidInputError,
    aligned_chsh_configuration,
    bell_lhs,
    bell_threshold_numeric,
    chsh_angle_lhs,
    chsh_lhs,
    chsh_threshold_numeric,
)

from directions import random_direction


def test_three_setting_closed_form_value():
    cfg = BellConfiguration(
        a=Direction(1.0, 0.0, 0.0),
        b=Direction(0.0, 1.0, 0.0),
        c=Direction(0.0, 0.0, 1.0),
    )
    closure = cfg.a.as_array() + cfg.c.as_array() - cfg.b.as_array()
    expected = 0.5 * 0.5 * (3.0 - float(closure @ closure))
    assert abs(bell_lhs(cfg, 0.5) - expected) < 1e-14


def test_three_setting_maximum_at_closed_triangle():
    # vectors at 120 degrees make a + c itself unit, so b = a + c closes
    # the triangle exactly and the expression peaks at 3V/2 = 1 at V=2/3
    a = Direction(1.0, 0.0, 0.0)
    c = Direction(-0.5, math.sqrt(3.0) / 2.0, 0.0)
    b = Direction.from_array(a.as_array() + c.as_array())
    cfg = BellConfiguration(a=a, b=b, c=c)
    assert abs(bell_lhs(cfg, 2.0 / 3.0) - 1.0) < 1e-12


def test_three_setting_threshold():
    result = bell_threshold_numeric(seed=0)
    assert abs(result.threshold - 2.0 / 3.0) < 1e-3
    cfg = result.configuration
    closure = cfg.a.as_array() + cfg.c.as_array() - cfg.b.as_array()
    assert float(np.linalg.norm(closure)) < 0.05
    est = result.estimate()
    assert est.provenance == "bell"
    assert est.n_settings == 3


def test_numeric_maxima_match_the_lhs_at_full_visibility():
    # The searches and bell_lhs / chsh_lhs share one expression; the
    # reported configuration is the optimum renormalized, so the two
    # agree to round-off.
    bell = bell_threshold_numeric(seed=0)
    assert abs(bell_lhs(bell.configuration, 1.0) - bell.max_expression) < 1e-12
    chsh = chsh_threshold_numeric(seed=0)
    assert abs(chsh_lhs(chsh.configuration, 1.0) - chsh.max_expression) < 1e-12


def test_four_setting_closed_form_value():
    rng = np.random.default_rng(7)
    cfg = ChshConfiguration(
        a=random_direction(rng),
        a2=random_direction(rng),
        b=random_direction(rng),
        b2=random_direction(rng),
    )
    av, a2v, bv, b2v = (d.as_array() for d in (cfg.a, cfg.a2, cfg.b, cfg.b2))
    first = av + b2v - bv
    second = a2v - b2v - bv
    expected = 0.45 * 0.5 * (float(first @ first) + float(second @ second) - 6.0)
    assert abs(chsh_lhs(cfg, 0.45) - expected) < 1e-13


def test_four_setting_angle_form_peaks_at_right_angle():
    v = 1.0 / math.sqrt(2.0)
    assert abs(chsh_angle_lhs(math.pi / 2.0, v) - 2.0) < 1e-12
    for phi in (0.3, 1.0, 2.0):
        assert chsh_angle_lhs(phi, v) <= 2.0 + 1e-12
    with pytest.raises(InvalidInputError):
        chsh_angle_lhs(-0.1, 0.5)


def test_aligned_configuration_matches_angle_form():
    rng = np.random.default_rng(19)
    for _ in range(5):
        b = random_direction(rng)
        b2 = random_direction(rng)
        phi = math.acos(max(-1.0, min(1.0, float(b.as_array() @ b2.as_array()))))
        if phi < 0.1 or phi > math.pi - 0.1:
            continue
        cfg = aligned_chsh_configuration(b, b2)
        v = 0.6
        assert abs(chsh_lhs(cfg, v) - chsh_angle_lhs(phi, v)) < 1e-12


def test_aligned_configuration_rejects_parallel_directions():
    b = Direction(0.0, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        aligned_chsh_configuration(b, b)


def test_four_setting_threshold():
    result = chsh_threshold_numeric(seed=0)
    assert abs(result.threshold - 1.0 / math.sqrt(2.0)) < 1e-3
    assert abs(result.configuration.phi - math.pi / 2.0) < 0.02
    est = result.estimate()
    assert est.provenance == "chsh"
    assert est.n_settings == 2


def test_thresholds_deterministic():
    one = bell_threshold_numeric(seed=5)
    two = bell_threshold_numeric(seed=5)
    assert one.threshold == two.threshold
