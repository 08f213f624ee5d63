import math

import numpy as np
import pytest

from lvt import (
    InvalidModelError,
    LegendreLhvModel,
    analytic_threshold,
    model_for_visibility,
    quantum_joint,
    reconstruct_joint,
    response,
    sphere_quadrature,
    validity_flip_visibility,
    validity_scan,
)

from directions import random_direction


def test_threshold_is_exactly_one_third():
    assert analytic_threshold() == 1.0 / 3.0


def test_boundary_model_coefficients():
    model = model_for_visibility(1.0 / 3.0)
    assert model.coefficients[0] == 0.5
    assert abs(model.coefficients[1] - 0.5) < 1e-15
    assert model.is_valid
    assert model.is_probability_response


def test_boundary_model_vanishes_at_endpoint():
    model = model_for_visibility(1.0 / 3.0)
    assert abs(model.evaluate(-1.0)) < 1e-15


def test_validity_flips_just_above_threshold():
    assert model_for_visibility(1.0 / 3.0).is_valid
    assert not model_for_visibility(1.0 / 3.0 + 1e-6).is_valid
    flip = validity_flip_visibility()
    assert abs(flip - 1.0 / 3.0) < 1e-10


def test_validity_scan_matches_pointwise_validity():
    values = np.linspace(0.0, 1.0, 21)
    scan = validity_scan(values)
    assert [v for v, _ in scan] == [float(v) for v in values]
    for v, flag in scan:
        assert flag == model_for_visibility(v).is_valid


def test_response_is_probability_in_range():
    model = model_for_visibility(0.2)
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = random_direction(rng)
        lam = random_direction(rng)
        for m in (1, -1):
            for side in ("a", "b"):
                p = response(model, m, n, lam, side=side)
                assert -1e-12 <= p <= 1.0 + 1e-12


def test_response_sides_related_by_outcome_flip():
    model = model_for_visibility(0.25)
    rng = np.random.default_rng(9)
    n = random_direction(rng)
    lam = random_direction(rng)
    assert abs(response(model, 1, n, lam, side="b") - response(model, -1, n, lam, side="a")) < 1e-15


def test_response_rejects_non_probability_model():
    bad = LegendreLhvModel(coefficients=(0.5, 0.25, 0.1))
    with pytest.raises(InvalidModelError):
        response(bad, 1, [0, 0, 1], [1, 0, 0])


def test_reconstruction_matches_quantum_joint():
    rng = np.random.default_rng(17)
    for v in (0.0, 0.1, 1.0 / 3.0):
        model = model_for_visibility(v)
        for _ in range(50):
            a = random_direction(rng)
            b = random_direction(rng)
            m = int(rng.choice([1, -1]))
            mp = int(rng.choice([1, -1]))
            lhs = reconstruct_joint(model, m, mp, a, b)
            rhs = quantum_joint(m, mp, a, b, v)
            assert abs(lhs - rhs) < 1e-12


def test_reconstruction_value_at_threshold():
    model = model_for_visibility(1.0 / 3.0)
    a = (0.0, 0.0, 1.0)
    assert abs(reconstruct_joint(model, 1, 1, a, a) - 1.0 / 6.0) < 1e-12


def test_reconstruction_agrees_with_quadrature():
    model = model_for_visibility(0.1)
    rng = np.random.default_rng(23)
    a = random_direction(rng)
    b = random_direction(rng)
    c1 = model.coefficients[1]
    for m, mp in ((1, 1), (1, -1), (-1, 1)):
        def product(x, m=m, mp=mp):
            fa = 0.5 + m * c1 * float(x @ a)
            fb = 0.5 - mp * c1 * float(x @ b)
            return fa * fb

        quad = sphere_quadrature(product, 6)
        assert abs(quad - reconstruct_joint(model, m, mp, a, b)) < 1e-10


def test_visibility_outside_unit_interval_rejected():
    with pytest.raises(Exception):
        model_for_visibility(1.2)
