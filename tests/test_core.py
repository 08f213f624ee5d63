import math

import numpy as np
import pytest

from lvt import (
    InvalidInputError,
    SettingsEnsemble,
    legendre,
    quantum_joint,
    sphere_quadrature,
)
from lvt.construct import DiscreteLhvModel
from lvt.core import checked_directions
from lvt.estimate import VisibilityEstimate
from lvt.search import SearchConfig, n_sweep

from directions import random_direction


def test_direction_renormalizes_small_drift():
    d = checked_directions((1.0 + 5e-10, 0.0, 0.0))
    assert math.isclose(np.linalg.norm(d), 1.0, abs_tol=1e-15)
    assert not d.flags.writeable


NOT_UNIT_DIRECTIONS = [
    [1.0, 0.0],  # wrong shape
    [[1.0, 0.0, 0.0, 0.0]],
    [[[1.0, 0.0, 0.0]]],
    np.empty((0, 3)),
    [[1.0, 0.0], [0.0, 1.0, 0.0]],  # ragged
    "x",
    [math.nan, 0.0, 1.0],
    [math.inf, 0.0, 0.0],
    [[0.0, 0.0, 1.0], [0.0, -math.inf, 0.0]],
    [0.0, 0.0, 0.0],
    [1.0, 1.0, 0.0],
    [1.0 + 2e-9, 0.0, 0.0],  # norm off by more than NORM_SLACK
    [[0.0, 0.0, 1.0], [0.0, 1.0 - 2e-9, 0.0]],
]


def test_direction_rejects_non_unit():
    for bad in NOT_UNIT_DIRECTIONS:
        with pytest.raises(InvalidInputError):
            checked_directions(bad)


def test_direction_check_accepts_lists_tuples_and_arrays():
    for one in ([0.0, 0.6, 0.8], (0.0, 0.6, 0.8), np.array([0.0, 0.6, 0.8])):
        np.testing.assert_array_equal(checked_directions(one), [0.0, 0.6, 0.8])
    rows = [[0.0, 0.6, 0.8], (1.0, 0.0, 0.0)]
    for many in (rows, tuple(rows), np.array(rows)):
        assert checked_directions(many).shape == (2, 3)


def test_direction_checked_alone_matches_its_row_in_an_ensemble():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((1000, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    settings = SettingsEnsemble(raw, raw[::-1])
    for j in range(raw.shape[0]):
        assert checked_directions(raw[j]).tobytes() == settings.a_matrix[j].tobytes()


def test_direction_random_is_unit_and_seeded():
    samples = SettingsEnsemble.random(50, np.random.default_rng(7))
    for side in (samples.a_matrix, samples.b_matrix):
        assert np.all(np.abs(np.linalg.norm(side, axis=1) - 1.0) < 1e-12)
    again = SettingsEnsemble.random(1, np.random.default_rng(7))
    assert np.allclose(again.a_matrix[0], samples.a_matrix[0])


def test_joint_perfect_anticorrelation_vanishes():
    a = [0.0, 0.0, 1.0]
    assert quantum_joint(1, 1, a, a, 1.0) == 0.0


def test_joint_opposite_outcomes_at_third_visibility():
    a = (0.0, 0.0, 1.0)
    assert abs(quantum_joint(1, -1, a, a, 1.0 / 3.0) - 1.0 / 3.0) < 1e-15


def test_joint_outcomes_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_direction(rng)
        b = random_direction(rng)
        v = rng.uniform(0.0, 1.0)
        total = sum(quantum_joint(m, mp, a, b, v) for m in (1, -1) for mp in (1, -1))
        assert abs(total - 1.0) < 1e-14


def test_joint_validates_inputs():
    a = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InvalidInputError):
        quantum_joint(2, 1, a, a, 0.5)
    with pytest.raises(InvalidInputError):
        quantum_joint(1, 1, a, a, 1.5)
    with pytest.raises(InvalidInputError):
        quantum_joint(1, 1, a, a, -0.1)
    with pytest.raises(InvalidInputError):
        quantum_joint(1, 1, a, [1.0, 1.0, 0.0], 0.5)
    with pytest.raises(InvalidInputError):
        quantum_joint(1, 1, [0.0, 0.0], a, 0.5)


def test_marginal_is_half_everywhere():
    # Summed over the other side's outcome, the correlation cancels.
    a = [1.0, 0.0, 0.0]
    b = [0.6, 0.8, 0.0]
    for m in (1, -1):
        for v in (0.0, 0.9):
            assert abs(sum(quantum_joint(m, m2, a, b, v) for m2 in (1, -1)) - 0.5) < 1e-15
            assert abs(sum(quantum_joint(m2, m, a, b, v) for m2 in (1, -1)) - 0.5) < 1e-15


def test_legendre_known_value():
    assert abs(legendre(3, 0.5) - (-0.4375)) < 1e-15


def test_legendre_at_unit_argument():
    for j in range(7):
        assert abs(legendre(j, 1.0) - 1.0) < 1e-14
        assert abs(legendre(j, -1.0) - (-1.0) ** j) < 1e-14


def test_legendre_matches_explicit_quartic():
    xs = np.linspace(-1.0, 1.0, 101)
    explicit = (35.0 * xs**4 - 30.0 * xs**2 + 3.0) / 8.0
    assert np.max(np.abs(legendre(4, xs) - explicit)) < 1e-13


def test_legendre_accepts_arrays():
    xs = np.linspace(-1.0, 1.0, 11)
    out = legendre(2, xs)
    assert out.shape == xs.shape
    assert abs(out[0] - 1.0) < 1e-14


def test_quadrature_normalization():
    assert abs(sphere_quadrature(lambda d: 1.0, 4) - 1.0) < 1e-14


def test_quadrature_second_moment():
    assert abs(sphere_quadrature(lambda x: x[2] ** 2, 2) - 1.0 / 3.0) < 1e-15


def test_quadrature_product_identity():
    rng = np.random.default_rng(11)
    u = random_direction(rng)
    v = random_direction(rng)

    def product(x):
        return legendre(2, float(x @ u)) * legendre(2, float(x @ v))

    value = sphere_quadrature(product, 8)
    assert abs(value - legendre(2, float(u @ v)) / 5.0) < 1e-13


def _estimate(**fields):
    base = dict(value=0.5, std_error=0.0, n_settings=3, provenance="oracle", seed=0,
                iterations_used=0)
    return VisibilityEstimate(**{**base, **fields})


def _config_field(name):
    return lambda v: getattr(SearchConfig(**{"n_settings": 2, name: v}), name)


def _estimate_field(name):
    return lambda v: getattr(_estimate(**{name: v}), name)


_TINY_SEARCH = SearchConfig(n_settings=1, inner_iters=10, outer_iters=1, restarts=1)

# Each entry point that takes a count, degree or seed: a call returning
# what it kept of the integer (or computed from it), and the minimum.
INT_ARGUMENTS = {
    **{f"SearchConfig.{name}": (_config_field(name), minimum) for name, minimum in (
        ("n_settings", 1), ("m_states", 4), ("inner_iters", 1), ("outer_iters", 1),
        ("restarts", 1), ("seed", 0),
    )},
    "n_sweep": (lambda v: n_sweep([v], _TINY_SEARCH)[0].n_settings, 1),
    "SettingsEnsemble.random": (
        lambda v: SettingsEnsemble.random(v, np.random.default_rng(0)).n_settings, 1
    ),
    "legendre": (lambda v: legendre(v, 0.5), 0),
    "sphere_quadrature": (lambda v: sphere_quadrature(lambda x: x[2] ** 2, v), 1),
    **{f"VisibilityEstimate.{name}": (_estimate_field(name), 0)
       for name in ("n_settings", "seed", "iterations_used")},
}


@pytest.mark.parametrize("entry", sorted(INT_ARGUMENTS))
def test_integer_arguments_share_one_check(entry):
    call, minimum = INT_ARGUMENTS[entry]
    for bad in (True, 3.0, minimum - 1):
        with pytest.raises(InvalidInputError, match="must be an integer >="):
            call(bad)
    expected = call(minimum + 1)
    kept = call(np.int64(minimum + 1))
    assert kept == expected and type(kept) is type(expected)


def _model(**fields):
    base = dict(rho=[0.5, 0.5], a_table=[[1.0, -1.0]], b_table=[[-1.0, 1.0]], visibility=1.0)
    return DiscreteLhvModel(**{**base, **fields})


@pytest.mark.parametrize("build, fields", [
    (_estimate, {"value": -0.1}),
    (_estimate, {"value": 1.5}),
    (_estimate, {"value": math.nan}),
    (_estimate, {"std_error": -1.0}),
    (_estimate, {"provenance": "guess"}),
    (_model, {"visibility": 1.5}),
    (_model, {"visibility": math.nan}),
    (_model, {"rho": [1.0, 0.0]}),
    (_model, {"a_table": [[1.0, -1.0, 0.0]]}),
])
def test_results_reject_invalid_fields(build, fields):
    build()
    with pytest.raises(InvalidInputError):
        build(**fields)
