import math

import numpy as np
import pytest
from scipy.optimize import linprog

from lvt import ResourceLimitError, SettingsEnsemble, max_visibility_lp
from lvt.oracle import max_visibility_for_gram


def _sign_rows(n_bits):
    idx = np.arange(1 << n_bits)[:, None]
    return 1.0 - 2.0 * ((idx >> np.arange(n_bits)) & 1)


def _full_lp_value(gram):
    """max V with V g a mixture of all 2^(2N) strategies a b^T, one LP."""
    n = gram.shape[0]
    rows = _sign_rows(n)
    columns = np.einsum("sj,tk->stjk", rows, rows).reshape(-1, n * n)
    count = columns.shape[0]
    a_eq = np.zeros((n * n + 1, count + 1))
    a_eq[: n * n, :count] = columns.T
    a_eq[: n * n, count] = -gram.ravel()
    a_eq[n * n, :count] = 1.0
    b_eq = np.zeros(n * n + 1)
    b_eq[-1] = 1.0
    cost = np.zeros(count + 1)
    cost[-1] = -1.0
    bounds = [(0.0, None)] * count + [(0.0, 1.0)]
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert result.status == 0
    return float(result.x[-1])


def _chsh_closed_form(gram):
    total = gram.sum()
    largest = max(abs(total - 2.0 * gram[j, k]) for j in range(2) for k in range(2))
    return min(1.0, 2.0 / largest) if largest > 0.0 else 1.0


def test_matches_full_column_lp():
    rng = np.random.default_rng(59)
    for n in range(1, 7):
        for _ in range(3):
            settings = SettingsEnsemble.random(n, rng)
            value = max_visibility_lp(settings).value
            assert abs(value - _full_lp_value(settings.gram)) < 1e-9
            if n == 2:
                assert abs(value - _chsh_closed_form(settings.gram)) < 1e-9


def test_single_pair_always_fully_visible():
    z = (0.0, 0.0, 1.0)
    tilted = (math.sin(0.3), 0.0, math.cos(0.3))
    for other in (z, tilted):
        est = max_visibility_lp(SettingsEnsemble((z,), (other,)))
        assert abs(est.value - 1.0) < 1e-9
        assert est.provenance == "oracle"
        assert est.std_error == 0.0


def test_four_setting_square_gram():
    r = 1.0 / math.sqrt(2.0)
    gram = np.array([[-r, r], [-r, -r]])
    value, _ = max_visibility_for_gram(gram)
    assert abs(value - 0.7071067811865476) < 1e-9


def test_identity_gram_fully_visible():
    value, _ = max_visibility_for_gram(np.eye(3))
    assert abs(value - 1.0) < 1e-9


def test_zero_gram_fully_visible():
    value, _ = max_visibility_for_gram(np.zeros((2, 2)))
    assert abs(value - 1.0) < 1e-9


def test_scaled_gram_rescales_optimum():
    r = 1.0 / math.sqrt(2.0)
    gram = np.array([[-r, r], [-r, -r]])
    base, _ = max_visibility_for_gram(gram)
    scaled, _ = max_visibility_for_gram(0.9 * gram)
    assert abs(scaled - min(1.0, base / 0.9)) < 1e-9
    assert abs(scaled - 0.7856742013183862) < 1e-9


def test_estimate_metadata():
    rng = np.random.default_rng(67)
    settings = SettingsEnsemble.random(3, rng)
    est = max_visibility_lp(settings)
    assert est.n_settings == 3
    assert 0.0 <= est.value <= 1.0
    assert est.iterations_used > 0


def test_too_many_settings_rejected():
    rng = np.random.default_rng(71)
    settings = SettingsEnsemble.random(13, rng)
    with pytest.raises(ResourceLimitError):
        max_visibility_lp(settings)


def test_optimum_dominates_any_mixture_of_sign_strategies():
    # A mixture c of strategies reproduces V g for g = c / max|c| at
    # V = max|c|, so the LP optimum at that g can be no lower.
    rng = np.random.default_rng(73)
    rows = _sign_rows(3)
    for _ in range(5):
        a = rows[rng.integers(0, rows.shape[0], 6)]
        b = rows[rng.integers(0, rows.shape[0], 6)]
        weights = rng.uniform(0.0, 1.0, 6)
        weights /= weights.sum()
        mixture = (a * weights[:, None]).T @ b
        scale = float(np.max(np.abs(mixture)))
        value, _ = max_visibility_for_gram(mixture / scale)
        assert value >= scale - 1e-9
