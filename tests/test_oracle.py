import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from lvt import LvtError, ResourceLimitError, SettingsEnsemble, max_visibility_lp
from lvt import oracle as oracle_module
from lvt.oracle import MAX_ORACLE_SETTINGS, max_visibility_for_gram


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
    settings = SettingsEnsemble.random(MAX_ORACLE_SETTINGS + 1, rng)
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


def test_repeated_solves_are_identical():
    gram = SettingsEnsemble.random(9, np.random.default_rng([83, 9])).gram
    assert max_visibility_for_gram(gram) == max_visibility_for_gram(gram)


def _recorded_masters(monkeypatch, gram):
    """The column arrays each lp.Master was built from, and every value it solved to."""
    built, values = [], []
    real = oracle_module.Master

    class Recording(real):
        def __init__(self, columns, *args, **kwargs):
            built.append(columns)
            super().__init__(columns, *args, **kwargs)

        def solve(self):
            solved = super().solve()
            values.append(solved[0])
            return solved

    monkeypatch.setattr(oracle_module, "Master", Recording)
    max_visibility_for_gram(gram)
    return built, values


# Up to N = 6, N^2 + 1 >= 2^(N-1): the first master holds every
# gauge-fixed a; above, only the N^2 + 1 with the largest ||g^T a||_1.
# Then come the N^2 spanning products u_i u_k^T, and V's column.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 9])
def test_first_master_holds_the_largest_strategies(monkeypatch, n):
    gram = SettingsEnsemble.random(n, np.random.default_rng([89, n])).gram
    built, _ = _recorded_masters(monkeypatch, gram)
    indptr, indices, data = built[0]
    shape = (n * n + 1, indptr.shape[0] - 1)
    dense = sparse.csc_matrix((data, indices, indptr), shape=shape).toarray()
    assert np.array_equal(dense[:, -1], np.append(-gram.ravel(), 0.0))

    a_rows = np.hstack([np.ones((1 << (n - 1), 1)), _sign_rows(n - 1)])
    scores = a_rows @ gram
    kept = np.sort(np.argsort(-np.abs(scores).sum(axis=1))[: n * n + 1])
    if n <= 6:
        assert kept.shape[0] == a_rows.shape[0]
    spanning = np.vstack([np.ones(n), 1.0 - 2.0 * np.eye(n)[1:]])
    a = np.vstack([a_rows[kept], np.repeat(spanning, n, axis=0)])
    b = np.vstack([np.where(scores[kept] >= 0.0, 1.0, -1.0), np.tile(spanning, (n, 1))])
    expected = np.einsum("sj,sk->jks", np.vstack([a, a]), np.vstack([b, -b])).reshape(n * n, -1)
    assert np.linalg.matrix_rank(expected) == n * n
    assert np.array_equal(dense[:-1, :-1], expected)
    assert np.array_equal(dense[-1, :-1], np.ones(expected.shape[1]))


def test_round_limit_counts_rounds_that_leave_v_unchanged(monkeypatch):
    # Six icosahedron axes on both sides: a degenerate LP, on which some
    # rounds add columns without raising V.
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    axes = np.array([[0.0, 1.0, phi], [1.0, phi, 0.0], [phi, 0.0, 1.0],
                     [0.0, 1.0, -phi], [1.0, -phi, 0.0], [-phi, 0.0, 1.0]])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    gram = axes @ axes.T
    with monkeypatch.context() as patch:
        _, values = _recorded_masters(patch, gram)
    # The last solve prices nothing in and ends the generation.
    unchanged = sum(v <= max(values[:t]) for t, v in enumerate(values[:-1]) if t > 0)
    assert 0 < unchanged < len(values) - 1
    monkeypatch.setattr(oracle_module, "_MAX_ROUNDS", unchanged)
    max_visibility_for_gram(gram)
    monkeypatch.setattr(oracle_module, "_MAX_ROUNDS", unchanged - 1)
    with pytest.raises(LvtError, match=f"more than {unchanged - 1} rounds left V unchanged"):
        max_visibility_for_gram(gram)
