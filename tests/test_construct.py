import tracemalloc

import numpy as np
import pytest

from lvt import (
    DiscreteLhvModel,
    InvalidInputError,
    SettingsEnsemble,
    ValidationReport,
    gram_svd,
    state_to_model,
    validate_model,
)

from lvt.construct import _CHECK_BLOCK_ENTRIES, _floor_normalized

from directions import random_direction
from models import span_model, span_state


def _triad():
    return ((1.0, 0.0, 0.0), [0.0, 1.0, 0.0], np.array([0.0, 0.0, 1.0]))


def test_svd_single_aligned_pair():
    z = (0.0, 0.0, 1.0)
    svd = gram_svd(SettingsEnsemble((z,), (z,)))
    assert np.allclose(svd.p, [1.0, 0.0, 0.0])


def test_svd_orthonormal_triad():
    triad = _triad()
    settings = SettingsEnsemble(triad, triad)
    assert np.allclose(settings.gram, np.eye(3))
    svd = gram_svd(settings)
    assert np.allclose(svd.p, [1.0, 1.0, 1.0])


def _coplanar(n, rng):
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)])


def test_svd_reconstructs_gram():
    rng = np.random.default_rng(31)
    cases = [(SettingsEnsemble.random(n, rng), min(n, 3)) for n in (1, 2, 3, 5, 200)]
    same = np.tile(random_direction(rng), (6, 1))
    cases.append((SettingsEnsemble(same, SettingsEnsemble.random(6, rng).b_matrix), 1))
    cases.append((SettingsEnsemble(_coplanar(7, rng), _coplanar(7, rng)), 2))
    for settings, rank in cases:
        svd = gram_svd(settings)
        rebuilt = svd.u @ np.diag(svd.p) @ svd.v.T
        assert np.max(np.abs(rebuilt - settings.gram)) < 1e-12
        expected = np.linalg.svd(settings.gram, compute_uv=False)[:3]
        assert np.max(np.abs(svd.p[: expected.shape[0]] - expected)) < 1e-12
        assert np.count_nonzero(svd.p) == rank


def test_svd_rank_capped_at_three():
    rng = np.random.default_rng(47)
    settings = SettingsEnsemble.random(6, rng)
    svd = gram_svd(settings)
    assert svd.p.shape == (3,)
    assert np.all(svd.p >= 0.0)
    assert np.all(np.diff(svd.p) <= 1e-15)


def test_svd_is_factored_once_per_ensemble():
    settings = SettingsEnsemble.random(5, np.random.default_rng(53))
    svd = gram_svd(settings)
    assert gram_svd(settings) is svd
    assert not svd.u.flags.writeable


def test_frame_satisfies_both_orthogonality_families():
    # q.t = I makes the correlations exact; q and t orthogonal to sqrt(rho)
    # make the rho-weighted means of both tables zero.
    rng = np.random.default_rng(5)
    settings = SettingsEnsemble.random(3, rng)
    model = state_to_model(span_state(5, [0.3, 0.25, 0.25, 0.2]), settings)
    assert np.allclose(model.rho, [0.3, 0.25, 0.25, 0.2], rtol=1e-5)
    report = validate_model(model, settings, 1e-9)
    assert report.correlation_violation < 1e-12
    assert report.marginal_violation < 1e-12


def test_frame_rejects_too_few_states():
    # Three biorthogonal pairs plus the sqrt(rho) constraint need M >= 4,
    # and a state holds 7M numbers: q, t and the raw weights.
    settings = SettingsEnsemble.random(3, np.random.default_rng(0))
    for bad in (span_state(0, np.full(3, 1.0)), np.zeros(29), np.zeros((4, 7))):
        with pytest.raises(InvalidInputError):
            state_to_model(bad, settings)


def test_floor_weights_simplex_and_floor():
    raw = np.array([-1.0, 0.0, 2.0, 1.0])
    rho = _floor_normalized(raw, 0.01)
    assert abs(rho.sum() - 1.0) < 1e-14
    assert np.all(rho >= 0.01 - 1e-15)
    assert rho[2] > rho[3] > rho[1]


def test_assembled_model_validates_tightly():
    settings, model = span_model(3, 4, 13)
    report = validate_model(model, settings, 1e-9)
    assert report.passed
    assert report.correlation_violation < 1e-12


def test_assembled_model_saturates_bound():
    # Below V = 1 each table is divided by its own largest entry.
    settings, model = span_model(4, 6, 29)
    assert model.visibility < 1.0
    assert abs(np.max(np.abs(model.a_table)) - 1.0) < 1e-12
    assert abs(np.max(np.abs(model.b_table)) - 1.0) < 1e-12


def test_zero_gram_gives_full_visibility():
    settings = SettingsEnsemble([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)], np.eye(3)[:2])
    assert np.max(np.abs(settings.gram)) == 0.0
    model = state_to_model(span_state(1, np.full(4, 0.25)), settings)
    assert model.visibility == 1.0
    assert np.max(np.abs(model.a_table)) == 0.0
    assert np.max(np.abs(model.b_table)) == 0.0
    assert validate_model(model, settings, 1e-9).passed


def test_frame_scale_transfer_keeps_raw_product():
    # Doubling q halves t after biorthogonalization, so the raw product is
    # unchanged and the balanced tables are the same.
    rng = np.random.default_rng(41)
    settings = SettingsEnsemble.random(3, rng)
    x = span_state(2, rng.uniform(0.0, 1.0, 4))
    scaled = x.copy()
    scaled[:12] *= 2.0
    one = state_to_model(x, settings)
    two = state_to_model(scaled, settings)
    assert np.max(np.abs(one.a_table - two.a_table)) < 1e-12
    assert np.max(np.abs(one.b_table - two.b_table)) < 1e-12
    product = (one.a_table * one.rho) @ one.b_table.T / one.visibility
    assert np.max(np.abs(product - settings.gram)) < 1e-12


def test_validation_flags_bound_violation():
    z = (0.0, 0.0, 1.0)
    settings = SettingsEnsemble((z,), (z,))
    rho = np.array([0.5, 0.5])
    a_table = np.array([[1.5, -1.5]])
    b_table = np.array([[1.0, -1.0]])
    model = DiscreteLhvModel(rho=rho, a_table=a_table, b_table=b_table, visibility=1.0)
    report = validate_model(model, settings, 1e-9)
    assert not report.passed
    assert abs(report.bound_violation - 0.5) < 1e-14


def test_two_state_anticorrelation_model_passes():
    z = (0.0, 0.0, 1.0)
    settings = SettingsEnsemble((z,), (z,))
    rho = np.array([0.5, 0.5])
    a_table = np.array([[1.0, -1.0]])
    b_table = np.array([[1.0, -1.0]])
    model = DiscreteLhvModel(rho=rho, a_table=a_table, b_table=b_table, visibility=1.0)
    report = validate_model(model, settings, 1e-9)
    assert report.passed


def test_validation_rejects_bad_tolerance():
    settings, model = span_model(3, 4, 13)
    for tol in (float("nan"), 0.0, -1e-9, float("inf")):
        with pytest.raises(InvalidInputError):
            validate_model(model, settings, tol=tol)


def _direct_report(model, settings, tol):
    """validate_model's four fields, from the whole N x N Gram at once."""
    gram = np.clip(settings.a_matrix @ settings.b_matrix.T, -1.0, 1.0)
    product = (model.a_table * model.rho) @ model.b_table.T
    a, b = model.a_table, model.b_table
    return ValidationReport(
        correlation_violation=float(np.max(np.abs(product - model.visibility * gram))),
        bound_violation=max(0.0, float(np.max(np.abs(a))) - 1.0, float(np.max(np.abs(b))) - 1.0),
        marginal_violation=max(
            float(np.max(np.abs(a @ model.rho))), float(np.max(np.abs(b @ model.rho)))
        ),
        probability_violation=max(
            0.0,
            float(np.max(-(1.0 - a) / 2.0)),
            float(np.max((1.0 - a) / 2.0 - 1.0)),
            float(np.max(-(1.0 + b) / 2.0)),
            float(np.max((1.0 + b) / 2.0 - 1.0)),
        ),
        tol=tol,
    )


@pytest.mark.parametrize("n", [1, 3, 1000, 1500])
def test_blocked_validation_matches_direct_check(n):
    # N = 1 and 3 fit one row block; 1000 and 1500 end in a partial one.
    rows = max(1, _CHECK_BLOCK_ENTRIES // n)
    assert n <= rows or n % rows != 0
    settings, model = span_model(n, 6, 61 + n)
    rng = np.random.default_rng([61, n])
    assert validate_model(model, settings, 1e-9) == _direct_report(model, settings, 1e-9)
    noisy = DiscreteLhvModel(
        rho=model.rho,
        a_table=model.a_table + rng.uniform(-0.5, 0.5, model.a_table.shape),
        b_table=model.b_table,
        visibility=model.visibility,
    )
    assert validate_model(noisy, settings, 1e-9) == _direct_report(noisy, settings, 1e-9)
    a_table = model.a_table.copy()
    a_table[-1, 2] += 1e-6
    nudged = DiscreteLhvModel(
        rho=model.rho, a_table=a_table, b_table=model.b_table, visibility=model.visibility
    )
    report = validate_model(nudged, settings, 1e-9)
    direct = _direct_report(nudged, settings, 1e-9)
    assert report.correlation_violation == direct.correlation_violation > 1e-9
    assert not report.passed


def test_block_product_matches_three_operand_sum():
    # validate_model forms each block's correlations as one BLAS product,
    # (A[rows] * rho) @ B^T.  It sums in another order than the
    # three-operand sum_n rho_n A[j][n] B[k][n], so only the last digits
    # of the reported violation may move.
    rng = np.random.default_rng(71)
    n, m = 600, 34
    rho = _floor_normalized(rng.uniform(0.0, 1.0, m), 1e-6)
    a_table = rng.uniform(-1.0, 1.0, (n, m))
    b_table = rng.uniform(-1.0, 1.0, (n, m))
    rows = max(1, _CHECK_BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        product = (a_table[block] * rho) @ b_table.T
        summed = np.einsum("n,jn,kn->jk", rho, a_table[block], b_table)
        assert np.max(np.abs(product - summed)) < 1e-12


def test_validation_memory_grows_linearly():
    # The whole N x N residual at N = 2000 would trace about 96 MB.
    settings, model = span_model(2000, 4, 67)
    tracemalloc.start()
    try:
        assert validate_model(model, settings, 1e-9).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_settings_gram_is_clipped_dot_products():
    rng = np.random.default_rng(53)
    settings = SettingsEnsemble.random(5, rng)
    assert np.max(np.abs(settings.gram)) <= 1.0
    a0 = settings.a_matrix[0]
    b2 = settings.b_matrix[2]
    assert abs(settings.gram[0, 2] - float(a0 @ b2)) < 1e-15


def test_side_rows_reproduce_the_matrices_bit_for_bit():
    # SettingsEnsemble.a_side / b_side hold the rows of a_matrix /
    # b_matrix, read by bench/worker.py through each row's .x/.y/.z.
    settings = SettingsEnsemble.random(1000, np.random.default_rng(3))
    for side, matrix in ((settings.a_side, settings.a_matrix),
                         (settings.b_side, settings.b_matrix)):
        assert len(side) == matrix.shape[0]
        rows = np.array([[d.x, d.y, d.z] for d in side])
        assert rows.tobytes() == matrix.tobytes()
        with pytest.raises(AttributeError):
            side[0].x = 0.0


def test_settings_sides_must_match_length():
    z = (0.0, 0.0, 1.0)
    x = [1.0, 0.0, 0.0]
    with pytest.raises(InvalidInputError):
        SettingsEnsemble((z, x), (z,))
    # Array sides: each row goes through the one direction check.
    unit = np.eye(3)
    off_norm = unit.copy()
    off_norm[1] *= 1.0 + 1e-6
    short = unit.copy()
    short[2] *= 1.0 - 1e-6
    nan = unit.copy()
    nan[0, 1] = np.nan
    for bad in (np.ones((3, 2)), unit[0], unit[None], nan, off_norm, short, np.empty((0, 3)), ()):
        with pytest.raises(InvalidInputError):
            SettingsEnsemble(bad, unit)
        with pytest.raises(InvalidInputError):
            SettingsEnsemble(unit, bad)
    with pytest.raises(InvalidInputError):
        SettingsEnsemble(unit, unit[:2])
