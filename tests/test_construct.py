import numpy as np
import pytest

from lvt import (
    DiscreteLhvModel,
    Direction,
    InvalidInputError,
    SettingsEnsemble,
    assemble_model,
    floor_normalized_weights,
    gram_svd,
    make_frame,
    validate_model,
)

from directions import random_direction


def _triad():
    return (
        Direction(1.0, 0.0, 0.0),
        Direction(0.0, 1.0, 0.0),
        Direction(0.0, 0.0, 1.0),
    )


def test_svd_single_aligned_pair():
    z = Direction(0.0, 0.0, 1.0)
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
    same = np.tile(random_direction(rng).as_array(), (6, 1))
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
    rho = floor_normalized_weights(np.array([0.3, 0.25, 0.25, 0.2]), 1e-6)
    frame = make_frame(rho, seed=5)
    cross = frame.q @ frame.t.T
    assert np.max(np.abs(cross - np.eye(3))) < 1e-10
    srho = np.sqrt(rho)
    assert np.max(np.abs(frame.q @ srho)) < 1e-10
    assert np.max(np.abs(frame.t @ srho)) < 1e-10


def test_frame_rejects_too_few_states():
    rho = np.full(3, 1.0 / 3.0)
    with pytest.raises(InvalidInputError):
        make_frame(rho, seed=0)


def test_frame_deterministic_per_seed():
    rho = np.full(5, 0.2)
    one = make_frame(rho, seed=9)
    two = make_frame(rho, seed=9)
    assert np.array_equal(one.q, two.q)
    assert np.array_equal(one.t, two.t)


def test_floor_weights_simplex_and_floor():
    raw = np.array([-1.0, 0.0, 2.0, 1.0])
    rho = floor_normalized_weights(raw, 0.01)
    assert abs(rho.sum() - 1.0) < 1e-14
    assert np.all(rho >= 0.01 - 1e-15)
    assert rho[2] > rho[3] > rho[1]


def test_assembled_model_validates_tightly():
    rng = np.random.default_rng(13)
    settings = SettingsEnsemble.random(3, rng)
    rho = floor_normalized_weights(rng.uniform(0.0, 1.0, 4), 1e-6)
    model = assemble_model(settings, make_frame(rho, seed=21))
    report = validate_model(model, settings, 1e-9)
    assert report.passed
    assert report.correlation_violation < 1e-12


def test_assembled_model_saturates_bound():
    rng = np.random.default_rng(29)
    settings = SettingsEnsemble.random(4, rng)
    rho = floor_normalized_weights(rng.uniform(0.0, 1.0, 6), 1e-6)
    model = assemble_model(settings, make_frame(rho, seed=3))
    if model.visibility < 1.0:
        peak = max(np.max(np.abs(model.a_table)), np.max(np.abs(model.b_table)))
        assert abs(peak - 1.0) < 1e-12


def test_zero_gram_gives_full_visibility():
    a_side = (Direction(0.0, 0.0, 1.0), Direction(0.0, 0.0, -1.0))
    b_side = (Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0))
    settings = SettingsEnsemble(a_side, b_side)
    assert np.max(np.abs(settings.gram)) == 0.0
    rho = np.full(4, 0.25)
    model = assemble_model(settings, make_frame(rho, seed=1))
    assert model.visibility == 1.0
    assert np.max(np.abs(model.a_table)) == 0.0
    assert validate_model(model, settings, 1e-9).passed


def test_frame_scale_transfer_keeps_raw_product():
    rng = np.random.default_rng(41)
    settings = SettingsEnsemble.random(3, rng)
    rho = floor_normalized_weights(rng.uniform(0.0, 1.0, 4), 1e-6)
    frame = make_frame(rho, seed=2)
    scaled = type(frame)(q=2.0 * frame.q, t=frame.t / 2.0, rho=frame.rho)
    # The raw tables are the assembled ones over sqrt(V).
    one = assemble_model(settings, frame)
    two = assemble_model(settings, scaled)
    product_one = np.einsum("n,jn,kn->jk", rho, one.a_table, one.b_table) / one.visibility
    product_two = np.einsum("n,jn,kn->jk", rho, two.a_table, two.b_table) / two.visibility
    assert np.max(np.abs(product_one - product_two)) < 1e-12
    assert np.max(np.abs(product_one - settings.gram)) < 1e-12


def test_validation_flags_bound_violation():
    z = Direction(0.0, 0.0, 1.0)
    settings = SettingsEnsemble((z,), (z,))
    rho = np.array([0.5, 0.5])
    a_table = np.array([[1.5, -1.5]])
    b_table = np.array([[1.0, -1.0]])
    model = DiscreteLhvModel(rho=rho, a_table=a_table, b_table=b_table, visibility=1.0)
    report = validate_model(model, settings, 1e-9)
    assert not report.passed
    assert abs(report.bound_violation - 0.5) < 1e-14


def test_two_state_anticorrelation_model_passes():
    z = Direction(0.0, 0.0, 1.0)
    settings = SettingsEnsemble((z,), (z,))
    rho = np.array([0.5, 0.5])
    a_table = np.array([[1.0, -1.0]])
    b_table = np.array([[1.0, -1.0]])
    model = DiscreteLhvModel(rho=rho, a_table=a_table, b_table=b_table, visibility=1.0)
    report = validate_model(model, settings, 1e-9)
    assert report.passed


def test_settings_gram_is_clipped_dot_products():
    rng = np.random.default_rng(53)
    settings = SettingsEnsemble.random(5, rng)
    assert np.max(np.abs(settings.gram)) <= 1.0
    a0 = settings.a_side[0].as_array()
    b2 = settings.b_side[2].as_array()
    assert abs(settings.gram[0, 2] - float(a0 @ b2)) < 1e-15


def test_settings_sides_must_match_length():
    z = Direction(0.0, 0.0, 1.0)
    x = Direction(1.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        SettingsEnsemble((z, x), (z,))
    # Array sides: each row is checked as Direction checks its components.
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
