"""Acceptance gate: every stated criterion, at its stated tolerance.

Each test prints exactly one line:

    ACCEPTANCE <k>: PASS/FAIL — <measured details>

so a plain ``pytest tests/test_acceptance.py -s`` reads as a checklist.
Criteria that the implementation cannot meet fail here honestly; the
assertions are never loosened to hide a measured shortfall.
Criterion 9 is an extended run, gated behind LVT_LONG_TESTS=1.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from lvt import (
    SearchConfig,
    SettingsEnsemble,
    analytic_threshold,
    bell_threshold_numeric,
    chsh_threshold_numeric,
    extrapolate,
    inner_maximize,
    legendre,
    max_visibility_lp,
    model_for_visibility,
    n_sweep,
    outer_minimize,
    quantum_joint,
    reconstruct_joint,
    response,
    sphere_quadrature,
    state_to_model,
    validate_model,
    validity_flip_visibility,
)
from lvt.cli import main

from directions import random_direction
from models import span_state

ACCEPTANCE_SEED = 20260819


def report(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} — {detail}")
    return passed


@pytest.fixture(scope="module")
def trend_sweep():
    """Shared sweep for the trend and extrapolation criteria."""
    config = SearchConfig(
        n_settings=3, inner_iters=6000, outer_iters=24, restarts=6,
        seed=ACCEPTANCE_SEED,
    )
    started = time.perf_counter()
    estimates = n_sweep([3, 10, 30, 100], config)
    return estimates, time.perf_counter() - started


def test_criterion_1_analytic_threshold():
    started = time.perf_counter()
    threshold = analytic_threshold()
    flip = validity_flip_visibility()
    elapsed = time.perf_counter() - started
    exact = threshold == 1.0 / 3.0
    located = abs(flip - 1.0 / 3.0) <= 1e-10
    ok = exact and located and elapsed < 1.0
    assert report(
        1, ok,
        f"threshold {threshold!r} (exact: {exact}), flip off by "
        f"{abs(flip - 1.0 / 3.0):.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_reconstruction_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst_direct = 0.0
    worst_quadrature = 0.0
    for v in (0.0, 0.1, 1.0 / 3.0):
        model = model_for_visibility(v)
        tuples = []
        for _ in range(50):
            a = random_direction(rng)
            b = random_direction(rng)
            m = int(rng.choice((-1, 1)))
            m2 = int(rng.choice((-1, 1)))
            tuples.append((a, b, m, m2))
            direct = reconstruct_joint(model, m, m2, a, b)
            worst_direct = max(
                worst_direct, abs(direct - quantum_joint(m, m2, a, b, v))
            )
        for a, b, m, m2 in tuples[:5]:
            def product(x):
                return (
                    response(model, m, a, x, side="a")
                    * response(model, m2, b, x, side="b")
                )

            integral = sphere_quadrature(product, 6)
            worst_quadrature = max(
                worst_quadrature,
                abs(integral - reconstruct_joint(model, m, m2, a, b)),
            )
    elapsed = time.perf_counter() - started
    ok = worst_direct < 1e-12 and worst_quadrature < 1e-10 and elapsed < 5.0
    assert report(
        2, ok,
        f"max |reconstruct - quantum| {worst_direct:.2e} (tol 1e-12), "
        f"quadrature residual {worst_quadrature:.2e} (tol 1e-10), "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_legendre_orthogonality():
    started = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED + 3)
    worst = 0.0
    for _ in range(20):
        u = random_direction(rng)
        v = random_direction(rng)
        for j in range(5):
            for k in range(5):
                def product(x):
                    return legendre(j, float(x @ u)) * legendre(k, float(x @ v))

                integral = sphere_quadrature(product, max(1, j + k))
                expected = (
                    legendre(j, float(u @ v)) / (2 * j + 1) if j == k else 0.0
                )
                worst = max(worst, abs(integral - expected))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 5.0
    assert report(
        3, ok,
        f"max orthogonality residual {worst:.2e} over j,k <= 4, 20 pairs "
        f"(tol 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_4_constructive_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED + 4)
    failures = 0
    worst = 0.0
    for index in range(200):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(4, 17))
        settings = SettingsEnsemble.random(n, rng)
        weights = rng.uniform(0.0, 1.0, m)
        model = state_to_model(span_state(int(rng.integers(0, 2**32)), weights), settings)
        report_card = validate_model(model, settings, tol=1e-9)
        if not report_card.passed:
            failures += 1
        worst = max(
            worst,
            report_card.correlation_violation,
            report_card.bound_violation,
            report_card.marginal_violation,
            report_card.probability_violation,
        )
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    assert report(
        4, ok,
        f"{200 - failures}/200 random models valid at 1e-9, worst violation "
        f"{worst:.2e}, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_5_bell_threshold():
    started = time.perf_counter()
    result = bell_threshold_numeric(seed=ACCEPTANCE_SEED)
    elapsed = time.perf_counter() - started
    cfg = result.configuration
    closure = float(np.linalg.norm(cfg.a + cfg.c - cfg.b))
    value_ok = abs(result.estimate.value - 2.0 / 3.0) < 1e-3
    closure_ok = closure < 0.05
    ok = value_ok and closure_ok and elapsed < 10.0
    assert report(
        5, ok,
        f"threshold {result.estimate.value:.6f} vs 2/3 (tol 1e-3), closure "
        f"|a+c-b| {closure:.4f} (< 0.05), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_6_chsh_threshold():
    started = time.perf_counter()
    result = chsh_threshold_numeric(seed=ACCEPTANCE_SEED)
    elapsed = time.perf_counter() - started
    value_ok = abs(result.estimate.value - 1.0 / math.sqrt(2.0)) < 1e-3
    phi_ok = abs(result.configuration.phi - math.pi / 2.0) < 0.02
    ok = value_ok and phi_ok and elapsed < 10.0
    assert report(
        6, ok,
        f"threshold {result.estimate.value:.6f} vs 1/sqrt(2) (tol 1e-3), phi "
        f"{result.configuration.phi:.4f} vs pi/2 (tol 0.02), "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_7_oracle_agreement():
    started = time.perf_counter()
    worst_excess = -math.inf
    lower_failures = 0
    worst_gap = -math.inf
    worst_case = ""
    total = 0
    for n in (2, 3, 4):
        rng = np.random.default_rng(ACCEPTANCE_SEED + n)
        for index in range(20):
            settings = SettingsEnsemble.random(n, rng)
            oracle = max_visibility_lp(settings).value
            best = 0.0
            # A singlet model needs zero marginals, so a basic optimum of
            # the zero-marginal LP can use (N+1)^2 deterministic states,
            # and pairing each of the oracle's <= N^2+1 strategies with
            # its global flip gives an exact model with 2(N^2+1) states.
            # The larger run gets that many, so the searched class can
            # represent the oracle's answer.
            for m, restarts in ((4, 6), (2 * (n * n + 1), 3)):
                config = SearchConfig(
                    n_settings=n, m_states=m, inner_iters=4000,
                    restarts=restarts, seed=ACCEPTANCE_SEED + 10 * index + m,
                )
                _, estimate = inner_maximize(settings, config)
                best = max(best, estimate.value)
            total += 1
            worst_excess = max(worst_excess, best - oracle)
            gap = oracle - best
            if gap > 0.02:
                lower_failures += 1
            if gap > worst_gap:
                worst_gap = gap
                worst_case = f"N={n} #{index}"
    elapsed = time.perf_counter() - started
    upper_ok = worst_excess <= 5e-3
    lower_ok = lower_failures == 0
    ok = upper_ok and lower_ok and elapsed < 120.0
    assert report(
        7, ok,
        f"upper sandwich max excess {worst_excess:.2e} (tol 5e-3); lower "
        f"agreement {total - lower_failures}/{total} within 0.02, worst gap "
        f"{worst_gap:.4f} at {worst_case}; {elapsed:.1f}s (< 120s)",
    )


def test_criterion_8_sweep_trend(trend_sweep):
    estimates, elapsed = trend_sweep
    floor_failures = []
    step_failures = []
    for estimate in estimates:
        if estimate.value < 1.0 / 3.0 - 2.0 * estimate.std_error:
            floor_failures.append(estimate.n_settings)
    for first, second in zip(estimates, estimates[1:]):
        combined = 2.0 * math.hypot(first.std_error, second.std_error)
        if second.value > first.value + combined:
            step_failures.append((first.n_settings, second.n_settings))
    values = ", ".join(
        f"N={e.n_settings}: {e.value:.4f}±{e.std_error:.4f}" for e in estimates
    )
    ok = not floor_failures and not step_failures and elapsed < 600.0
    assert report(
        8, ok,
        f"{values}; steps down within combined 2σ: "
        f"{'yes' if not step_failures else step_failures}; floor 1/3-2σ "
        f"violations: {floor_failures or 'none'}; {elapsed:.0f}s (< 600s)",
    )


@pytest.mark.skipif(
    os.environ.get("LVT_LONG_TESTS") != "1",
    reason="extended run (minutes); set LVT_LONG_TESTS=1 to enable",
)
def test_criterion_9_large_n_outer_minimum():
    started = time.perf_counter()
    config = SearchConfig(
        n_settings=1000, inner_iters=12000, outer_iters=12, restarts=6,
        seed=ACCEPTANCE_SEED,
    )
    estimate = outer_minimize(config)
    elapsed = time.perf_counter() - started
    ok = 0.36 <= estimate.value <= 0.38
    assert report(
        9, ok,
        f"N=1000 outer minimum {estimate.value:.4f} ± "
        f"{estimate.std_error:.4f}, window [0.36, 0.38], {elapsed:.0f}s",
    )


def test_criterion_10_extrapolation(trend_sweep):
    estimates, _ = trend_sweep
    limit = extrapolate(estimates)
    ok = 0.30 <= limit.value <= 0.36
    assert report(
        10, ok,
        f"extrapolated V_inf {limit.value:.4f} ± {limit.std_error:.4f}, "
        f"window [0.30, 0.36]",
    )


def test_criterion_11_determinism(capsys, tmp_path):
    started = time.perf_counter()
    identical = True
    argv_sets = [
        ["search", "--n", "2,3", "--seed", "9", "--json",
         "--inner-iters", "400", "--outer-iters", "2", "--restarts", "2"],
        ["oracle", "--random", "3", "--seed", "4", "--json"],
        ["analytic", "--json", "--seed", "1"],
        ["construct", "--n", "5", "--m", "6", "--seed", "2", "--json"],
    ]
    for argv in argv_sets:
        first_csv = tmp_path / "first.csv"
        second_csv = tmp_path / "second.csv"
        assert main(argv + ["--out", str(first_csv)]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--out", str(second_csv)]) == 0
        second = capsys.readouterr().out
        if first != second or first_csv.read_bytes() != second_csv.read_bytes():
            identical = False
    elapsed = time.perf_counter() - started
    ok = identical and elapsed < 60.0
    with capsys.disabled():
        assert report(
            11, ok,
            f"JSON and CSV byte-identical across repeated seeded runs: "
            f"{identical}; {elapsed:.1f}s (< 60s)",
        )
