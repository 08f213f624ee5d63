"""Tests of the benchmark's own output checks and span arithmetic.

Run with `python3 -m pytest bench`; nothing here imports lvt.
"""

import math
import types

import numpy as np
import pytest

import checks
from tracing import Span, Tracer, layer_metrics, self_times


def unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def axis_model(a_vectors, b_vectors):
    """A valid model at V = 1/3 for any settings.

    Six equally weighted states, one per signed axis; each side answers
    with the signed component of its setting along that axis, so the
    marginals cancel and the correlations are (1/3) a.b.
    """
    signs = np.repeat([1.0, -1.0], 3)
    axes = np.tile(np.arange(3), 2)
    a_table = a_vectors[:, axes] * signs
    b_table = b_vectors[:, axes] * signs
    return np.full(6, 1.0 / 6.0), a_table, b_table, 1.0 / 3.0


@pytest.fixture
def instance():
    rng = np.random.default_rng(7)
    a, b = unit_vectors(rng, 4), unit_vectors(rng, 4)
    return checks.gram(a, b), axis_model(a, b)


def test_certify_accepts_a_valid_model(instance):
    g, (rho, a_table, b_table, v) = instance
    assert checks.certify_model(g, rho, a_table, b_table, v, v) == []


def test_certify_rejects_a_table_entry_past_one(instance):
    g, (rho, a_table, b_table, v) = instance
    broken = a_table.copy()
    broken[2, 1] = 1.0 + 1e-6
    assert any("exceeds 1" in p for p in checks.certify_model(g, rho, broken, b_table, v, v))


def test_certify_rejects_a_raised_visibility(instance):
    g, (rho, a_table, b_table, v) = instance
    problems = checks.certify_model(g, rho, a_table, b_table, v + 0.01, v + 0.01)
    assert any("correlations" in p for p in problems)
    problems = checks.certify_model(g, rho, a_table, b_table, v, v + 0.01)
    assert any("differs from the model's visibility" in p for p in problems)


def test_certify_rejects_marginals_and_bad_weights(instance):
    g, (rho, a_table, b_table, v) = instance
    shifted = rho.copy()
    shifted[0] += 0.01
    shifted[1] -= 0.01
    assert any("marginal" in p for p in checks.certify_model(g, shifted, a_table, b_table, v, v))
    zeroed = rho.copy()
    zeroed[0] = 0.0
    assert any("weight" in p for p in checks.certify_model(g, zeroed, a_table, b_table, v, v))


def test_lp_check_rejects_a_value_moved_by_1e6():
    rng = np.random.default_rng(3)
    g = checks.gram(unit_vectors(rng, 3), unit_vectors(rng, 3))
    problems, reference = checks.check_lp_value(0.0, g)
    assert problems
    assert checks.check_lp_value(reference, g)[0] == []
    assert checks.check_lp_value(reference + 1e-6, g)[0]
    assert checks.check_lp_value(reference - 1e-6, g)[0]


def test_highs_reference_matches_chsh_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = checks.gram(unit_vectors(rng, 2), unit_vectors(rng, 2))
        assert abs(checks.reference_lp_value(g) - checks.chsh_closed_form(g)) < 1e-9


def test_chsh_closed_form_at_the_optimal_angles():
    a = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]) / math.sqrt(2.0)
    g = checks.gram(a, b)
    assert checks.chsh_closed_form(g) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert checks.reference_lp_value(g) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_agreement_window():
    assert checks.check_agreement(0.70, 0.70) == []
    assert checks.check_agreement(0.70 - 0.019, 0.70) == []
    assert checks.check_agreement(0.70 - 0.021, 0.70)
    assert checks.check_agreement(0.70 + 0.006, 0.70)


def test_sweep_check():
    record = {"estimates": [
        {"n_settings": 100, "value": 0.34}, {"n_settings": 300, "value": 0.335},
        {"n_settings": 0, "value": 0.332},
    ]}
    inner = {100: [0.35, 0.34], 300: [0.335, 0.336]}
    assert checks.check_sweep(record, inner, (100, 300)) == []
    assert checks.check_sweep(record, {100: [0.35, 0.339], 300: [0.335]}, (100, 300))
    assert checks.check_sweep(record, inner, (100, 300, 1000))
    record["estimates"][-1]["value"] = 0.37
    assert any("outside" in p for p in checks.check_sweep(record, inner, (100, 300)))


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "child", 0, 1.0, 3.0),
        Span(2, "grandchild", 1, 1.5, 2.5),
        Span(3, "child", 0, 2.5, 5.0),  # overlaps span 1: counted once
        Span(4, "child", 0, 6.0, 7.0),
        Span(5, "late", 0, 9.0, 12.0),  # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_tracer_nests_spans_and_restores():
    class Owner:
        @classmethod
        def make(cls, x):
            return cls.helper(x) + 1

        @staticmethod
        def helper(x):
            return 2 * x

    module = types.SimpleNamespace(work=lambda x: Owner.make(x))
    originals = (module.work, Owner.__dict__["make"])
    tracer = Tracer()
    tracer.patch(module, "work", "work", lambda span, a, k, r: span.attrs.update(out=r))
    tracer.patch(Owner, "make", "make")
    assert module.work(3) == 7
    tracer.restore()
    assert (module.work, Owner.__dict__["make"]) == originals
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.attrs) == ("work", None, {"out": 7})
    assert (inner.name, inner.parent) == ("make", outer.id)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert sum(self_times(tracer.spans).values()) == pytest.approx(outer.end - outer.start)


def test_layers_that_did_not_run_read_zero():
    metrics = layer_metrics([Span(0, "oracle.max_visibility_lp", None, 0.0, 2.0,
                                  {"pivots": 1000})])
    assert metrics["oracle.us_per_pivot"] == (2000.0, "us")
    assert metrics["search.climb.us_per_eval"] == (0.0, "us")
    assert metrics["seesaw.finish.improved_ratio"] == (0.0, "ratio")
