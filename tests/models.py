"""Certified models of the SVD construction for tests, built by state_to_model."""

import numpy as np

from lvt import SettingsEnsemble, state_to_model
from lvt.core import seeded_rng


def span_state(seed, weights):
    """A length-7M search state: raw q and t drawn on stream (seed, 0), then the raw weights."""
    weights = np.asarray(weights, dtype=float)
    frame = seeded_rng(seed, 0).standard_normal(6 * weights.shape[0])
    return np.concatenate([frame, weights])


def span_model(n, m, seed):
    """Random settings and a certified construction model (columns in the rank-3 span)."""
    rng = np.random.default_rng(seed)
    settings = SettingsEnsemble.random(n, rng)
    return settings, state_to_model(span_state(seed, rng.uniform(0.0, 1.0, m)), settings)
