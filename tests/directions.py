"""Random unit vectors for tests, drawn one Direction at a time."""

import numpy as np

from lvt import Direction


def random_direction(rng: np.random.Generator) -> Direction:
    """Three standard normals over their norm, then through Direction.

    The same draws and arithmetic as SettingsEnsemble.random, one row at
    a time, so tests also use it as that method's reference.
    """
    while True:
        vec = rng.standard_normal(3)
        norm = float(np.linalg.norm(vec))
        if norm > 1e-12:
            return Direction(*(vec / norm))
