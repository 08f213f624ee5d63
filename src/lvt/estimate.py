"""Common result record for every threshold-visibility estimator."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .core import require_int, require_visibility
from .errors import InvalidInputError

PROVENANCES = ("analytic", "mc-search", "oracle", "bell", "chsh")


@dataclass(frozen=True)
class VisibilityEstimate:
    """A visibility value plus enough metadata to reproduce it.

    ``n_settings`` is the number of measurement settings per side the
    estimate refers to (0 when the notion does not apply, e.g. an
    extrapolated limit).  ``std_error`` is 0.0 for exact results.
    """

    value: float
    std_error: float
    n_settings: int
    provenance: str
    seed: int
    iterations_used: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", require_visibility(self.value))
        err = float(self.std_error)
        if not math.isfinite(err) or err < 0.0:
            raise InvalidInputError(f"std_error must be >= 0, got {err!r}")
        object.__setattr__(self, "std_error", err)
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )
        for name in ("n_settings", "seed", "iterations_used"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, 0))

    def to_dict(self) -> dict:
        return asdict(self)
