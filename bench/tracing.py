"""In-memory span tracing from outside the program, and per-layer metrics.

Spans are recorded by replacing a public function at the name each
caller looks it up through (a module attribute, or a class attribute for
a classmethod) with a wrapper that notes the span's name, start, end and
parent.  The program itself is not edited.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans around wrapped functions, on one thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; observe(span, args, kwargs, result) may set attrs."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Replace owner.attr by its traced wrapper until restore()."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, observe))
        else:
            wrapped = self.wrap(name, original, observe)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put back every patched attribute, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end, "attrs": span.attrs,
                }) + "\n")


def _union_length(intervals: list) -> float:
    total = 0.0
    reach = -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = _union_length([
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if c.end > span.start and c.start < span.end
        ])
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from one traced timed section.

    `.s` is the layers' self time, except seesaw.finish.s,
    seesaw.certify.s and oracle.s, which are inclusive: the finish with
    its LPs, the certification with its validate_model call, the oracle
    with its simplex.  A layer that did not run reads 0.
    """
    own = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    total_s: dict = {}
    attrs: dict = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
        total_s[span.name] = total_s.get(span.name, 0.0) + (span.end - span.start)
        for key, value in span.attrs.items():
            attrs[(span.name, key)] = attrs.get((span.name, key), 0) + value

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    climb_s = self_s.get("search.inner_maximize", 0.0)
    evals = attrs.get(("search.inner_maximize", "evals"), 0)
    finish_calls = calls.get("search.seesaw", 0)
    improved = attrs.get(("search.seesaw", "improved"), 0)
    oracle_s = total_s.get("oracle.max_visibility_lp", 0.0)
    pivots = attrs.get(("oracle.max_visibility_lp", "pivots"), 0)
    return {
        "search.climb.s": (climb_s, "s"),
        "search.climb.evals": (evals, "count"),
        "search.climb.us_per_eval": (ratio(climb_s, evals, 1e6), "us"),
        "search.inner.calls": (calls.get("search.inner_maximize", 0), "count"),
        "seesaw.finish.s": (total_s.get("search.seesaw", 0.0), "s"),
        "seesaw.finish.calls": (finish_calls, "count"),
        "seesaw.finish.improved": (improved, "count"),
        "seesaw.finish.improved_ratio": (ratio(improved, finish_calls), "ratio"),
        "seesaw.side_lp.calls": (calls.get("seesaw.side_lp", 0), "count"),
        "seesaw.side_lp.s": (self_s.get("seesaw.side_lp", 0.0), "s"),
        "seesaw.weight_lp.calls": (calls.get("seesaw.weight_lp", 0), "count"),
        "seesaw.weight_lp.s": (self_s.get("seesaw.weight_lp", 0.0), "s"),
        "seesaw.certify.s": (total_s.get("seesaw.certified_model", 0.0), "s"),
        "construct.gram_svd.calls": (calls.get("construct.gram_svd", 0), "count"),
        "construct.gram_svd.s": (self_s.get("construct.gram_svd", 0.0), "s"),
        "construct.validate_model.s": (self_s.get("construct.validate_model", 0.0), "s"),
        "construct.settings_random.s": (self_s.get("construct.settings_random", 0.0), "s"),
        "search.state_to_model.s": (self_s.get("search.state_to_model", 0.0), "s"),
        "search.perturb_settings.s": (self_s.get("search.perturb_settings", 0.0), "s"),
        "search.outer.s": (self_s.get("search.outer_minimize", 0.0), "s"),
        "oracle.calls": (calls.get("oracle.max_visibility_lp", 0), "count"),
        "oracle.s": (oracle_s, "s"),
        "oracle.pivots": (pivots, "count"),
        "oracle.us_per_pivot": (ratio(oracle_s, pivots, 1e6), "us"),
        "cli.self.s": (self_s.get("cli.main", 0.0), "s"),
    }
