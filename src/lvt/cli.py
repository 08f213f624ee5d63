"""Command-line surface: seeded, reproducible runs with CSV/JSON output.

Commands map one-to-one onto the library: `analytic` (exact threshold
plus positivity evidence), `search` (N-sweep of the max-min Monte-Carlo
search, optional extrapolation), `oracle` (exact LP value for fixed
settings), `bell` / `chsh` (numeric inequality thresholds), and
`construct` (one-shot frame assembly plus validation).

Machine-readable outputs are byte-identical across repeated runs with
the same seed; wall_time_s is therefore emitted as a 0.0 placeholder in
CSV/JSON while the real timing goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analytic import (
    analytic_threshold,
    model_for_visibility,
    validity_flip_visibility,
    validity_scan,
)
from .construct import (
    DEFAULT_RHO_MIN,
    SettingsEnsemble,
    assemble_model,
    floor_normalized_weights,
    make_frame,
    validate_model,
)
from .errors import (
    InvalidInputError,
    LvtError,
    ResourceLimitError,
)
from .estimate import VisibilityEstimate
from .inequalities import bell_threshold_numeric, chsh_threshold_numeric
from .oracle import max_visibility_lp
from .search import SearchConfig, extrapolate, n_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PARTIAL = 4

CSV_COLUMNS = ("n", "visibility", "std_error", "provenance", "seed", "iterations", "wall_time_s")

_SEED_MASK = (1 << 64) - 1
_TAG_CLI_SETTINGS = 6
_TAG_CLI_WEIGHTS = 7

# Wall-time projection constants, fitted to timed climbs and traced
# sweeps on a 2-core machine; sweeps projected past the gate refuse to
# start without --long.
LONG_RUN_GATE_SECONDS = 60.0
# Each restart's scored climb step costs a fixed amount (its share of a
# block's kernel call and bookkeeping), a term per hidden state and a
# term per table entry N * M.  At M = 4 only the moves outside the inert
# t half are scored, 4 in 7 of them.
_CLIMB_SECONDS_PER_STEP = 1.5e-5
_CLIMB_SECONDS_PER_STATE = 6.5e-7
_CLIMB_SECONDS_PER_ENTRY = 1.4e-8
# The see-saw finish after each inner climb runs about 10 rounds of two
# table steps and one weight step (8 at M = 4, up to 60 at M = 34).  A
# square table step (M = 4, N >= 3) is one small linear solve; the other
# table steps and every weight step are HiGHS LPs, a fixed overhead plus
# a term in the size of the constraint matrix: N * M * min(N, M) for a
# table step, (min(N, 3M) + 1)^2 * (3M + 1) for a weight step over the
# current and 2M fresh states.  Certifying the finished model checks it
# against the N x N Gram, a term in N^2 * M once per inner call (its
# least-squares corrections run through the Gram's factors, in O(N * M^2)).
_FINISH_ROUNDS = 10
_LP_SECONDS = 3e-3
_TABLE_LP_SECONDS_PER_ENTRY = 2e-6
_WEIGHT_LP_SECONDS_PER_ENTRY = 1.4e-6
_CERTIFY_SECONDS_PER_ENTRY = 6e-9


@dataclass(frozen=True)
class RunRecord:
    """Everything one invocation computed, ready for serialization."""

    command: str
    config: dict
    estimates: tuple
    wall_time_s: float
    version: str
    seed: int
    details: dict

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": dict(self.config),
            "estimates": [e.to_dict() for e in self.estimates],
            "wall_time_s": self.wall_time_s,
            "version": self.version,
            "seed": self.seed,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        try:
            return cls(
                command=data["command"],
                config=dict(data["config"]),
                estimates=tuple(VisibilityEstimate.from_dict(e) for e in data["estimates"]),
                wall_time_s=data["wall_time_s"],
                version=data["version"],
                seed=data["seed"],
                details=dict(data["details"]),
            )
        except KeyError as exc:
            raise InvalidInputError(f"run record is missing key {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def write_csv(path: str, estimates) -> None:
    """One row per estimate; floats as repr so values round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for e in estimates:
            writer.writerow([
                e.n_settings,
                repr(e.value),
                "" if e.std_error is None else repr(e.std_error),
                e.provenance,
                e.seed,
                e.iterations_used,
                repr(0.0),
            ])


def load_settings(path: str) -> SettingsEnsemble:
    """Read {"a": [[x,y,z], ...], "b": [[x,y,z], ...]}; rows are normalized."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read settings file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"settings file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "a" not in data or "b" not in data:
        raise InvalidInputError('settings file needs top-level "a" and "b" arrays')
    sides = {}
    for key in ("a", "b"):
        arr = np.asarray(data[key], dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
            raise InvalidInputError(f'"{key}" must be a nonempty array of [x, y, z] triples')
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError(f'"{key}" contains non-finite components')
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms < 1e-12):
            raise InvalidInputError(f'"{key}" contains a zero vector')
        sides[key] = arr / norms[:, None]
    if sides["a"].shape[0] != sides["b"].shape[0]:
        raise InvalidInputError("sides must list the same number of directions")
    return SettingsEnsemble.from_arrays(sides["a"], sides["b"])


def parse_n_list(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"--n expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise InvalidInputError("--n needs at least one settings count")
    return values


def parse_scan(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError(f"--scan expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(f"--scan expects numeric start:stop:step, got {text!r}") from exc
    if step <= 0.0 or stop < start:
        raise InvalidInputError("--scan needs step > 0 and stop >= start")
    if start < 0.0 or stop > 1.0:
        raise InvalidInputError("--scan range must stay inside [0, 1]")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def projected_search_seconds(n_values, config: SearchConfig) -> float:
    """Projected wall time of a sweep: per inner call, the climb and the finish."""
    total = 0.0
    m = config.m_states
    pool = 3 * m
    scored = 4.0 / 7.0 if m == 4 else 1.0
    for n in n_values:
        climb = (config.inner_iters + 1) * config.restarts * scored * (
            _CLIMB_SECONDS_PER_STEP + _CLIMB_SECONDS_PER_STATE * m
            + _CLIMB_SECONDS_PER_ENTRY * n * m
        )
        table = 0.0
        if not (m == 4 and n >= 3):
            table = _LP_SECONDS + _TABLE_LP_SECONDS_PER_ENTRY * n * m * min(n, m)
        weight = _LP_SECONDS + (
            _WEIGHT_LP_SECONDS_PER_ENTRY * (min(n, pool) + 1) ** 2 * (pool + 1)
        )
        finish = _FINISH_ROUNDS * (2 * table + weight) + _CERTIFY_SECONDS_PER_ENTRY * n * n * m
        total += config.outer_iters * (climb + finish)
    return total


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        env = os.environ.get("LVT_SEED")
        if env is None:
            return 0
        try:
            seed = int(env)
        except ValueError as exc:
            raise InvalidInputError(f"LVT_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return seed


def _settings_rng(seed: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=[seed & _SEED_MASK, _TAG_CLI_SETTINGS])
    return np.random.default_rng(seq)


def _cmd_analytic(args, seed: int):
    threshold = analytic_threshold()
    model = model_for_visibility(threshold)
    flip = validity_flip_visibility()
    scan_values = parse_scan(args.scan) if args.scan else parse_scan("0.30:0.36:0.01")
    scan = validity_scan(scan_values)
    estimate = VisibilityEstimate(
        value=threshold, std_error=0.0, n_settings=0,
        provenance="analytic", seed=seed, iterations_used=0,
    )
    details = {
        "boundary_coefficients": list(model.coefficients),
        "validity_flip": flip,
        "scan": [{"visibility": v, "valid": ok} for v, ok in scan],
    }
    lines = [
        f"threshold visibility: {threshold!r} (exactly 1/3)",
        f"boundary model coefficients: {list(model.coefficients)}",
        f"validity flip located at: {flip!r}",
        "positivity scan:",
    ]
    lines += [f"  v={v:.6f}  {'valid' if ok else 'invalid'}" for v, ok in scan]
    config = {"seed": seed, "scan": args.scan}
    return RunRecord("analytic", config, (estimate,), 0.0, __version__, seed, details), lines, EXIT_OK


def _cmd_search(args, seed: int):
    n_values = parse_n_list(args.n)
    config = SearchConfig(
        n_settings=n_values[0],
        m_states=args.m,
        inner_iters=args.inner_iters,
        outer_iters=args.outer_iters,
        restarts=args.restarts,
        step_scale=args.step,
        patience=args.patience,
        seed=seed,
        rho_min=args.rho_min,
    )
    if args.extrapolate and len(set(n_values)) < 3:
        raise InvalidInputError("--extrapolate needs at least 3 distinct settings counts")
    projected = projected_search_seconds(n_values, config)
    if projected > LONG_RUN_GATE_SECONDS and not args.long:
        raise ResourceLimitError(
            f"this sweep is projected to take {projected:.0f} s "
            f"(> {LONG_RUN_GATE_SECONDS:.0f} s); pass --long to run it anyway"
        )

    def progress(est: VisibilityEstimate) -> None:
        print(
            f"n={est.n_settings} visibility={est.value:.6f} "
            f"std_error={est.std_error:.6f} iterations={est.iterations_used}",
            file=sys.stderr,
        )

    results = n_sweep(n_values, config, on_result=progress)
    succeeded = {e.n_settings for e in results}
    failed = sorted(set(n_values) - succeeded)
    estimates = list(results)
    details = {"n_values": n_values, "failed_n": failed}
    exit_code = EXIT_PARTIAL if failed else EXIT_OK
    if args.extrapolate:
        try:
            limit = extrapolate(results)
            estimates.append(limit)
            details["extrapolation"] = limit.to_dict()
        except InvalidInputError as exc:
            print(f"extrapolation skipped: {exc}", file=sys.stderr)
            exit_code = EXIT_PARTIAL
    lines = [
        f"n={e.n_settings} visibility={e.value!r} std_error={e.std_error!r} "
        f"iterations={e.iterations_used}"
        for e in results
    ]
    if "extrapolation" in details:
        limit = estimates[-1]
        lines.append(f"extrapolated limit: {limit.value!r} std_error={limit.std_error!r}")
    for n in failed:
        lines.append(f"n={n}: failed (see stderr log)")
    config_dict = {
        "n": n_values, "m": config.m_states, "inner_iters": config.inner_iters,
        "outer_iters": config.outer_iters, "restarts": config.restarts,
        "step": config.step_scale, "patience": config.patience,
        "rho_min": config.rho_min, "seed": seed,
        "extrapolate": bool(args.extrapolate),
    }
    record = RunRecord("search", config_dict, tuple(estimates), 0.0, __version__, seed, details)
    return record, lines, exit_code


def _cmd_oracle(args, seed: int):
    if (args.settings is None) == (args.random is None):
        raise InvalidInputError("oracle needs exactly one of --settings or --random")
    if args.settings is not None:
        settings = load_settings(args.settings)
        source = args.settings
    else:
        if args.random < 1:
            raise InvalidInputError(f"--random must be >= 1, got {args.random}")
        settings = SettingsEnsemble.random(args.random, _settings_rng(seed))
        source = "random"
    estimate = max_visibility_lp(settings)
    details = {
        "settings_source": source,
        "n_settings": settings.n_settings,
        "gram": settings.gram.tolist(),
    }
    lines = [
        f"n={settings.n_settings} visibility={estimate.value!r} "
        f"(LP, {estimate.iterations_used} pivots)"
    ]
    config = {"settings": args.settings, "random": args.random, "seed": seed}
    return RunRecord("oracle", config, (estimate,), 0.0, __version__, seed, details), lines, EXIT_OK


def _cmd_bell(args, seed: int):
    result = bell_threshold_numeric(seed=seed)
    cfg = result.configuration
    closure = cfg.a.as_array() + cfg.c.as_array() - cfg.b.as_array()
    details = {
        "max_expression": result.max_expression,
        "configuration": {
            "a": list(cfg.a.as_array()),
            "b": list(cfg.b.as_array()),
            "c": list(cfg.c.as_array()),
        },
        "closure_norm": float(np.linalg.norm(closure)),
    }
    lines = [
        f"threshold visibility: {result.threshold!r}",
        f"|a + c - b| at optimum: {details['closure_norm']:.6f}",
    ]
    config = {"seed": seed}
    record = RunRecord("bell", config, (result.estimate(),), 0.0, __version__, seed, details)
    return record, lines, EXIT_OK


def _cmd_chsh(args, seed: int):
    result = chsh_threshold_numeric(seed=seed)
    cfg = result.configuration
    details = {
        "max_expression": result.max_expression,
        "phi": cfg.phi,
        "configuration": {
            "a": list(cfg.a.as_array()),
            "a2": list(cfg.a2.as_array()),
            "b": list(cfg.b.as_array()),
            "b2": list(cfg.b2.as_array()),
        },
    }
    lines = [
        f"threshold visibility: {result.threshold!r}",
        f"phi at optimum: {cfg.phi:.6f} rad",
    ]
    config = {"seed": seed}
    record = RunRecord("chsh", config, (result.estimate(),), 0.0, __version__, seed, details)
    return record, lines, EXIT_OK


def _cmd_construct(args, seed: int):
    if args.settings is not None:
        settings = load_settings(args.settings)
    else:
        if args.n is None:
            raise InvalidInputError("construct needs --settings or --n")
        if args.n < 1:
            raise InvalidInputError(f"--n must be >= 1, got {args.n}")
        settings = SettingsEnsemble.random(args.n, _settings_rng(seed))
    if args.m < 4:
        raise InvalidInputError(f"--m must be >= 4, got {args.m}")
    weights_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=[seed & _SEED_MASK, _TAG_CLI_WEIGHTS])
    )
    rho = floor_normalized_weights(weights_rng.uniform(0.0, 1.0, args.m), args.rho_min)
    frame = make_frame(rho, seed, rho_min=args.rho_min)
    model = assemble_model(settings, frame)
    report = validate_model(model, settings, tol=1e-9)
    estimate = VisibilityEstimate(
        value=model.visibility, std_error=0.0, n_settings=settings.n_settings,
        provenance="mc-search", seed=seed, iterations_used=0,
    )
    details = {
        "validation": {
            "correlation_violation": report.correlation_violation,
            "bound_violation": report.bound_violation,
            "marginal_violation": report.marginal_violation,
            "probability_violation": report.probability_violation,
            "tol": report.tol,
            "passed": report.passed,
        },
        "rho": model.rho.tolist(),
    }
    lines = [
        f"n={settings.n_settings} m={args.m} visibility={model.visibility!r}",
        f"validation: correlation={report.correlation_violation:.3e} "
        f"bounds={report.bound_violation:.3e} marginals={report.marginal_violation:.3e} "
        f"probabilities={report.probability_violation:.3e}",
        f"passed: {report.passed}",
    ]
    config = {
        "n": args.n, "m": args.m, "settings": args.settings,
        "rho_min": args.rho_min, "seed": seed,
    }
    record = RunRecord("construct", config, (estimate,), 0.0, __version__, seed, details)
    return record, lines, EXIT_OK if report.passed else EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvt",
        description="Threshold visibility for local-hidden-variable representability "
                    "of singlet joint probabilities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: LVT_SEED env var, else 0)")
    common.add_argument("--json", action="store_true", help="print a JSON run record")
    common.add_argument("--out", default=None, help="write estimates to this CSV file")
    common.add_argument("--long", action="store_true",
                        help="allow search sweeps projected to exceed 60 s")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", parents=[common],
                       help="exact threshold with positivity evidence")
    p.add_argument("--scan", default=None, help="visibility scan start:stop:step")

    p = sub.add_parser("search", parents=[common], help="Monte-Carlo max-min sweep over N")
    p.add_argument("--n", required=True, help="comma-separated settings counts, ascending")
    p.add_argument("--m", type=int, default=4, help="hidden states (default 4)")
    p.add_argument("--inner-iters", type=int, default=4000)
    p.add_argument("--outer-iters", type=int, default=24)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--step", type=float, default=0.25, help="perturbation scale")
    p.add_argument("--patience", type=int, default=60,
                   help="rejections before the step factor halves")
    p.add_argument("--rho-min", type=float, default=DEFAULT_RHO_MIN)
    p.add_argument("--extrapolate", action="store_true",
                   help="append the fitted N->infinity limit")

    p = sub.add_parser("oracle", parents=[common], help="exact LP visibility for settings")
    p.add_argument("--settings", default=None, help="JSON settings file")
    p.add_argument("--random", type=int, default=None, help="use N random settings")

    sub.add_parser("bell", parents=[common], help="numeric Bell threshold (2/3)")
    sub.add_parser("chsh", parents=[common], help="numeric CHSH threshold (1/sqrt(2))")

    p = sub.add_parser("construct", parents=[common], help="one-shot assemble and validate")
    p.add_argument("--n", type=int, default=None, help="random settings count")
    p.add_argument("--m", type=int, default=4, help="hidden states (default 4)")
    p.add_argument("--settings", default=None, help="JSON settings file")
    p.add_argument("--rho-min", type=float, default=DEFAULT_RHO_MIN)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    started = time.perf_counter()
    try:
        seed = _resolve_seed(args)
        if args.command == "analytic":
            record, lines, code = _cmd_analytic(args, seed)
        elif args.command == "search":
            record, lines, code = _cmd_search(args, seed)
        elif args.command == "oracle":
            record, lines, code = _cmd_oracle(args, seed)
        elif args.command == "bell":
            record, lines, code = _cmd_bell(args, seed)
        elif args.command == "chsh":
            record, lines, code = _cmd_chsh(args, seed)
        else:
            record, lines, code = _cmd_construct(args, seed)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LvtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    elapsed = time.perf_counter() - started
    if args.json:
        print(record.to_json())
    else:
        for line in lines:
            print(line)
    if args.out:
        write_csv(args.out, record.estimates)
    print(f"elapsed: {elapsed:.3f} s", file=sys.stderr)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
