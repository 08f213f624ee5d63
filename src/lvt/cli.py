"""Command-line surface: seeded, reproducible runs with CSV/JSON output.

Commands map one-to-one onto the library: `analytic` (1/3, the exact
maximum of the paper's symmetric Legendre family, plus positivity
evidence), `search` (N-sweep of the max-min Monte-Carlo search,
optional extrapolation), `oracle` (exact LP value for fixed settings),
`bell` / `chsh` (numeric inequality thresholds), and `construct` (one
seeded state through lvt.search.state_to_model, then validation).

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
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .analytic import (
    analytic_threshold,
    model_for_visibility,
    validity_flip_visibility,
    validity_scan,
)
from .construct import SettingsEnsemble, unit_rows, validate_model
from .core import require_visibility, seeded_rng
from .errors import (
    InvalidInputError,
    LvtError,
    ResourceLimitError,
)
from .estimate import VisibilityEstimate
from .inequalities import bell_threshold_numeric, chsh_threshold_numeric
from .oracle import check_settings_count, max_visibility_lp
from .search import SearchConfig, extrapolate, n_sweep, state_to_model, sweep_work

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PARTIAL = 4

CSV_COLUMNS = ("n", "visibility", "std_error", "provenance", "seed", "iterations", "wall_time_s")

_TAG_CLI_FRAME = 0
_TAG_CLI_SETTINGS = 6
_TAG_CLI_WEIGHTS = 7

# The most points `analytic --scan` evaluates: 0:1:1e-4 takes under a
# second on a 2-core machine.
MAX_SCAN_POINTS = 10_001

# The most table entries N * M `construct` builds: at N = 1, M = 10^6 it
# peaked at 318 MB, and larger N cost less per entry, so all stay < 400 MB.
# Its validation forms N^2 correlations of M terms each; the most terms,
# N^2 * M, took 62 s at N = 10^5, M = 4 on a 2-core machine, and less
# per term at larger M (22 s for 5e10 terms at M = 20).
MAX_CONSTRUCT_ENTRIES = 10**6
MAX_CONSTRUCT_TERMS = 4 * 10**10

# A sweep asking for more of any count of lvt.search.sweep_work (scored
# climb steps, scored climb table entries, finish LP cells) than its
# limit here refuses to start without --long.  Each limit is about a
# minute of work on a 2-core machine in the regime where its count
# dominates: a full-class finish took up to 4e-7 s per cell at N = 8-16, and
# the largest full-class sweeps admitted, N = 16 at one outer step and
# N = 8 at 24, took 61 s and 22 s.  The counts are of work, not time, so
# a faster program leaves the gate conservative rather than wrong.
SEARCH_WORK_LIMITS = {"climb steps": 2e6, "climb table entries": 1e9, "finish LP cells": 2e8}


@dataclass(frozen=True)
class RunRecord:
    """Everything one invocation computed, ready for serialization.

    config holds the run's seed, which the record repeats at top level.
    """

    command: str
    config: dict
    estimates: tuple
    details: dict

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": dict(self.config),
            "estimates": [e.to_dict() for e in self.estimates],
            "wall_time_s": 0.0,
            "version": __version__,
            "seed": self.config["seed"],
            "details": dict(self.details),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def check_out_path(path: str) -> None:
    """Refuse an --out path that cannot be written, before any work runs.

    A file that still cannot be opened later fails in write_csv instead.
    """
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no directory {parent}"
    elif not os.access(parent, os.W_OK | os.X_OK):
        problem = f"directory {parent} is not writable"
    else:
        return
    raise InvalidInputError(f"cannot write {path}: {problem}")


def write_csv(path: str, estimates) -> None:
    """One row per estimate; floats as repr so values round-trip."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for e in estimates:
                writer.writerow([
                    e.n_settings,
                    repr(e.value),
                    repr(e.std_error),
                    e.provenance,
                    e.seed,
                    e.iterations_used,
                    repr(0.0),
                ])
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


def load_settings(path: str) -> SettingsEnsemble:
    """Read {"a": [[x,y,z], ...], "b": [[x,y,z], ...]}; rows are normalized by unit_rows."""
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
        try:
            arr = np.asarray(data[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f'"{key}" is not an array of numbers: {exc}') from exc
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
            raise InvalidInputError(f'"{key}" must be a nonempty array of [x, y, z] triples')
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError(f'"{key}" contains non-finite components')
        if np.any(np.linalg.norm(arr, axis=1) < 1e-12):
            raise InvalidInputError(f'"{key}" contains a zero vector')
        sides[key] = unit_rows(arr)
    return SettingsEnsemble(sides["a"], sides["b"])


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
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InvalidInputError(f"--scan needs finite start:stop:step, got {text!r}")
    if step <= 0.0 or stop < start:
        raise InvalidInputError("--scan needs step > 0 and stop >= start")
    for v in (start, stop):
        require_visibility(v)
    span = (stop - start) / step + 1e-9
    if span >= MAX_SCAN_POINTS:
        raise ResourceLimitError(
            f"--scan asks for {span + 1.0:.4g} points, over the limit of "
            f"{MAX_SCAN_POINTS}"
        )
    count = int(math.floor(span)) + 1
    return [start + i * step for i in range(count)]


def _settings(args, seed: int, count, flag: str) -> SettingsEnsemble:
    """The --settings file or `count` seeded random settings; exactly one must be given."""
    if (args.settings is None) == (count is None):
        raise InvalidInputError(f"{args.command} needs exactly one of --settings or {flag}")
    if args.settings is not None:
        return load_settings(args.settings)
    return SettingsEnsemble.random(count, seeded_rng(seed, _TAG_CLI_SETTINGS))


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
    return RunRecord("analytic", config, (estimate,), details), lines, EXIT_OK


def _cmd_search(args, seed: int):
    n_values = parse_n_list(args.n)
    config = SearchConfig(
        n_settings=n_values[0],
        m_states=args.m,
        inner_iters=args.inner_iters,
        outer_iters=args.outer_iters,
        restarts=args.restarts,
        seed=seed,
    )
    if args.extrapolate and len(set(n_values)) < 3:
        raise InvalidInputError("--extrapolate needs at least 3 distinct settings counts")
    for name, count in sweep_work(n_values, config).items():
        if count > SEARCH_WORK_LIMITS[name] and not args.long:
            raise ResourceLimitError(
                f"this sweep asks for {count:.3g} {name}, over the limit of "
                f"{SEARCH_WORK_LIMITS[name]:.3g}; pass --long to run it anyway"
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
        "seed": seed, "extrapolate": bool(args.extrapolate),
    }
    record = RunRecord("search", config_dict, tuple(estimates), details)
    return record, lines, exit_code


def _cmd_oracle(args, seed: int):
    # Random settings are priced before any is drawn.
    if args.settings is None and args.random is not None:
        check_settings_count(args.random)
    settings = _settings(args, seed, args.random, "--random")
    estimate = max_visibility_lp(settings)
    details = {
        "settings_source": args.settings or "random",
        "n_settings": settings.n_settings,
        "gram": settings.gram.tolist(),
    }
    lines = [
        f"n={settings.n_settings} visibility={estimate.value!r} "
        f"(LP, {estimate.iterations_used} pivots)"
    ]
    config = {"settings": args.settings, "random": args.random, "seed": seed}
    return RunRecord("oracle", config, (estimate,), details), lines, EXIT_OK


def _cmd_bell(args, seed: int):
    result = bell_threshold_numeric(seed=seed)
    cfg = result.configuration
    closure = cfg.a + cfg.c - cfg.b
    details = {
        "max_expression": result.max_expression,
        "configuration": {"a": cfg.a.tolist(), "b": cfg.b.tolist(), "c": cfg.c.tolist()},
        "closure_norm": float(np.linalg.norm(closure)),
    }
    lines = [
        f"threshold visibility: {result.estimate.value!r}",
        f"|a + c - b| at optimum: {details['closure_norm']:.6f}",
    ]
    config = {"seed": seed}
    record = RunRecord("bell", config, (result.estimate,), details)
    return record, lines, EXIT_OK


def _cmd_chsh(args, seed: int):
    result = chsh_threshold_numeric(seed=seed)
    cfg = result.configuration
    details = {
        "max_expression": result.max_expression,
        "phi": cfg.phi,
        "configuration": {
            name: getattr(cfg, name).tolist() for name in ("a", "a2", "b", "b2")
        },
    }
    lines = [
        f"threshold visibility: {result.estimate.value!r}",
        f"phi at optimum: {cfg.phi:.6f} rad",
    ]
    config = {"seed": seed}
    record = RunRecord("chsh", config, (result.estimate,), details)
    return record, lines, EXIT_OK


def _refuse_large_construct(n: int, m: int) -> None:
    for count, limit, name in ((n * m, MAX_CONSTRUCT_ENTRIES, "table entries"),
                               (n * n * m, MAX_CONSTRUCT_TERMS, "correlation terms")):
        if count > limit:
            raise ResourceLimitError(f"construct asks for {count:.3g} {name} (N = {n}, "
                                     f"M = {m}), over the limit of {limit:.3g}")


def _cmd_construct(args, seed: int):
    if args.m < 4:
        raise InvalidInputError(f"--m must be >= 4, got {args.m}")
    # Random settings are priced before any is drawn, a settings file once read.
    if args.settings is None and args.n is not None:
        _refuse_large_construct(args.n, args.m)
    settings = _settings(args, seed, args.n, "--n")
    _refuse_large_construct(settings.n_settings, args.m)
    frame = seeded_rng(seed, _TAG_CLI_FRAME).standard_normal(6 * args.m)
    weights = seeded_rng(seed, _TAG_CLI_WEIGHTS).uniform(0.0, 1.0, args.m)
    model = state_to_model(np.concatenate([frame, weights]), settings)
    report = validate_model(model, settings, tol=1e-9)
    estimate = VisibilityEstimate(
        value=model.visibility, std_error=0.0, n_settings=settings.n_settings,
        provenance="mc-search", seed=seed, iterations_used=0,
    )
    details = {
        "validation": {**asdict(report), "passed": report.passed},
        "rho": model.rho.tolist(),
    }
    lines = [
        f"n={settings.n_settings} m={args.m} visibility={model.visibility!r}",
        f"validation: correlation={report.correlation_violation:.3e} "
        f"bounds={report.bound_violation:.3e} marginals={report.marginal_violation:.3e} "
        f"probabilities={report.probability_violation:.3e}",
        f"passed: {report.passed}",
    ]
    config = {"n": args.n, "m": args.m, "settings": args.settings, "seed": seed}
    record = RunRecord("construct", config, (estimate,), details)
    return record, lines, EXIT_OK if report.passed else EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvt",
        description="Threshold visibility for local-hidden-variable representability "
                    "of singlet joint probabilities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--json", action="store_true", help="print a JSON run record")
    common.add_argument("--out", default=None, help="write estimates to this CSV file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", parents=[common],
                       help="the symmetric Legendre family's exact maximum, 1/3, "
                            "with positivity evidence")
    p.add_argument("--scan", default=None, help="visibility scan start:stop:step")
    p.set_defaults(run=_cmd_analytic)

    p = sub.add_parser("search", parents=[common], help="Monte-Carlo max-min sweep over N")
    p.add_argument("--n", required=True, help="comma-separated settings counts, ascending")
    p.add_argument("--m", type=int, default=4,
                   help="picks the searched class (default 4): M < (N+1)^2 the paper's 4-state "
                        "construction, M >= (N+1)^2 the full local polytope, whose models "
                        "hold up to (N+1)^2 states whatever M is")
    p.add_argument("--inner-iters", type=int, default=4000,
                   help="climb steps per restart (default 4000) where M < (N+1)^2; 1 elsewhere")
    p.add_argument("--outer-iters", type=int, default=24)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--extrapolate", action="store_true",
                   help="append the fitted N->infinity limit")
    p.add_argument("--long", action="store_true",
                   help="allow sweeps over a work limit, each about a minute: " + ", ".join(
                       f"{limit:.3g} {name}" for name, limit in SEARCH_WORK_LIMITS.items()
                   ))
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser("oracle", parents=[common], help="exact LP visibility for settings")
    p.add_argument("--settings", default=None, help="JSON settings file")
    p.add_argument("--random", type=int, default=None, help="use N random settings")
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("bell", parents=[common], help="numeric Bell threshold (2/3)")
    p.set_defaults(run=_cmd_bell)
    p = sub.add_parser("chsh", parents=[common], help="numeric CHSH threshold (1/sqrt(2))")
    p.set_defaults(run=_cmd_chsh)

    p = sub.add_parser("construct", parents=[common], help="build and validate one seeded model")
    p.add_argument("--n", type=int, default=None, help="random settings count")
    p.add_argument("--m", type=int, default=4, help="hidden states (default 4)")
    p.add_argument("--settings", default=None, help="JSON settings file")
    p.set_defaults(run=_cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    started = time.perf_counter()
    try:
        seed = args.seed
        if seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {seed}")
        if args.out:
            check_out_path(args.out)
        record, lines, code = args.run(args, seed)
        elapsed = time.perf_counter() - started
        if args.json:
            print(record.to_json())
        else:
            for line in lines:
                print(line)
        if args.out:
            write_csv(args.out, record.estimates)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LvtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"elapsed: {elapsed:.3f} s", file=sys.stderr)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
