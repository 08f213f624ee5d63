"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of this repository.  The workload runs
in a child process (bench/worker.py) with at most 2 BLAS threads, after
four more children that only set up, so that set-up time is a median of
five.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0 and the per-layer metrics
of a separate traced pass when it is 1.  The line before it gives the
digest of every value the run computed.  The full result, and with
--trace 1 the spans, are written under bench/out/.  Exits 2 without a
result when the checkout holds no src/lvt, or when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("agreement-small-n", "sweep-large-n", "oracle-n8")
SETUP_ONLY_RUNS = 4
# Every child, and the run as a whole, ends within this many seconds.
DEADLINE_S = 170.0
BLAS_THREADS = "2"


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_child(argv: list, deadline: float) -> dict:
    """Run the worker with argv; its last stdout line, parsed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a child")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "lvt" / "__init__.py").is_file():
        print(f"no src/lvt under {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setups = []
        if not args.trace:
            setups = [run_child(common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_ONLY_RUNS)]
        extra = ["--trace", str(args.trace)]
        if args.trace:
            extra += ["--trace-file", str(OUT / f"{stem}.spans.jsonl")]
        result = run_child(common + extra, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "op_s": {"value": result["op_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    result["setup_only_s"] = setups
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"digest {result['digest']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
