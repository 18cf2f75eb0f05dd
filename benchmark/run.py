"""olfl benchmark: one workload per call, every metric by name with its unit.

    python3 benchmark/run.py --workload wide|seeds|killer --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs in fresh worker
processes (`workloads.py`) with BLAS and OpenMP pinned to one thread, so
set-up time and peak memory belong to that workload alone.

With `--trace 0` the metrics are the end-to-end ones: `setup_s` is the fast
decile (10th percentile) over several fresh processes of the time from
process start to the first timed call; the others come from the timed
worker. `pass_share` is the share of output checks passed; the checks also
give `attempted` and `failed` in the result line. With `--trace 1` a worker
alternates untraced and traced units and reports per-layer `calls` and
`self_s` per traced unit, with the tracing overhead against the untraced
units.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}.
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
WORKER = HERE / "workloads.py"
WORKLOADS = ("wide", "seeds", "killer")
SETUP_REPEATS = 8  # set-up-only processes, besides the timed worker's own set-up
RUN_DEADLINE_S = 170.0  # a run ends within 180 s, however slow its worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declared_units(trace: int, spec_path: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker exceeded the run deadline: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = [] if trace else [spawn(args + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    report = spawn(args, deadline)
    if "metrics" not in report:
        raise WorkerError(f"{workload} completed no measurement: {report.get('notes')}")
    metrics = dict(report["metrics"])
    if not trace:
        setups.append(report["setup_s"])
        # the fast decile, as for the worker's timings
        metrics["setup_s"] = statistics.quantiles(setups, n=10, method="inclusive")[0]
        metrics["pass_share"] = (report["attempted"] - report["failed"]) / report["attempted"]
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="olfl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "olfl" / "__init__.py").is_file():
        print(f"benchmark: no olfl sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        unit_of = declared_units(args.trace)
        metrics, report = measure(args.workload, args.seed, args.seconds, args.trace)
        if set(metrics) != set(unit_of):
            raise WorkerError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(unit_of))}")
    except (WorkerError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: "
          f"{report['units']} untraced units, {report['samples']} trial-time samples")
    if not args.trace:
        print(f"  setup_s is the fast decile of {SETUP_REPEATS + 1} processes")
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown} {unit_of[name]}")
    if report.get("missing"):
        print(f"  missing trace targets: {', '.join(report['missing'])}")
    for note in report["notes"]:
        print(f"  check failed: {note}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
