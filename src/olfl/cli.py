"""Command-line front end.

    olfl run    --algo fl --n 100 --t 1000 --c-max 1 --d-max 1 \
                --scenario iid --seeds 1,2,3 --out results/exp1
    olfl bench  [--n-values 4096,8192,16384] [--t 1000]
    olfl verify

Exit codes: 0 on success, 1 on a validation error (bad flags, bad config,
bad trace file) or a run too large for memory (MemoryError), 2 when verify
finds a failing check, 3 on a numeric or protocol failure inside a run
(NumericError, ProtocolError).
"""
from __future__ import annotations

import argparse
import json
import sys

from .bench import bench_per_trial, ratio_report
from .errors import NumericError, ProtocolError, TraceFormatError
from .experiment import (
    ALGO_NAMES,
    AlgoSpec,
    ExperimentConfig,
    ScenarioSpec,
    emit_results,
    run_experiment,
)
from .game import GameConfig
from .verify import run_checks


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise _UsageError(message)


def _int_list(text: str) -> list[int]:
    try:  # an empty text is the empty list; an empty item is refused
        return [int(part) for part in text.split(",")] if text else []
    except ValueError:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="olfl", description="Online facility-location experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment", description="Run one experiment.")
    run.add_argument("--algo", required=True, choices=ALGO_NAMES)
    run.add_argument("--n", required=True, type=int, help="number of sites")
    run.add_argument("--t", required=True, type=int, help="number of trials")
    run.add_argument("--c-max", required=True, type=float, help="opening cost bound")
    run.add_argument("--d-max", required=True, type=float, help="connection cost bound")
    run.add_argument("--k", type=int, default=None, help="cardinality (fl-fixed / fl-bounded)")
    run.add_argument(
        "--scenario",
        required=True,
        help="killer | iid | drift | replay:PATH",
    )
    run.add_argument("--seeds", required=True, help="comma-separated learner seeds")
    run.add_argument("--out", required=True, help="output path prefix")
    run.add_argument("--scenario-seed", type=int, default=0, help="seed for iid/drift costs")
    run.add_argument("--drift-step", type=float, default=0.05, help="drift walk step size")

    bench = sub.add_parser("bench", help="per-trial cost measurement")
    bench.add_argument("--n-values", default="4096,8192,16384", help="comma-separated site counts")
    bench.add_argument("--t", type=int, default=1000, help="trials per site count")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None, help="optional JSON output path prefix")

    sub.add_parser("verify", help="run the oracle-backed self-checks")
    return parser


def _cmd_run(args) -> int:
    scenario_text = args.scenario
    if scenario_text.startswith("replay:"):
        spec = ScenarioSpec("replay", args.scenario_seed, scenario_text[len("replay:") :])
    else:
        spec = ScenarioSpec(scenario_text, args.scenario_seed, None, args.drift_step)
    config = ExperimentConfig(
        GameConfig(args.n, args.t, args.c_max, args.d_max),
        AlgoSpec(args.algo, args.k),
        spec,
        tuple(_int_list(args.seeds)),
    )
    result = run_experiment(config)
    paths = emit_results(result, args.out)
    lo, hi = result.ci95
    print(f"mean cumulative loss {result.mean_cumulative_loss:.6g}  (95% CI [{lo:.6g}, {hi:.6g}])")
    comp = "per-seed mean" if result.comparator_per_seed else str(result.comparator_members)
    print(
        f"comparator ({result.comparator_restriction}"
        f"{', approximate' if result.comparator_approximate else ''}): "
        f"{comp} with cumulative loss {result.comparator_loss:.6g}"
    )
    if result.bound_rhs is not None:
        share = result.regret_normalized  # None at one site, where the penalty term is 0
        print(
            f"bound [{result.bound_name}]: rhs {result.bound_rhs:.6g}; "
            f"regret {result.regret_raw:.6g}" + ("" if share is None else f" ({share:.4f} of the penalty term)")
        )
    else:
        print(f"regret {result.regret_raw:.6g} (no closed-form bound for {args.algo})")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_bench(args) -> int:
    n_values = _int_list(args.n_values)
    if not n_values:
        raise _UsageError("--n-values must name at least one site count")
    rows = bench_per_trial(n_values, args.t, args.seed)
    print(f"{'n':>8} {'median ms':>12} {'p90 ms':>12} {'state KiB':>12}")
    for row in rows:
        print(
            f"{row['n_sites']:>8} {row['median_ms']:>12.3f} {row['p90_ms']:>12.3f} "
            f"{row['state_bytes'] / 1024:>12.1f}"
        )
    for ratio in ratio_report(rows):
        print(
            f"{ratio['n_from']} -> {ratio['n_to']}: median time x{ratio['median_time_ratio']:.2f}, "
            f"state x{ratio['state_ratio']:.2f}"
        )
    if args.out:
        path = f"{args.out}.bench.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps({"rows": rows, "ratios": ratio_report(rows)}, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_verify() -> int:
    results = run_checks()
    failures = 0
    for res in results:
        mark = "ok  " if res.passed else "FAIL"
        print(f"{mark} {res.name}: {res.detail}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_verify()
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TraceFormatError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except (NumericError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
