"""The benchmark's workloads, run one per fresh process by `run.py`.

Each workload drives olfl through its public API, times only what a user of
that API waits for, and checks the outputs against bounds the repository's
acceptance suite already trusts. All inputs come from the benchmark seed.

- wide: `DoublingLearner` at N=16384 on iid uniform costs, timing one
  play() + update() per trial with cost generation off the clock, as
  `olfl bench` does. Sort, instance validation, surrogate and EG step
  dominate.
- seeds: `run_experiment` + `emit_results` with fl-bounded K=2 at N=6,
  T=500, one iid scenario shared by many learner seeds. Per-call overhead,
  the sampler, trial bookkeeping and CSV emission dominate.
- killer: `run_experiment` + `emit_results` with fl at N=16, T=2000 on the
  adaptive killer scenario. Each seed realises its own costs, and the
  exhaustive per-seed comparator over 65535 subsets dominates.

A unit is the smallest repeated piece of timed work: a block of trials for
wide, one experiment over all of the run's learner seeds for seeds and
killer. Units repeat until the time budget is spent; seeds and killer repeat
the identical experiment, so every unit must reproduce the first one's mean
loss exactly.

Run as `python3 benchmark/workloads.py --workload NAME --seed N --seconds S
--trace 0|1 --spawned-at T`; it prints one JSON object on its last line.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

import olfl  # noqa: E402
from olfl.adversaries import generate_scenario  # noqa: E402
from olfl.game import CostPair, GameConfig, facility_loss  # noqa: E402
from olfl.learners import half_log_ceil  # noqa: E402
from olfl.oracles import best_fixed_subset  # noqa: E402

import spans  # noqa: E402

SIMPLEX_TOL = 1e-9  # the surrogate's own tolerance on the weight simplex
# Timings summarise per-unit figures by the fast decile: the time a tenth of
# the units beat (the rate a tenth of them exceed). On a shared host the noise
# only ever slows a unit down, often by a quarter and for many seconds at a
# time, so this reads the code's own speed as long as a tenth of the run is
# undisturbed; a median needs half.
FAST_PERCENTILE = 10


@dataclass(frozen=True)
class WideSizes:
    n_sites: int = 16384
    horizon: int = 1000  # as in `olfl bench`; a fresh learner every horizon trials
    block: int = 100  # trials per unit


@dataclass(frozen=True)
class RunSizes:
    n_sites: int
    horizon: int
    n_seeds: int
    algo: str
    cardinality: int | None
    scenario: str


SIZES = {
    "wide": WideSizes(),
    "seeds": RunSizes(6, 500, 20, "fl-bounded", 2, "iid"),
    "killer": RunSizes(16, 2000, 2, "fl", None, "killer"),
}


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def error(self, exc: BaseException) -> None:
        self.check(False, f"raised {type(exc).__name__}: {exc}")


@dataclass
class Phase:
    """Timed work of one mode (traced or not): seed-trials and seconds."""

    trials: int = 0
    seconds: float = 0.0
    units: int = 0

    def add(self, trials: int, seconds: float) -> None:
        self.trials += trials
        self.seconds += seconds
        self.units += 1

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.seconds


@dataclass
class Outcome:
    checks: Checks = field(default_factory=Checks)
    untraced: Phase = field(default_factory=Phase)
    traced: Phase = field(default_factory=Phase)
    unit_rates: list[float] = field(default_factory=list)  # untraced seed-trials/s per unit
    trial_ms: list[list[float]] = field(default_factory=list)  # per untraced unit
    per_seed_ms: bool = False  # trial_ms holds one sample per learner seed, the same seeds in every unit
    mean_loss: float | None = None
    restarts: int | None = None
    emit_bytes: list[int] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # trace targets not found


def learner_seeds(seed: int, count: int) -> tuple[int, ...]:
    """`count` distinct learner seeds derived from the benchmark seed."""
    rng = np.random.default_rng([seed, 1])
    return tuple(int(s) for s in rng.choice(2**31 - 1, size=count, replace=False) + 1)


def scenario_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 2]).integers(2**31 - 1))


def run_units(unit, seconds: float, min_units: int, tracer: spans.Tracer | None, out: Outcome) -> None:
    """Repeat `unit(tracer or None) -> (seed-trials, timed seconds, trial ms)`
    until `seconds` would be exceeded, never fewer than `min_units` times; the
    last unit's duration predicts the next one's. With a tracer, every second
    unit is traced, with the spans installed for that unit alone."""
    start, done, last = time.perf_counter(), 0, 0.0
    while done < min_units or time.perf_counter() - start + last <= seconds:
        traced = tracer is not None and done % 2 == 1
        unit_start = time.perf_counter()
        inst = spans.install(tracer) if traced else None
        try:
            trials, timed, trial_ms = unit(tracer if traced else None)
        except Exception as exc:  # a crashed unit is a failed check
            out.checks.error(exc)
            return
        finally:
            if inst is not None:
                tracer.enabled = False
                inst.restore()
                out.missing = inst.missing
        (out.traced if traced else out.untraced).add(trials, timed)
        if not traced:
            out.unit_rates.append(trials / timed)
            out.trial_ms.append(trial_ms)
        done, last = done + 1, time.perf_counter() - unit_start


class Wide:
    def __init__(self, seed: int, sizes: WideSizes):
        self.seed = seed
        self.sizes = sizes
        self.cfg = GameConfig(sizes.n_sites, sizes.horizon, 1.0, 1.0)
        self.epoch = -1
        self.epoch0_loss = 0.0
        self._next_epoch()
        self.costs = self._draw_costs()

    def _next_epoch(self) -> None:
        self.epoch += 1
        self.trial = 0
        self.learner = olfl.DoublingLearner(self.cfg)
        self.rng = np.random.default_rng([self.seed, 3, self.epoch])
        self.cost_rng = np.random.default_rng([self.seed, 4, self.epoch])

    def _draw_costs(self) -> CostPair:
        n = self.sizes.n_sites
        return CostPair(self.cost_rng.uniform(0.0, 1.0, n), self.cost_rng.uniform(0.0, 1.0, n))

    def run(self, seconds: float, tracer: spans.Tracer | None, out: Outcome) -> None:
        # the first epoch always completes: its mean loss is the reported one
        min_units = -(-self.sizes.horizon // self.sizes.block)
        run_units(lambda t: self._block(t, out), seconds, min_units, tracer, out)

    def _block(self, tracer, out: Outcome):
        n, checks = self.sizes.n_sites, out.checks
        timed = 0.0
        trial_ms = []
        for _ in range(self.sizes.block):
            if self.trial == self.sizes.horizon:
                self._next_epoch()
                self.costs = self._draw_costs()
            learner, costs = self.learner, self.costs
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            action = learner.play(self.rng)
            learner.update(costs)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            timed += dt
            trial_ms.append(dt * 1e3)
            self.trial += 1
            members = action.members
            checks.check(len(members) > 0 and 1 <= members[0] and members[-1] <= n,
                         f"action {members[:5]}... not a nonempty subset of 1..{n}")
            w = learner.weights
            checks.check(abs(float(w.sum()) - 1.0) <= SIMPLEX_TOL and float(w.min()) >= -SIMPLEX_TOL,
                         f"weights left the simplex at epoch {self.epoch} trial {self.trial}")
            if self.epoch == 0:
                self.epoch0_loss += facility_loss(costs, action)
                if self.trial == self.sizes.horizon:
                    out.mean_loss = self.epoch0_loss / self.sizes.horizon
                    out.restarts = learner.segment
            self.costs = self._draw_costs()
        return self.sizes.block, timed, trial_ms


class Experiment:
    """seeds and killer: the whole experiment of `olfl run` after imports."""

    def __init__(self, name: str, seed: int, out_dir: Path, sizes: RunSizes | None = None):
        self.name = name
        self.sizes = sizes or SIZES[name]
        s = self.sizes
        self.cfg = GameConfig(s.n_sites, s.horizon, 1.0, 1.0)
        self.scenario = olfl.ScenarioSpec(s.scenario, seed=scenario_seed(seed) if s.scenario != "killer" else 0)
        self.config = olfl.ExperimentConfig(
            self.cfg, olfl.AlgoSpec(s.algo, s.cardinality), self.scenario, learner_seeds(seed, s.n_seeds)
        )
        self.prefix = str(out_dir / name)
        self.out_dir = out_dir
        self._bound = None

    def run(self, seconds: float, tracer: spans.Tracer | None, out: Outcome) -> None:
        out.per_seed_ms = True
        run_units(lambda t: self._unit(t, out), seconds, 2 if tracer else 1, tracer, out)

    def _unit(self, tracer, out: Outcome):
        if tracer is not None:
            tracer.enabled = True
        try:
            t0 = time.perf_counter()
            result = olfl.run_experiment(self.config)
            paths = olfl.emit_results(result, self.prefix)
            timed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.enabled = False
        self._check(result, paths, out)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        trial_ms = [sr.per_trial_median_ms for sr in result.seed_runs]
        return self.sizes.n_seeds * self.sizes.horizon, timed, trial_ms

    def _check(self, result, paths: list[str], out: Outcome) -> None:
        checks, s = out.checks, self.sizes
        try:
            mean = result.mean_cumulative_loss
            if out.mean_loss is None:
                out.mean_loss = mean / s.horizon
            else:
                checks.check(mean / s.horizon == out.mean_loss, "a repeated experiment changed its mean loss")
            with open(f"{self.prefix}.aggregate.json", encoding="utf-8") as fh:
                aggregate = json.load(fh)
            checks.check(aggregate["loss"]["mean_cumulative"] == mean, "aggregate.json mean differs")
            out.restarts = sum(len(starts) - 1 for starts in (aggregate["segments"] or {}).values())
            out.emit_bytes.append(sum(os.path.getsize(p) for p in paths))
            if self.name == "seeds":
                self._check_seeds(result, checks)
            else:
                checks.check(mean / s.horizon < 1.0, f"killer mean loss per trial {mean / s.horizon} >= 1")
                checks.check(not result.comparator_approximate, "killer comparator is approximate")
        except Exception as exc:  # a crashed check is a failed check
            checks.error(exc)

    def _check_seeds(self, result, checks: Checks) -> None:
        """The fl-bounded acceptance bound at this run's seeds and scenario."""
        s, cfg = self.sizes, self.cfg
        if self._bound is None:
            costs = generate_scenario(s.scenario, cfg, self.scenario.seed)
            _, comparator = best_fixed_subset(costs, max_card=s.cardinality)
            h = half_log_ceil(cfg.horizon)
            c, d = cfg.opening_max, cfg.connection_max
            penalty = (2 * s.cardinality * (2 * c + d) * h + (c + d)) * math.sqrt(
                math.log(2 * cfg.n_sites) * cfg.horizon
            )
            self._bound = h * comparator + penalty
        values = np.array([run.cumulative_loss for run in result.seed_runs])
        half = stats.t.ppf(0.975, values.size - 1) * values.std(ddof=1) / math.sqrt(values.size)
        checks.check(float(values.mean() + half) <= self._bound, "95% CI upper end above the fl-bounded bound")
        for seed in self.config.seeds:
            with open(f"{self.prefix}.trials.seed{seed}.csv", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            checks.check(rows == s.horizon, f"trials CSV of seed {seed} has {rows} rows, not {s.horizon}")


def build(name: str, seed: int, out_dir: Path, sizes=None):
    if name == "wide":
        return Wide(seed, sizes or SIZES["wide"])
    return Experiment(name, seed, out_dir, sizes)


def per_layer(tracer: spans.Tracer, out: Outcome) -> dict[str, float | None]:
    """Per-unit layer figures of the traced units, plus the tracing cost."""
    units = out.traced.units
    metrics: dict[str, float | None] = {}
    for name in spans.SPAN_NAMES:
        absent = name in out.missing
        metrics[f"{name}.calls"] = None if absent else tracer.calls.get(name, 0) / units
        metrics[f"{name}.self_s"] = None if absent else tracer.self_s.get(name, 0.0) / units
    requested = tracer.draws_requested
    metrics["sampler.distinct_ratio"] = tracer.draws_distinct / requested if requested else 0.0
    metrics["experiment.emit_bytes"] = float(np.median(out.emit_bytes)) if out.emit_bytes else 0.0
    metrics["learners.restarts"] = out.restarts
    metrics["trace.timed_s"] = out.traced.seconds / units
    metrics["trace.self_share"] = sum(tracer.self_s.values()) / out.traced.seconds
    metrics["trace.trials_per_s"] = out.traced.trials_per_s
    metrics["trace.untraced_trials_per_s"] = out.untraced.trials_per_s
    metrics["trace.overhead_share"] = 1.0 - out.traced.trials_per_s / out.untraced.trials_per_s
    return metrics


def end_to_end(out: Outcome) -> dict[str, float]:
    ms = np.array(out.trial_ms)  # units x samples
    if out.per_seed_ms:
        # each learner seed's per-trial median at the fast decile of its
        # repeats, then percentiles across seeds: one seed's trials last well
        # under a second, so within one unit the slowest seeds are mostly
        # those a slow spell of the machine overlapped
        p50, p90 = np.percentile(np.percentile(ms, FAST_PERCENTILE, axis=0), [50, 90])
    else:
        p50, p90 = np.percentile(np.percentile(ms, [50, 90], axis=1), FAST_PERCENTILE, axis=1)
    return {
        "trials_per_s": float(np.percentile(out.unit_rates, 100 - FAST_PERCENTILE)),
        "trial_ms_p50": float(p50),
        "trial_ms_p90": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_loss": out.mean_loss,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        workload = build(args.workload, args.seed, out_dir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = spans.Tracer() if args.trace else None
        out = Outcome()
        workload.run(args.seconds, tracer, out)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report = {"setup_s": setup_s, "attempted": out.checks.attempted, "failed": out.checks.failed,
              "notes": out.checks.notes, "samples": sum(map(len, out.trial_ms)), "units": out.untraced.units}
    if out.untraced.units and (tracer is None or out.traced.units) and out.mean_loss is not None:
        report["metrics"] = per_layer(tracer, out) if tracer else end_to_end(out)
        report["missing"] = out.missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
