"""Experiment harness: configuration, the trial loop, aggregation, output.

The trial loop follows the game protocol structurally: the learner's play()
takes no cost argument, so trial-t costs cannot leak into the trial-t action;
they are fetched only after the action is committed (for the adaptive killer
source this is also where the adversary's order of moves is realized).

Seeds drive the learner's own randomness: each seed owns the generator
`np.random.default_rng(seed)`. All seeds of an experiment run through one
trial loop. The fl family runs them as the rows of one `LearnerBatch`;
hedge-exact and ftl-greedy keep one scalar learner per seed behind the same
interface. Non-adaptive scenarios materialize one cost sequence (from the
scenario's own seed or a trace file) shared by every learner seed, so one
sort per trial serves every row and the in-hindsight comparator is common;
the adaptive killer keeps one source per seed, realizes one sequence per
seed and computes comparators per seed.

A seed's `per_trial_median_ms` is the median over trials of the loop's
play + update time divided by the number of seeds, and its `wall_time_s` is
the loop's wall time divided by the number of seeds, so the seeds' wall
times sum to the loop's.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from .adversaries import KillerSource, generate_scenario, load_trace, save_trace
from .errors import ConfigError
from .game import CostPair, GameConfig, SiteSet, facility_loss
from .learners import KINDS, LearnerBatch, half_log_ceil
from .oracles import (
    BRUTE_FORCE_SITE_CAP,
    ExactHedge,
    FollowTheLeaderGreedy,
    best_fixed_subset,
    ftl_greedy_play,
)

ALGO_NAMES = ("fl", "fl-fixed", "fl-bounded", "hedge-exact", "ftl-greedy")
DETERMINISTIC_ALGOS = frozenset({"ftl-greedy"})
CARDINALITY_ALGOS = frozenset({"fl-fixed", "fl-bounded"})


@dataclass(frozen=True)
class AlgoSpec:
    name: str
    cardinality: int | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    seed: int = 0
    path: str | None = None
    drift_step: float = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    game: GameConfig
    algo: AlgoSpec
    scenario: ScenarioSpec
    seeds: tuple[int, ...]

    def __post_init__(self):
        if self.algo.name not in ALGO_NAMES:
            raise ConfigError(f"unknown algo {self.algo.name!r}; known: {', '.join(ALGO_NAMES)}")
        if self.algo.name in CARDINALITY_ALGOS:
            k = self.algo.cardinality
            if not isinstance(k, int) or not 1 <= k <= self.game.n_sites:
                raise ConfigError(
                    f"algo {self.algo.name} needs a cardinality in 1..{self.game.n_sites}, got {k!r}"
                )
        elif self.algo.cardinality is not None:
            raise ConfigError(f"algo {self.algo.name} takes no cardinality")
        kind = self.scenario.kind
        if kind not in ("killer", "iid", "drift", "replay"):
            raise ConfigError(f"unknown scenario kind {kind!r}")
        if kind == "replay" and not self.scenario.path:
            raise ConfigError("replay scenario needs a trace path")
        if kind != "replay" and self.scenario.path:
            raise ConfigError(f"scenario {kind} takes no trace path")
        if kind == "killer" and (self.game.opening_max != 1.0 or self.game.connection_max != 1.0):
            raise ConfigError("killer scenario is defined for unit cost ranges (C = D = 1)")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "game": {
            "n_sites": config.game.n_sites,
            "horizon": config.game.horizon,
            "opening_max": config.game.opening_max,
            "connection_max": config.game.connection_max,
        },
        "algo": {"name": config.algo.name, "cardinality": config.algo.cardinality},
        "scenario": {
            "kind": config.scenario.kind,
            "seed": config.scenario.seed,
            "path": config.scenario.path,
            "drift_step": config.scenario.drift_step,
        },
        "seeds": list(config.seeds),
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    try:
        game = GameConfig(
            int(d["game"]["n_sites"]),
            int(d["game"]["horizon"]),
            float(d["game"]["opening_max"]),
            float(d["game"]["connection_max"]),
        )
        algo_card = d["algo"].get("cardinality")
        algo = AlgoSpec(str(d["algo"]["name"]), None if algo_card is None else int(algo_card))
        scenario = ScenarioSpec(
            str(d["scenario"]["kind"]),
            int(d["scenario"].get("seed", 0)),
            d["scenario"].get("path"),
            float(d["scenario"].get("drift_step", 0.05)),
        )
        seeds = tuple(int(s) for s in d["seeds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed experiment config: {exc}") from exc
    return ExperimentConfig(game, algo, scenario, seeds)


class PerSeedLearners:
    """One scalar learner per seed behind the batch interface of
    `LearnerBatch`: play(rngs), update(costs), state()."""

    def __init__(self, learners: list):
        self.learners = learners

    def play(self, rngs) -> list[SiteSet]:
        return [lrn.play(rng) for lrn, rng in zip(self.learners, rngs)]

    def update(self, costs) -> list:
        if isinstance(costs, CostPair):
            costs = [costs] * len(self.learners)
        return [lrn.update(cp) for lrn, cp in zip(self.learners, costs)]

    def state(self) -> list[tuple]:
        return [lrn.state() for lrn in self.learners]


def build_learner(config: ExperimentConfig):
    """The learners of every seed of the experiment, one row per seed."""
    name, cfg, rows = config.algo.name, config.game, len(config.seeds)
    if name in KINDS:
        return LearnerBatch(cfg, name, rows, config.algo.cardinality)
    if name == "hedge-exact":
        return PerSeedLearners([ExactHedge(cfg) for _ in range(rows)])
    if name == "ftl-greedy":
        return PerSeedLearners([FollowTheLeaderGreedy(cfg) for _ in range(rows)])
    raise ConfigError(f"unknown algo {name!r}")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    action: SiteSet
    loss: float
    surrogate_loss: float | None  # fl family only
    scale: int | None  # doubling guess (fl only)
    cardinality: int | None  # budget in force (fl family)
    segment: int | None  # fl only


@dataclass
class SeedRun:
    seed: int
    records: list[TrialRecord]
    cumulative_loss: float
    wall_time_s: float
    per_trial_median_ms: float
    segment_starts: list[int] | None
    realized_costs: list[CostPair] | None  # kept only when the source adapts


@dataclass
class RunResult:
    config: ExperimentConfig
    seed_runs: list[SeedRun]
    mean_cumulative_loss: float
    ci95: tuple[float, float]
    comparator_members: tuple[int, ...] | None
    comparator_loss: float
    comparator_per_seed: bool
    comparator_approximate: bool
    comparator_restriction: str
    scale_factor: int
    penalty_term: float | None
    bound_rhs: float | None
    bound_name: str | None
    regret_raw: float
    regret_normalized: float | None
    scenario_costs: list[CostPair] | None


def _run_seeds(config: ExperimentConfig, shared_costs: list[CostPair] | None) -> list[SeedRun]:
    """Every seed of the experiment through one trial loop."""
    cfg, seeds = config.game, config.seeds
    rows = len(seeds)
    learner = build_learner(config)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    adaptive = shared_costs is None
    if adaptive:
        use_current = config.algo.name in DETERMINISTIC_ALGOS
        sources = [KillerSource(cfg.n_sites, use_current) for _ in seeds]
    records: list[list[TrialRecord]] = [[] for _ in seeds]
    realized: list[list[CostPair]] = [[] for _ in seeds]
    cumulative = [0.0] * rows
    per_trial = np.empty(cfg.horizon)
    wall_start = time.perf_counter()
    for t in range(1, cfg.horizon + 1):
        states = learner.state()
        t0 = time.perf_counter()
        actions = learner.play(rngs)
        t1 = time.perf_counter()
        if adaptive:
            costs = [src.costs_for(t, action) for src, action in zip(sources, actions)]
            losses = [facility_loss(cp, action) for cp, action in zip(costs, actions)]
        else:
            costs = shared_costs[t - 1]
            losses = [facility_loss(costs, action) for action in actions]
        t2 = time.perf_counter()
        surrogate_losses = learner.update(costs)
        t3 = time.perf_counter()
        per_trial[t - 1] = ((t1 - t0) + (t3 - t2)) / rows
        for r, (action, loss, surrogate_loss, state) in enumerate(
            zip(actions, losses, surrogate_losses, states)
        ):
            cumulative[r] += loss
            records[r].append(TrialRecord(t, action, loss, surrogate_loss, *state))
            if adaptive:
                realized[r].append(costs[r])
    wall = (time.perf_counter() - wall_start) / rows
    median_ms = float(np.median(per_trial) * 1e3)
    starts = learner.segment_starts if config.algo.name == "fl" else [None] * rows
    return [
        SeedRun(
            seed=seed,
            records=records[r],
            cumulative_loss=cumulative[r],
            wall_time_s=wall,
            per_trial_median_ms=median_ms,
            segment_starts=starts[r],
            realized_costs=realized[r] if adaptive else None,
        )
        for r, seed in enumerate(seeds)
    ]


def _comparator_restriction(config: ExperimentConfig) -> tuple[int | None, int | None, str]:
    """(max_card, exact_card, label) matching each algo's comparator class."""
    if config.algo.name == "fl-fixed":
        return None, config.algo.cardinality, f"cardinality exactly {config.algo.cardinality}"
    if config.algo.name == "fl-bounded":
        return config.algo.cardinality, None, f"cardinality at most {config.algo.cardinality}"
    return None, None, "any nonempty subset"


def _comparator_for(history: list[CostPair], config: ExperimentConfig):
    """Returns (members, loss, approximate)."""
    max_card, exact_card, _ = _comparator_restriction(config)
    n = config.game.n_sites
    if max_card is None and exact_card is None and n > BRUTE_FORCE_SITE_CAP:
        greedy = ftl_greedy_play(history)
        loss = sum(facility_loss(cp, greedy) for cp in history)
        return greedy.members, float(loss), True
    subset, loss = best_fixed_subset(history, max_card=max_card, exact_card=exact_card)
    return subset.members, loss, False


def bound_terms(config: ExperimentConfig, comparator_loss: float) -> tuple[str | None, int, float | None]:
    """(bound name, comparator scale factor, penalty term) for the algo's
    closed-form guarantee; the RHS is scale * comparator + penalty.

    For the doubling learner the bounded-cardinality form at the final
    budget is reported as a reference (its own guarantee is asymptotic).
    """
    cfg = config.game
    c_max, d_max, n, t = cfg.opening_max, cfg.connection_max, cfg.n_sites, cfg.horizon
    h = half_log_ceil(t)
    name = config.algo.name
    if name == "fl-fixed":
        k = config.algo.cardinality
        penalty = (2 * k * (c_max + d_max) * h + d_max) * math.sqrt(math.log(n) * t)
        return "fixed-cardinality", h, penalty
    if name in ("fl-bounded", "fl"):
        k = config.algo.cardinality  # fl fills this in later with its final budget
        if k is None:
            return "bounded-cardinality", h, None
        penalty = (2 * k * (2 * c_max + d_max) * h + (c_max + d_max)) * math.sqrt(
            math.log(2 * n) * t
        )
        return "bounded-cardinality", h, penalty
    if name == "hedge-exact":
        m = 2 ** n - 1
        penalty = (n * c_max + d_max) * math.sqrt(t * math.log(m) / 2.0) if m > 1 else 0.0
        return "hedge", 1, penalty
    return None, 1, None


def run_experiment(config: ExperimentConfig) -> RunResult:
    cfg = config.game
    shared_costs: list[CostPair] | None = None
    if config.scenario.kind == "replay":
        shared_costs = load_trace(config.scenario.path, cfg)
    elif config.scenario.kind != "killer":
        shared_costs = generate_scenario(
            config.scenario.kind, cfg, config.scenario.seed, config.scenario.drift_step
        )

    seed_runs = _run_seeds(config, shared_costs)

    cum_losses = np.array([sr.cumulative_loss for sr in seed_runs])
    mean_loss = float(cum_losses.mean())
    if cum_losses.size >= 2:
        half = float(
            stats.t.ppf(0.975, cum_losses.size - 1)
            * cum_losses.std(ddof=1)
            / math.sqrt(cum_losses.size)
        )
    else:
        half = 0.0
    ci95 = (mean_loss - half, mean_loss + half)

    per_seed_comparators = config.scenario.kind == "killer"
    if per_seed_comparators:
        members = None
        approx = False
        losses = []
        for sr in seed_runs:
            _, loss, a = _comparator_for(sr.realized_costs, config)
            losses.append(loss)
            approx = approx or a
        comparator_loss = float(np.mean(losses))
    else:
        members, comparator_loss, approx = _comparator_for(shared_costs, config)

    eff_config = config
    if config.algo.name == "fl":
        # reference bound at the final segment's budget (max across seeds)
        final_budget = max(sr.records[-1].cardinality for sr in seed_runs)
        eff_config = replace(config, algo=AlgoSpec("fl-bounded", final_budget))
        bound_name, scale_factor, penalty = bound_terms(eff_config, comparator_loss)
        bound_name = "bounded-cardinality (reference)"
    else:
        bound_name, scale_factor, penalty = bound_terms(config, comparator_loss)

    regret_raw = mean_loss - scale_factor * comparator_loss
    regret_normalized = regret_raw / penalty if penalty else None
    bound_rhs = scale_factor * comparator_loss + penalty if penalty is not None else None

    return RunResult(
        config=config,
        seed_runs=seed_runs,
        mean_cumulative_loss=mean_loss,
        ci95=ci95,
        comparator_members=members,
        comparator_loss=comparator_loss,
        comparator_per_seed=per_seed_comparators,
        comparator_approximate=approx,
        comparator_restriction=_comparator_restriction(config)[2],
        scale_factor=scale_factor,
        penalty_term=penalty,
        bound_rhs=bound_rhs,
        bound_name=bound_name,
        regret_raw=regret_raw,
        regret_normalized=regret_normalized,
        scenario_costs=shared_costs,
    )


def _fmt(x) -> str:
    """CSV cell: floats at 17 significant digits, None as empty."""
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


TRIAL_CSV_HEADER = "seed,trial,action,loss,lambda,theta,k,segment"
CURVE_CSV_HEADER = "trial,mean_cumulative_loss,comparator_scaled_cumulative,regret,bound"


def emit_results(result: RunResult, prefix: str) -> list[str]:
    """Write per-seed trial CSVs, the aggregate JSON, the regret-curve CSV,
    and (non-adaptive scenarios) the scenario trace. Returns written paths."""
    directory = os.path.dirname(prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    paths = []

    for sr in result.seed_runs:
        path = f"{prefix}.trials.seed{sr.seed}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRIAL_CSV_HEADER + "\n")
            for rec in sr.records:
                fh.write(
                    ",".join(
                        [
                            str(sr.seed),
                            str(rec.trial),
                            ";".join(str(i) for i in rec.action.members),
                            _fmt(rec.loss),
                            _fmt(rec.surrogate_loss),
                            _fmt(rec.scale),
                            _fmt(rec.cardinality),
                            _fmt(rec.segment),
                        ]
                    )
                    + "\n"
                )
        paths.append(path)

    t = result.config.game.horizon
    loss_matrix = np.array([[rec.loss for rec in sr.records] for sr in result.seed_runs])
    mean_curve = loss_matrix.cumsum(axis=1).mean(axis=0)
    comp_curve = None
    if result.comparator_members is not None and result.scenario_costs is not None:
        comp_set = SiteSet(result.comparator_members)
        comp_losses = np.array([facility_loss(cp, comp_set) for cp in result.scenario_costs])
        comp_curve = result.scale_factor * comp_losses.cumsum()
    curve_path = f"{prefix}.regret_curve.csv"
    with open(curve_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CURVE_CSV_HEADER + "\n")
        for i in range(t):
            cells = [str(i + 1), _fmt(float(mean_curve[i]))]
            if comp_curve is not None:
                regret = float(mean_curve[i] - comp_curve[i])
                cells.append(_fmt(float(comp_curve[i])))
                cells.append(_fmt(regret))
                if result.penalty_term is not None:
                    cells.append(_fmt(float(comp_curve[i] + result.penalty_term)))
                else:
                    cells.append("")
            else:
                cells.extend(["", "", ""])
            fh.write(",".join(cells) + "\n")
    paths.append(curve_path)

    if result.scenario_costs is not None:
        scenario_path = f"{prefix}.scenario.csv"
        save_trace(scenario_path, result.scenario_costs)
        paths.append(scenario_path)

    aggregate = {
        "config": config_to_dict(result.config),
        "comparator": {
            "members": list(result.comparator_members) if result.comparator_members else None,
            "cumulative_loss": result.comparator_loss,
            "restriction": result.comparator_restriction,
            "per_seed": result.comparator_per_seed,
            "approximate": result.comparator_approximate,
        },
        "bound": None
        if result.bound_name is None
        else {
            "name": result.bound_name,
            "comparator_scale_factor": result.scale_factor,
            "scaled_comparator_term": result.scale_factor * result.comparator_loss,
            "penalty_term": result.penalty_term,
            "rhs": result.bound_rhs,
        },
        "loss": {
            "mean_cumulative": result.mean_cumulative_loss,
            "ci95": list(result.ci95),
            "per_seed": [
                {"seed": sr.seed, "cumulative": sr.cumulative_loss} for sr in result.seed_runs
            ],
        },
        "regret": {"raw": result.regret_raw, "bound_normalized": result.regret_normalized},
        "timing": {
            "total_wall_s": sum(sr.wall_time_s for sr in result.seed_runs),
            "per_trial_median_ms": float(
                np.median([sr.per_trial_median_ms for sr in result.seed_runs])
            ),
        },
        "segments": {
            str(sr.seed): sr.segment_starts
            for sr in result.seed_runs
            if sr.segment_starts is not None
        }
        or None,
    }
    json_path = f"{prefix}.aggregate.json"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(aggregate, indent=2) + "\n")
    paths.append(json_path)
    return paths
