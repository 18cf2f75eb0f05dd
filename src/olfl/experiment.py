"""Experiment harness: configuration, the trial loop, aggregation, output.

The trial loop follows the game protocol structurally: the learner's play()
takes no cost argument, so trial-t costs cannot leak into the trial-t action;
they are fetched only after the action is committed (for the adaptive killer
source this is also where the adversary's order of moves is realized).

Seeds drive the learner's own randomness: each seed owns the generator
`np.random.default_rng(seed)`. All seeds of an experiment run through one
columnar trial loop, whose Python work per trial does not grow with the
seed count. Every algo is a batch of learner rows behind one interface
(`game.LearnerRows`): the fl family a `LearnerBatch`, hedge-exact an
`ExactHedge` and ftl-greedy a `FollowTheLeaderGreedy`. They read their
uniforms through a `UniformStreams`: the generators are private to the run,
so each seed's uniforms are prefetched for about 64 trials at a time. No
learner's state depends on its own draws, so on a shared scenario every
seed follows one trajectory: the batch holds one row, updates it once per
trial and draws every seed's action from it. On the adaptive killer each
seed has its own costs, and the batch one row per seed. A trial's actions
are CSR rows (`ActionRows`), one per seed; the loop records them, with the
update values and learner state broadcast to every seed their row serves,
as (T, S) columns, and keeps no per-trial objects.

Non-adaptive scenarios materialize one cost sequence (from the scenario's
own seed or a trace file) shared by every learner seed, so one sort per
trial serves every row and the in-hindsight comparator is common; the one
(T, N) CostRows feeds each trial's row to the learners and prices every
seed's losses, the comparator, the regret curve and the trace file. On the
adaptive killer one source prices every seed's action as one CostRows per
trial; each seed's realized costs fill its own (T, N) history, and each
seed gets its own comparator. Losses do not feed back into play, so they
are priced after the loop, one `action_losses` call per seed over its
whole history, bit for bit as `facility_loss` prices them. A comparator
the oracles would refuse is refused before the first trial.

Each seed's run is a `SeedRun` of per-trial columns; `emit_results` writes
the trial CSVs straight from the columns, one row template per line.

A seed's `per_trial_median_ms` is the median over trials of the loop's
play + update time divided by the number of seeds, and its `wall_time_s` is
the wall time of the loop and the loss pricing divided by the number of
seeds, so the seeds' wall times sum to the loop's.
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
from .game import ActionRows, CostRows, GameConfig, SiteSet, action_losses
from .learners import KINDS, LearnerBatch, half_log_ceil
from .oracles import (
    BRUTE_FORCE_SITE_CAP,
    ExactHedge,
    FollowTheLeaderGreedy,
    best_fixed_subset,
    comparator_cardinalities,
    ftl_greedy_play,
)
from .sampler import UniformStreams

ALGO_NAMES = ("fl", "fl-fixed", "fl-bounded", "hedge-exact", "ftl-greedy")
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


def build_learner(config: ExperimentConfig):
    """The learner rows of the experiment, drawing one action per seed: one
    row on a shared scenario, which every seed draws from, and one row per
    seed on the killer, where each seed has its own costs."""
    name, cfg = config.algo.name, config.game
    rows = len(config.seeds) if config.scenario.kind == "killer" else 1
    if name in KINDS:
        return LearnerBatch(cfg, name, rows, config.algo.cardinality)
    return {"hedge-exact": ExactHedge, "ftl-greedy": FollowTheLeaderGreedy}[name](cfg, rows)


@dataclass(eq=False)
class SeedRun:
    """One seed's run as columns with one entry per trial. A column the algo
    does not report is None: surrogate losses (lambda; hedge-exact reports
    its expected loss) outside the fl family and hedge-exact, the budget
    outside the fl family, scale and segment outside fl."""

    seed: int
    actions: ActionRows  # one row per trial
    losses: np.ndarray
    surrogate_losses: np.ndarray | None
    scales: np.ndarray | None  # the state in force when the trial was played
    cardinalities: np.ndarray | None
    segments: np.ndarray | None
    cumulative_loss: float
    wall_time_s: float
    per_trial_median_ms: float
    segment_starts: list[int] | None
    realized_costs: CostRows | None  # one row per trial, kept only when the source adapts


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
    scenario_costs: CostRows | None  # the shared scenario, one row per trial


def _run_seeds(config: ExperimentConfig, shared_costs: CostRows | None) -> list[SeedRun]:
    """Every seed of the experiment through one columnar trial loop. A
    trial plays every seed at once as CSR actions and records them with the
    surrogate losses and learner state as (T, S) columns, a one-row
    learner's broadcast to every seed, so the loop's Python work per trial
    does not grow with the seed count. Losses depend on the actions and
    costs alone, so they are priced once after the loop, one call per seed
    over its whole history (`shared_costs` when the scenario is shared)."""
    cfg, seeds = config.game, config.seeds
    rows, horizon = len(seeds), cfg.horizon
    learner = build_learner(config)
    rngs = UniformStreams(seeds)  # the generators are private to this run
    adaptive = shared_costs is None
    if adaptive:
        source = KillerSource(cfg.n_sites, config.algo.name == "ftl-greedy")
        realized = np.empty((2, rows, horizon, cfg.n_sites))  # opening, connection
    values = np.empty((horizon, rows))
    states = [None if a is None else np.empty((horizon, rows), dtype=np.int64) for a in learner.state_rows()]
    ptrs = np.empty((horizon, rows + 1), dtype=np.intp)
    sites = []
    per_trial = np.empty(horizon)
    wall_start = time.perf_counter()
    for t in range(horizon):
        for column, state in zip(states, learner.state_rows()):
            if column is not None:
                column[t] = state
        t0 = time.perf_counter()
        actions = learner.play(rngs)
        t1 = time.perf_counter()
        if adaptive:
            costs = source.costs_for(t + 1, actions)
            realized[0, :, t] = costs.opening
            realized[1, :, t] = costs.connection
        else:
            costs = shared_costs[t]
        t2 = time.perf_counter()
        trial_values = learner.update(costs)
        t3 = time.perf_counter()
        per_trial[t] = ((t1 - t0) + (t3 - t2)) / rows
        if trial_values is not None:  # ftl-greedy reports no values
            values[t] = trial_values
        ptrs[t] = actions.ptr
        sites.append(actions.sites)
    by_seed = _actions_by_seed(np.diff(ptrs, axis=1), np.concatenate(sites))
    if adaptive:
        histories = [CostRows(realized[0, r], realized[1, r]) for r in range(rows)]
    else:
        histories = [shared_costs] * rows
    losses = np.array([action_losses(history, actions) for history, actions in zip(histories, by_seed)])
    wall = (time.perf_counter() - wall_start) / rows
    median_ms = float(np.median(per_trial) * 1e3)
    if config.algo.name == "fl":
        held = learner.segment_starts  # one list per weight row
        starts = [list(held[0 if len(held) == 1 else r]) for r in range(rows)]
    else:
        starts = [None] * rows
    # a sequential sum along each row, as adding trial by trial would give
    cumulative = np.cumsum(losses, axis=1)[:, -1].tolist()
    reported = trial_values is not None  # a learner reports on every trial or on none
    columns = [None if c is None else np.ascontiguousarray(c.T) for c in [values if reported else None, *states]]
    return [
        SeedRun(
            seed,
            by_seed[r],
            losses[r],
            *(None if column is None else column[r] for column in columns),  # lambda, theta, k, segment
            cumulative_loss=cumulative[r],
            wall_time_s=wall,
            per_trial_median_ms=median_ms,
            segment_starts=starts[r],
            realized_costs=histories[r] if adaptive else None,
        )
        for r, seed in enumerate(seeds)
    ]


def _actions_by_seed(lengths: np.ndarray, sites: np.ndarray) -> list[ActionRows]:
    """Per-seed ActionRows, one row per trial, from the (T, S) action
    lengths and the sites of every trial's rows in trial-major order."""
    horizon, rows = lengths.shape
    starts = (np.cumsum(lengths.ravel()) - lengths.ravel()).reshape(horizon, rows)
    by_seed = lengths.T.ravel()  # seed-major lengths
    first = np.cumsum(by_seed) - by_seed
    order = np.repeat(starts.T.ravel() - first, by_seed) + np.arange(by_seed.sum())
    seed_sites = sites[order]
    seed_ptr = np.zeros(horizon * rows + 1, dtype=np.intp)
    np.cumsum(by_seed, out=seed_ptr[1:])
    out = []
    for r in range(rows):
        ptr = seed_ptr[r * horizon : (r + 1) * horizon + 1]
        out.append(ActionRows(ptr - ptr[0], seed_sites[ptr[0] : ptr[-1]]))
    return out


def _comparator_restriction(config: ExperimentConfig) -> tuple[int | None, int | None, str]:
    """(max_card, exact_card, label) matching each algo's comparator class."""
    if config.algo.name == "fl-fixed":
        return None, config.algo.cardinality, f"cardinality exactly {config.algo.cardinality}"
    if config.algo.name == "fl-bounded":
        return config.algo.cardinality, None, f"cardinality at most {config.algo.cardinality}"
    return None, None, "any nonempty subset"


def _comparator_for(history: CostRows, config: ExperimentConfig):
    """Returns (members, loss, approximate)."""
    max_card, exact_card, _ = _comparator_restriction(config)
    if _comparator_is_greedy(config):
        greedy = ftl_greedy_play(history)
        losses = action_losses(history, ActionRows.repeated(greedy, len(history)))
        return greedy.members, float(sum(losses.tolist())), True
    subset, loss = best_fixed_subset(history, max_card=max_card, exact_card=exact_card)
    return subset.members, loss, False


def _comparator_is_greedy(config: ExperimentConfig) -> bool:
    """Unrestricted comparators above the brute-force cap are approximated
    by the greedy leader."""
    max_card, exact_card, _ = _comparator_restriction(config)
    return max_card is None and exact_card is None and config.game.n_sites > BRUTE_FORCE_SITE_CAP


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
    if not _comparator_is_greedy(config):
        # refuse an infeasible comparator before any trial runs
        max_card, exact_card, _ = _comparator_restriction(config)
        comparator_cardinalities(cfg.n_sites, max_card, exact_card)
    shared_costs = None
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
        final_budget = max(int(sr.cardinalities[-1]) for sr in seed_runs)
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


TRIAL_CSV_HEADER = "seed,trial,action,loss,lambda,theta,k,segment"
CURVE_CSV_HEADER = "trial,mean_cumulative_loss,comparator_scaled_cumulative,regret,bound"


def _csv_lines(columns):
    """CSV lines from per-row columns, one str.format template for every
    line: each (values, spec) column is a cell formatted with spec (".17g"
    for floats, "" for integers and text), and a None column is empty."""
    template = ",".join("" if values is None else "{:%s}" % spec for values, spec in columns) + "\n"
    return map(template.format, *(values for values, _ in columns if values is not None))


def _listed(column: np.ndarray | None) -> list | None:
    return None if column is None else column.tolist()


def _action_strings(actions: ActionRows, cache: dict) -> list[str]:
    """Each row's sites joined by ';', formatted once per distinct action."""
    ptr, sites = actions.ptr.tolist(), actions.sites.tolist()
    out = []
    for a, b in zip(ptr, ptr[1:]):
        members = tuple(sites[a:b])
        text = cache.get(members)
        if text is None:
            text = cache[members] = ";".join(map(str, members))
        out.append(text)
    return out


def emit_results(result: RunResult, prefix: str) -> list[str]:
    """Write per-seed trial CSVs, the aggregate JSON, the regret-curve CSV,
    and (non-adaptive scenarios) the scenario trace. Returns written paths.
    The CSVs are written from the run's columns, one template per line."""
    directory = os.path.dirname(prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    paths = []

    t = result.config.game.horizon
    cache: dict[tuple[int, ...], str] = {}
    for sr in result.seed_runs:
        lines = _csv_lines(
            [
                ([sr.seed] * t, ""),
                (range(1, t + 1), ""),
                (_action_strings(sr.actions, cache), ""),
                (sr.losses.tolist(), ".17g"),
                (_listed(sr.surrogate_losses), ".17g"),
                (_listed(sr.scales), ""),
                (_listed(sr.cardinalities), ""),
                (_listed(sr.segments), ""),
            ]
        )
        path = f"{prefix}.trials.seed{sr.seed}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRIAL_CSV_HEADER + "\n")
            fh.writelines(lines)
        paths.append(path)

    loss_matrix = np.array([sr.losses for sr in result.seed_runs])
    mean_curve = loss_matrix.cumsum(axis=1).mean(axis=0)
    comp = regret = bound = None
    if result.comparator_members is not None and result.scenario_costs is not None:
        comp_set = SiteSet(result.comparator_members)
        comp_losses = action_losses(result.scenario_costs, ActionRows.repeated(comp_set, t))
        comp_curve = result.scale_factor * comp_losses.cumsum()
        comp, regret = comp_curve.tolist(), (mean_curve - comp_curve).tolist()
        if result.penalty_term is not None:
            bound = (comp_curve + result.penalty_term).tolist()
    lines = _csv_lines(
        [(range(1, t + 1), ""), (mean_curve.tolist(), ".17g"), (comp, ".17g"), (regret, ".17g"), (bound, ".17g")]
    )
    curve_path = f"{prefix}.regret_curve.csv"
    with open(curve_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CURVE_CSV_HEADER + "\n")
        fh.writelines(lines)
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
