"""Experiment harness: configuration, the trial loop, aggregation, output.

The trial loop follows the game protocol structurally: the learner's play()
takes no cost argument, so trial-t costs cannot leak into the trial-t action;
they are fetched only after the action is committed (for the adaptive killer
source this is also where the adversary's order of moves is realized).
Every scenario is one cost source with a two-part interface: called as
`source(t, actions)` with the committed actions it gives trial t's costs,
and `source.realized(actions)` gives the history a learner row's actions
were priced on. A scenario's CostRows ignores the actions and is its own
history; a `KillerSource` prices them and rebuilds the history from them.

Seeds drive the learner's own randomness: each seed owns the generator
`np.random.default_rng(seed)`. All seeds of an experiment run through one
columnar `trial_loop`, whose Python work per trial does not grow with the
seed count; `olfl bench` and `olfl verify` drive their learners through
the same loop. Every algo is a batch of learner rows behind one interface
(`game.LearnerRows`): the fl family a `LearnerBatch`, hedge-exact an
`ExactHedge` and ftl-greedy a `FollowTheLeaderGreedy`. They read their
uniforms through a `UniformStreams`: the generators are private to the run,
so each seed's uniforms are prefetched for about 64 trials at a time. No
learner's state depends on its own draws, so on a shared scenario every
seed follows one trajectory: the batch holds one row and updates it once
per trial, and the fl family draws every seed's actions from it per block
of recorded trials (on narrow rows one count, for all its trials at once,
of the cumulative sums at or below each uniform, and one sort of each
action's draws) and prepares the surrogate's cost side per block;
`trial_loop` plays every other learner trial by trial, as a block of one.
On the killer a randomized learner's seeds each have their own costs, and
the batch one row per seed; ftl-greedy is deterministic, so the killer
prices the one action it plays, and it holds one row on every scenario. A
trial's actions are CSR rows (`ActionRows`), one per seed; the loop records
them with one column per seed, the update values and learner state as
(T, R) columns, one per learner row, and keeps no per-trial objects. Seed
r reads row r % R, and seeds that share a row share its columns and its
history.

A shared scenario (from its own seed or a trace file) is one (T, N)
CostRows: it feeds each trial's row to the learners and prices every
seed's losses, the one comparator, the regret curve and the trace file.
On the killer each distinct history is priced by one comparator
(`oracles.comparator`), whose loss the seeds average. Losses do not feed
back into play, so they are priced after the loop, bit for bit as
`facility_loss` prices them: one `action_losses` call per learner row's
history, on the seeds that row serves, each action mapped to its trial's
row. A comparator the oracles would refuse is refused before the first
trial.

Each seed's run is a `SeedRun` of per-trial columns; `emit_results` writes
the trial CSVs from the columns, formatting each distinct cell once.

A seed's `per_trial_median_ms` is the median over trials of the loop's
play + update time divided by the number of seeds (in blocks, a trial's
record + update time plus an equal share of its block's draw and of its
prepared block's preparation), and its `wall_time_s` is the wall time of
the loop and the loss pricing divided by the number of seeds, so the
seeds' wall times sum to the loop's.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy import special

from .adversaries import EMIT_LINES, SCENARIO_KINDS, KillerSource, generate_scenario, load_trace, save_trace
from .errors import ConfigError
from .game import ActionRows, CostRows, GameConfig, LearnerRows, SiteSet, action_losses, refuse_cost_bounds
from .learners import KINDS, LearnerBatch, half_log_ceil
from .oracles import ExactHedge, FollowTheLeaderGreedy, comparator, comparator_cardinalities
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
        if kind not in SCENARIO_KINDS:
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
        for field, seed in (("seeds", min(self.seeds)), ("scenario seed", self.scenario.seed)):
            if seed < 0:  # numpy would refuse it only later, naming no field
                raise ConfigError(f"{field} must be >= 0, got {seed}")
        if kind in ("killer", "replay") and self.scenario.seed:  # nothing would read it
            raise ConfigError(f"scenario {kind} takes no scenario seed")
        game = self.game  # the fl family's `LearnerBatch` refuses what it derives itself
        bound = game.horizon * (game.n_sites * game.opening_max + game.connection_max)
        refuse_cost_bounds(game, [("cumulative loss bound T (N C + D)", bound, True)])


def config_to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


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
    seed on the killer, where each seed has its own costs. ftl-greedy is
    always one row: it plays one action whatever its seed."""
    name, cfg = config.algo.name, config.game
    if name == "ftl-greedy":
        return FollowTheLeaderGreedy(cfg)
    rows = len(config.seeds) if config.scenario.kind == "killer" else 1
    if name in KINDS:
        return LearnerBatch(cfg, name, rows, config.algo.cardinality)
    return ExactHedge(cfg, rows)


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
    realized_costs: CostRows | None  # the learner row's history, one row per trial; None when it is the shared scenario


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


def trial_loop(learner: LearnerRows, rngs, horizon: int, source):
    """`horizon` trials of `learner`, one action per generator in `rngs`.
    `source(t, actions)` gives trial t's costs (0-based), called only after
    the actions are committed, as the adaptive killer needs: a scenario's
    CostRows gives its row t, a `KillerSource` prices the actions, and any
    other callable (fresh costs, one row per learner row) may stand in. A
    CostRows shorter than the horizon is refused before the first trial.
    Each trial plays, then updates on its costs. Every `play` draws a block
    of trials: one trial, or on a CostRows, for a one-row `LearnerBatch`,
    every trial recorded (`LearnerBatch.record`, before its update) since
    the last play, ended where `record` refuses the next. The weights
    depend on the costs alone, so the actions are the ones per-trial plays
    would draw. Such a learner also takes its costs in prepared blocks: the
    surrogate's cost side of up to a recorded block's number of trials,
    built at once (`LearnerBatch.prepare`) at the block's first trial, and
    handed to `update` one trial's row at a time. Every play's actions are
    kept as they come and split per generator after the loop, and the
    update values and learner state are recorded as (T, R) columns, one
    per learner row, so the loop's Python work per trial does not grow
    with the number of generators.

    Returns (seconds, values, states, actions): the play + update seconds of
    each trial (in blocks, its record and update plus an equal share of its
    block's draw and of its prepared block's preparation), the (T, R)
    update values or None when the learner reports none, the (scale,
    cardinality, segment) (T, R) columns, each None where the learner keeps
    no such state, and each generator's ActionRows, one row per trial."""
    values = np.empty((horizon, learner.rows))
    live = learner.state_rows()  # changed in place, so one read serves every trial
    states = [None if a is None else np.empty((horizon, learner.rows), dtype=np.int64) for a in live]
    tracked = [(column, state) for column, state in zip(states, live) if column is not None]
    seconds = np.zeros(horizon)
    generators = len(rngs)
    lengths = np.empty(horizon * generators, dtype=np.intp)  # each action's site count, trial-major
    sites = []  # each play's sites
    clock, play, update = time.perf_counter, learner.play, learner.update
    costs, record = source, None
    if isinstance(source, CostRows):
        if len(source) < horizon:
            raise ConfigError(f"a scenario of {len(source)} trials for a horizon of {horizon}")
        if isinstance(learner, LearnerBatch) and learner.rows == 1:
            record, prepare = learner.record, learner.prepare
            block, start, stop = [], 0, 0

            def costs(t, actions):
                """Trial t's row of its prepared block; the block is
                prepared at its first trial, its time shared equally among
                its trials."""
                nonlocal block, start, stop
                if t == stop:
                    t0 = clock()
                    block, start = prepare(source, t, horizon), t
                    stop = t + len(block)
                    seconds[start:stop] += (clock() - t0) / (stop - start)
                return block[t - start]

    first = 0  # the first trial whose actions are not kept yet
    actions = None  # a recorded trial's, drawn with its block

    def keep(played: ActionRows, stop: int) -> ActionRows:
        """Keep the actions of trials first .. stop - 1, played at once."""
        nonlocal first
        np.subtract(played.ptr[1:], played.ptr[:-1], out=lengths[first * generators : stop * generators])
        sites.append(played.sites)
        first = stop
        return played

    def draw(stop: int) -> None:
        """Draw the recorded trials first .. stop - 1 with one play, its
        time shared equally among them."""
        start, t0 = first, clock()
        keep(play(rngs), stop)
        seconds[start:stop] += (clock() - t0) / (stop - start)

    for t in range(horizon):
        for column, state in tracked:
            column[t] = state
        t0 = clock()
        if record is None:
            actions = keep(play(rngs), t + 1)
        elif not record(t + 1):  # the block is full, or a restart changed its draw count
            draw(t)
            t0 = clock()
            record(t + 1)
        t1 = clock()
        trial_costs = costs(t, actions)
        t2 = clock()
        trial_values = update(trial_costs)
        seconds[t] += (t1 - t0) + (clock() - t2)
        if trial_values is not None:  # ftl-greedy reports no values
            values[t] = trial_values
    if record is not None:
        draw(horizon)
    if trial_values is None:  # a learner reports on every trial or on none
        values = None
    return seconds, values, states, _actions_by_seed(lengths.reshape(horizon, generators), np.concatenate(sites))


def _run_seeds(config: ExperimentConfig, source) -> list[SeedRun]:
    """Every seed of the experiment through one `trial_loop` on `source`.
    Seed r reads learner row r % R of the loop's R rows: its update values,
    its state columns (the same column objects for every seed of the row)
    and the history the row was priced on, `source.realized` of the row's
    actions. Losses depend on the actions and costs alone, so they are
    priced after the loop: the seeds of each learner row in one call on its
    history, each action mapped to its trial's row."""
    cfg, seeds = config.game, config.seeds
    learner = build_learner(config)
    rngs = UniformStreams(seeds)  # the generators are private to this run
    wall_start = time.perf_counter()
    seconds, values, states, by_seed = trial_loop(learner, rngs, cfg.horizon, source)
    histories = [source.realized(by_seed[row]) for row in range(learner.rows)]
    losses = np.empty((len(seeds), cfg.horizon))
    for row, history in enumerate(histories):
        served = slice(row, None, learner.rows)  # the seeds r with r % R == row
        actions = by_seed[served]
        trials = np.tile(np.arange(cfg.horizon), len(actions))
        losses[served] = action_losses(history, _joined(actions), trials).reshape(len(actions), cfg.horizon)
    wall = (time.perf_counter() - wall_start) / len(seeds)
    median_ms = float(np.median(seconds / len(seeds)) * 1e3)
    held = learner.segment_starts if config.algo.name == "fl" else None  # one list per learner row
    # a sequential sum along each row, as adding trial by trial would give
    cumulative = np.cumsum(losses, axis=1)[:, -1].tolist()
    columns = [None if c is None else np.ascontiguousarray(c.T) for c in [values, *states]]
    # lambda, theta, k, segment: one set of column objects per learner row
    by_row = [[None if column is None else column[row] for column in columns] for row in range(learner.rows)]
    row_of = [r % learner.rows for r in range(len(seeds))]
    return [
        SeedRun(
            seed,
            by_seed[r],
            losses[r],
            *by_row[row],
            cumulative_loss=cumulative[r],
            wall_time_s=wall,
            per_trial_median_ms=median_ms,
            segment_starts=None if held is None else list(held[row]),
            realized_costs=None if histories[row] is source else histories[row],
        )
        for r, (seed, row) in enumerate(zip(seeds, row_of))
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


def _joined(actions: list[ActionRows]) -> ActionRows:
    """The rows of every ActionRows in `actions`, in order, as one."""
    lengths = np.concatenate([np.diff(rows.ptr) for rows in actions])
    ptr = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=ptr[1:])
    return ActionRows(ptr, np.concatenate([rows.sites for rows in actions]))


def _comparator_restriction(config: ExperimentConfig) -> tuple[int | None, int | None, str]:
    """(max_card, exact_card, label) matching each algo's comparator class."""
    if config.algo.name == "fl-fixed":
        return None, config.algo.cardinality, f"cardinality exactly {config.algo.cardinality}"
    if config.algo.name == "fl-bounded":
        return config.algo.cardinality, None, f"cardinality at most {config.algo.cardinality}"
    return None, None, "any nonempty subset"


def bound_terms(config: ExperimentConfig) -> tuple[str | None, int, float | None]:
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


def _power_of_two_below(values: np.ndarray) -> float:
    """The power of two at or below the largest |value| (1/2 when all are
    0): dividing by it is exact and puts the largest in [1, 2)."""
    return math.ldexp(1.0, math.frexp(float(np.abs(values).max()))[1] - 1)


def run_experiment(config: ExperimentConfig) -> RunResult:
    cfg = config.game
    max_card, exact_card, restriction = _comparator_restriction(config)
    if max_card is not None or exact_card is not None:
        # refuse an infeasible comparator before any trial runs; an
        # unrestricted one is exact or greedy and never refused
        comparator_cardinalities(cfg.n_sites, max_card, exact_card)
    per_seed_comparators = config.scenario.kind == "killer"
    if config.scenario.kind == "replay":
        source = load_trace(config.scenario.path, cfg)
    elif per_seed_comparators:  # ftl-greedy is deterministic: the killer prices the action it plays
        source = KillerSource(cfg.n_sites, config.algo.name == "ftl-greedy")
    else:
        source = generate_scenario(config.scenario.kind, cfg, config.scenario.seed, config.scenario.drift_step)
    seed_runs = _run_seeds(config, source)

    cum_losses = np.array([sr.cumulative_loss for sr in seed_runs])
    # the mean and deviation of the losses scaled by a power of two, which is
    # exact, so that the largest is in [1, 2) and neither the seeds' sum nor
    # a square overflows; a nonzero deviation is at least an ulp of it, so
    # none underflows
    unit = _power_of_two_below(cum_losses)
    mean_loss = float((cum_losses / unit).mean() * unit)
    if cum_losses.size >= 2:
        half = float(
            special.stdtrit(cum_losses.size - 1, 0.975)  # the t quantile, as stats.t.ppf(0.975, df) gives it
            * ((cum_losses / unit).std(ddof=1) * unit)
            / math.sqrt(cum_losses.size)
        )
    else:
        half = 0.0
    ci95 = (mean_loss - half, mean_loss + half)

    if per_seed_comparators:
        # seeds served by one learner row share its history: price it once
        histories = {id(sr.realized_costs): sr.realized_costs for sr in seed_runs}
        priced = {key: comparator(history, max_card, exact_card) for key, history in histories.items()}
        members = None
        approx = any(a for _, _, a in priced.values())
        comparator_loss = float(np.mean([priced[id(sr.realized_costs)][1] for sr in seed_runs]))
    else:
        subset, comparator_loss, approx = comparator(source, max_card, exact_card)
        members = subset.members

    if config.algo.name == "fl":
        # reference bound at the final segment's budget (max across seeds)
        final_budget = max(int(sr.cardinalities[-1]) for sr in seed_runs)
        _, scale_factor, penalty = bound_terms(replace(config, algo=AlgoSpec("fl-bounded", final_budget)))
        bound_name = "bounded-cardinality (reference)"
    else:
        bound_name, scale_factor, penalty = bound_terms(config)

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
        comparator_restriction=restriction,
        scale_factor=scale_factor,
        penalty_term=penalty,
        bound_rhs=bound_rhs,
        bound_name=bound_name,
        regret_raw=regret_raw,
        regret_normalized=regret_normalized,
        scenario_costs=None if per_seed_comparators else source,
    )


TRIAL_CSV_HEADER = "seed,trial,action,loss,lambda,theta,k,segment"
CURVE_CSV_HEADER = "trial,mean_cumulative_loss,comparator_scaled_cumulative,regret,bound"


def _csv_lines(columns, end: str = "\n"):
    """CSV lines from per-row columns, one str.format template for every
    line: each (values, spec) column is a cell formatted with spec (".17g"
    for floats, "" for integers and text), and a None column is empty. At
    least one column must be present."""
    template = ",".join("" if values is None else "{:%s}" % spec for values, spec in columns) + end
    return map(template.format, *(values for values, _ in columns if values is not None))


def _tail_cells(run: SeedRun, horizon: int) -> list[str]:
    """Each trial's lambda,theta,k,segment cells of `run`, empty where the
    algo reports no such column."""
    columns = [(run.surrogate_losses, ".17g"), (run.scales, ""), (run.cardinalities, ""), (run.segments, "")]
    if all(values is None for values, _ in columns):
        return [",,,"] * horizon
    return list(_csv_lines([(_listed(values), spec) for values, spec in columns], end=""))


def _listed(column: np.ndarray | None) -> list | None:
    return None if column is None else column.tolist()


def _action_strings(actions: ActionRows, n_sites: int) -> list[str]:
    """Each row's sites joined by ';', formatted once per distinct action:
    below 63 sites each row is keyed by its site bitmask, all rows in one
    pass; above, through a dict, row by row."""
    ptr, sites = actions.ptr, actions.sites
    if n_sites > 62:
        ptr, sites = ptr.tolist(), sites.tolist()
        cache: dict[tuple[int, ...], str] = {}
        out = []
        for a, b in zip(ptr, ptr[1:]):
            members = tuple(sites[a:b])
            text = cache.get(members)
            if text is None:
                text = cache[members] = ";".join(map(str, members))
            out.append(text)
        return out
    masks = np.bitwise_or.reduceat(np.left_shift(1, sites - 1), ptr[:-1])
    _, first, inverse = np.unique(masks, return_index=True, return_inverse=True)
    texts = np.array([";".join(map(str, sites[ptr[i] : ptr[i + 1]].tolist())) for i in first.tolist()], dtype=object)
    return texts[inverse].tolist()


def _loss_texts(losses: np.ndarray) -> list[list[str]]:
    """The (S, T) losses' cells, each formatted with .17g once per distinct
    value: equal bits format alike."""
    distinct, inverse = np.unique(losses.view(np.int64).ravel(), return_inverse=True)
    texts = np.array(list(map("{:.17g}".format, distinct.view(float).tolist())), dtype=object)
    return texts[inverse.reshape(losses.shape)].tolist()


def emit_results(result: RunResult, prefix: str) -> list[str]:
    """Write per-seed trial CSVs, the aggregate JSON, the regret-curve CSV,
    and (non-adaptive scenarios) the scenario trace. Returns written paths.

    The CSVs are written from the run's columns. Cells are formatted once
    per distinct text: the trial numbers once per run, each learner row's
    lambda,theta,k,segment cells once for all the seeds that hold its
    column objects, and each distinct action and loss once for all seeds.
    A trial CSV is written in blocks of `EMIT_LINES` lines, each block's
    cells filled into one list of line templates and joined once."""
    directory = os.path.dirname(prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    paths = []

    t = result.config.game.horizon
    runs = result.seed_runs
    losses = np.array([sr.losses for sr in runs])
    trials = list(map(str, range(1, t + 1)))
    tails: dict[tuple[int, ...], list[str]] = {}  # by the ids of a learner row's columns
    actions = _action_strings(_joined([sr.actions for sr in runs]), result.config.game.n_sites)
    for r, (sr, loss_cells) in enumerate(zip(runs, _loss_texts(losses))):
        row = tuple(map(id, (sr.surrogate_losses, sr.scales, sr.cardinalities, sr.segments)))
        if row not in tails:
            tails[row] = _tail_cells(sr, t)
        cells = (trials, actions[r * t : (r + 1) * t], loss_cells, tails[row])
        line = [f"{sr.seed},", "", ",", "", ",", "", ",", "", "\n"]  # the cells go in the odd slots
        path = f"{prefix}.trials.seed{sr.seed}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRIAL_CSV_HEADER + "\n")
            for start in range(0, t, EMIT_LINES):
                block = slice(start, start + EMIT_LINES)
                parts = line * (min(t, start + EMIT_LINES) - start)
                for slot, column in enumerate(cells):
                    parts[2 * slot + 1 :: len(line)] = column[block]
                fh.write("".join(parts))
        paths.append(path)

    curves = losses.cumsum(axis=1)
    unit = _power_of_two_below(curves)  # as for the mean loss: the seeds' sum stays finite
    mean_curve = (curves / unit).mean(axis=0) * unit
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
