"""Seeded regression pins, batch-versus-alone equivalence of the learners,
one weight row drawing for many generators against a row per generator, the
trial loop's blocks of recorded trials against its per-trial plays, and the
number of Python-level calls one trial may make.

The pins hold the first 40 actions and surrogate losses of two seeded runs,
recorded before the learners ran as one seed-batched core: the core must
replay the actions exactly and the losses to 1e-12.
"""
import copy
import cProfile
import pstats
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfl import (
    AlgoSpec,
    ConfigError,
    ContractViolationError,
    CostPair,
    CostRows,
    ExperimentConfig,
    GameConfig,
    InvalidDistributionError,
    NumericError,
    ScenarioSpec,
    action_losses,
    run_experiment,
)
from olfl.adversaries import KillerSource, generate_scenario, save_trace
from olfl.errors import ProtocolError
from olfl.experiment import build_learner, trial_loop
from olfl.learners import KINDS, BoundedCardinalityLearner, DoublingLearner, FixedCardinalityLearner, LearnerBatch
from olfl.oracles import ExactHedge, FollowTheLeaderGreedy
from olfl.game import PACKED_SORT_MIN
from olfl.sampler import PREFETCH_TRIALS, RecordedRows, UniformStreams
from olfl.surrogate import Workspace, prepare_costs, surrogate_rows

BOUNDED_ACTIONS = [
    (2, 3, 6), (2, 5, 6), (1, 4), (1, 2, 5, 6), (3, 4), (2, 6), (2, 4, 5, 6), (3, 6),
    (3,), (1, 2, 3, 5), (2, 3, 4), (1, 5), (2, 3, 6), (1, 3, 5, 6), (2, 5), (4, 5),
    (2, 4, 5, 6), (2, 3, 5, 6), (2, 4, 5), (2, 6), (1, 3), (4, 5, 6), (3, 6), (1, 5),
    (5,), (1, 6), (2, 5), (3, 4, 6), (1, 4), (2, 3, 4), (3, 6), (5, 6),
    (1, 3, 4), (4,), (3,), (1, 2, 3, 5), (1, 4, 6), (3, 4), (1, 4, 5, 6), (1, 2, 6),
]
BOUNDED_LAMBDAS = [
    2.461893198569884, 1.780350295974502, 2.2677476785134525, 2.5950086124421525,
    1.9133981377536673, 2.1609037853381814, 2.551163002682719, 2.3962441759415065,
    2.7487499981866943, 1.7574392619384638, 1.9249939478019247, 2.5458304689738025,
    2.1114342118892275, 2.519378475609346, 1.3364369783651537, 2.328968902768564,
    2.044590380050913, 2.5337167646660887, 2.4137560385385846, 1.7680379321582647,
    1.6049207306904199, 2.4698188234035863, 2.4149234350180326, 1.919829793095985,
    2.730628831179415, 2.250278137261374, 0.9577344646003978, 2.0416374608748424,
    1.7453017944223943, 2.5264895998966908, 1.9264302747322437, 2.5522512471625465,
    1.2954983791491628, 2.365322298692373, 2.4779560433865706, 2.150467297634276,
    1.8910157043545113, 1.90827820926909, 2.0281367417185128, 2.2087885800597054,
]
KILLER_ACTIONS = [
    (10,), (2, 13, 14), (2, 8), (14,), (2, 13, 16), (3, 9), (8,), (1,),
    (7, 11, 14), (5, 11), (8, 11, 15), (8,), (1, 3), (12, 13), (8,), (8, 15),
    (4, 13), (7, 13), (13,), (5,), (13,), (11, 13, 16), (1, 14), (6, 11),
    (3, 6, 13), (5,), (4, 9, 16), (2, 9, 15), (1, 7, 11), (15, 16), (11, 13), (16,),
    (1, 2, 5), (2, 7), (12,), (14,), (11, 12), (8,), (2, 11, 16), (2, 16),
]
KILLER_LAMBDAS = [
    0.625, 0.6421518325805664, 0.6867842569162622, 0.6625526562835204,
    0.6420965200369834, 0.6865889658173354, 0.6626230092255883, 0.6421045432891418,
    0.6421501725878223, 0.6866981953720148, 0.6625653649741171, 0.6865916353535866,
    0.642013863415946, 0.6625369721402262, 0.6625110773006846, 0.641975726663947,
    0.6623221128517741, 0.6624614128004438, 0.6623452840005135, 0.6419092998063716,
    0.6421081766507295, 0.6418714760718389, 0.68617199276926, 0.6623832984519064,
    0.662415119529898, 0.6862287387249627, 0.6420771509600133, 0.6866860104329848,
    0.6864882208638852, 0.6863261971472511, 0.6623241885045679, 0.6618322964441352,
    0.6419681850104267, 0.6863216011741395, 0.662223985509771, 0.6421352902744497,
    0.6419894522311331, 0.6622073168629571, 0.6419237981377229, 0.6857671435743407,
]

PINS = {
    "fl-bounded-iid": (
        ExperimentConfig(
            GameConfig(6, 500, 1.0, 1.0), AlgoSpec("fl-bounded", 2), ScenarioSpec("iid", seed=97), (3,)
        ),
        BOUNDED_ACTIONS,
        BOUNDED_LAMBDAS,
    ),
    "fl-killer": (
        ExperimentConfig(GameConfig(16, 2000, 1.0, 1.0), AlgoSpec("fl"), ScenarioSpec("killer"), (5,)),
        KILLER_ACTIONS,
        KILLER_LAMBDAS,
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_seeded_runs_replay_their_pinned_actions_and_losses(name):
    config, actions, lambdas = PINS[name]
    run = run_experiment(config).seed_runs[0]
    assert [action.members for action in run.actions][:40] == actions
    assert np.abs(run.surrogate_losses[:40] - lambdas).max() <= 1e-12


ALGOS = [("fl-fixed", 2), ("fl-bounded", 2), ("fl", None), ("hedge-exact", None), ("ftl-greedy", None)]
BATCH_CASES = [
    (algo, k, kind, n, horizon) for kind, n, horizon in (("iid", 9, 400), ("killer", 9, 400)) for algo, k in ALGOS
] + [("fl", None, "killer", 2, 3000)]  # the three seeds restart on different trials


@pytest.mark.parametrize("algo, k, kind, n, horizon", BATCH_CASES)
def test_batched_seeds_replay_each_seed_run_alone(algo, k, kind, n, horizon):
    scenario = ScenarioSpec(kind, seed=11 if kind != "killer" else 0)
    config = ExperimentConfig(GameConfig(n, horizon, 1.0, 1.0), AlgoSpec(algo, k), scenario, (3, 5, 8))
    for run in run_experiment(config).seed_runs:
        alone = run_experiment(replace(config, seeds=(run.seed,))).seed_runs[0]
        assert run.actions == alone.actions
        assert run.losses.tolist() == alone.losses.tolist()
        assert run.cumulative_loss == alone.cumulative_loss
        assert run.segment_starts == alone.segment_starts
        for state in ("scales", "cardinalities", "segments"):
            column, alone_column = getattr(run, state), getattr(alone, state)
            assert (column is None) == (alone_column is None)
            assert column is None or column.tolist() == alone_column.tolist()
        assert (run.surrogate_losses is None) == (alone.surrogate_losses is None)
        if run.surrogate_losses is not None:  # ftl-greedy reports none
            assert np.abs(run.surrogate_losses - alone.surrogate_losses).max() <= 1e-12


def _grid_rows(data, rows, n, top):
    """rows x n values on the grid {0, top/2, top}: ties within and across rows."""
    cells = st.lists(st.integers(0, 2), min_size=rows * n, max_size=rows * n)
    return np.array(data.draw(cells), dtype=float).reshape(rows, n) * top / 2.0


def _simplex_rows(data, rows, n):
    """rows points of the n-simplex with some exact zeros."""
    cells = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    w = np.array([data.draw(cells) for _ in range(rows)], dtype=float)
    return w / w.sum(axis=1, keepdims=True)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_surrogate_rows_equal_one_row_calls(data):
    rows, n = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 7))
    ups = np.array(data.draw(st.lists(st.integers(1, 5), min_size=rows, max_size=rows)))
    w = _simplex_rows(data, rows, n)
    repeated = data.draw(st.booleans())  # every row on the same costs
    opening = _grid_rows(data, 1 if repeated else rows, n, 1.0)
    connection = _grid_rows(data, 1 if repeated else rows, n, 2.0)
    if repeated:
        opening, connection = opening.repeat(rows, axis=0), connection.repeat(rows, axis=0)
    # a stable sort given, or the learners' own connection_order
    order = np.argsort(-connection, axis=1, kind="stable") if data.draw(st.booleans()) else None
    space = Workspace((rows, n))
    values, grads = surrogate_rows(*prepare_costs(opening, connection, space, order), w, ups, space)
    for r in range(rows):  # one row's (n,) views, as a one-row batch steps them
        one = Workspace((n,))
        costs = prepare_costs(opening[r], connection[r], one, None if order is None else order[r])
        value, grad = surrogate_rows(*costs, w[r], int(ups[r]), one)
        assert value == values[r]
        assert np.array_equal(grad, grads[r])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_row_of_a_batch_equals_a_batch_of_one(data):
    kind = data.draw(st.sampled_from(KINDS))
    n, rows = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 4))
    c_max, d_max = data.draw(st.sampled_from([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (2.0, 0.5)]))
    cfg = GameConfig(n, data.draw(st.sampled_from([2, 8, 60, 500])), c_max, d_max)
    k = None if kind == "fl" else data.draw(st.integers(1, n))
    batch = LearnerBatch(cfg, kind, rows, k)
    singles = [LearnerBatch(cfg, kind, 1, k) for _ in range(rows)]
    batch.w = _simplex_rows(data, rows, batch.cfg.n_sites)
    for r, single in enumerate(singles):
        single.w = batch.w[r : r + 1].copy()
    repeated = data.draw(st.booleans())  # every row on the same costs
    for trial in range(data.draw(st.integers(1, 4))):
        seeds = [1000 * trial + r for r in range(rows)]
        actions = batch.play([np.random.default_rng(seed) for seed in seeds])
        assert actions == [s.play([np.random.default_rng(seed)])[0] for s, seed in zip(singles, seeds)]
        opening, connection = _grid_rows(data, rows, n, c_max), _grid_rows(data, rows, n, d_max)
        if repeated:
            opening, connection = opening[[0] * rows], connection[[0] * rows]
        pairs = [CostPair(opening[r], connection[r]) for r in range(rows)]
        values = batch.update(CostRows(opening, connection))
        assert values == [s.update(cp)[0] for s, cp in zip(singles, pairs)]
        assert all(np.array_equal(batch.w[r], s.w[0]) for r, s in enumerate(singles))
        for r, s in enumerate(singles):
            for column, alone in zip(batch.state_rows(), s.state_rows()):
                assert (column is None) == (alone is None)
                assert column is None or column[r] == alone[0]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_weight_row_drawing_for_every_generator_equals_a_row_per_generator(data):
    kind = data.draw(st.sampled_from(KINDS))
    n, rows = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 4))
    c_max, d_max = data.draw(st.sampled_from([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (2.0, 0.5)]))
    cfg = GameConfig(n, data.draw(st.sampled_from([2, 8, 60, 500])), c_max, d_max)
    k = None if kind == "fl" else data.draw(st.integers(1, n))
    one, batch = LearnerBatch(cfg, kind, 1, k), LearnerBatch(cfg, kind, rows, k)
    one.w = _simplex_rows(data, 1, one.cfg.n_sites)
    if kind != "fl-fixed" and data.draw(st.booleans()):
        one.w = np.eye(one.cfg.n_sites)[-1:]  # every draw is a dummy: every action is {1}
    batch.w = np.repeat(one.w, rows, axis=0)
    if kind == "fl":  # a low threshold makes the rows restart within a few trials
        one.threshold_unit = batch.threshold_unit = one.threshold_unit * data.draw(st.sampled_from([1.0, 1e-3]))
    for trial in range(data.draw(st.integers(1, 6))):
        seeds = [1000 * trial + r for r in range(rows)]
        drawn = one.play([np.random.default_rng(seed) for seed in seeds])
        expected = batch.play([np.random.default_rng(seed) for seed in seeds])
        assert np.array_equal(drawn.ptr, expected.ptr) and np.array_equal(drawn.sites, expected.sites)
        costs = CostPair(*_grid_rows(data, 1, n, c_max), *_grid_rows(data, 1, n, d_max))
        if kind == "fl":
            accumulated, scale, segments = one.accumulated[0], one.scale[0], len(one.segment_starts[0])
        values = one.update(costs)
        repeated = CostRows(np.tile(costs.opening, (rows, 1)), np.tile(costs.connection, (rows, 1)))
        assert values * rows == batch.update(repeated)
        assert all(np.array_equal(one.w[0], row) for row in batch.w)
        for column, expected_column in zip(one.state_rows(), batch.state_rows()):
            assert (column is None) == (expected_column is None)
            assert column is None or (expected_column == column[0]).all()
        if kind == "fl":
            # the row restarts exactly when its segment total reaches the threshold as set now
            crossed = accumulated + values[0] >= scale * one.threshold_unit
            assert len(one.segment_starts[0]) == segments + crossed
            assert one.segment_starts * rows == batch.segment_starts


def test_a_threshold_lowered_after_construction_restarts_the_rows_within_a_few_trials():
    # the replay above lowers threshold_unit on a built learner to cross restarts
    cfg = GameConfig(4, 500, 1.0, 1.0)
    lowered, kept = LearnerBatch(cfg, "fl", 2), LearnerBatch(cfg, "fl", 2)
    lowered.threshold_unit *= 1e-3
    costs = CostRows(np.ones((2, 4)), np.ones((2, 4)))
    for trial in range(5):
        for learner in (lowered, kept):
            learner.play([np.random.default_rng(trial), np.random.default_rng(trial + 100)])
            learner.update(costs)
    assert all(len(starts) > 1 for starts in lowered.segment_starts)
    assert kept.segment_starts == [[1], [1]]


def test_an_all_dummy_row_plays_site_one_for_every_generator():
    one = LearnerBatch(GameConfig(3, 50, 1.0, 1.0), "fl-bounded", 1, 2)
    one.w = np.array([[0.0, 0.0, 0.0, 1.0]])
    actions = one.play([np.random.default_rng(seed) for seed in range(5)])
    assert [action.members for action in actions] == [(1,)] * 5


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("kind, k", [("fl-fixed", 2), ("fl-bounded", 2)])
def test_weights_on_one_real_site_play_it_for_every_generator(kind, k, rows):
    # every action draws what the action before it drew, and each still
    # keeps its first draw
    batch = LearnerBatch(GameConfig(3, 50, 1.0, 1.0), kind, rows, k)
    batch.w = np.eye(batch.cfg.n_sites)[[1] * rows]
    actions = batch.play([np.random.default_rng(seed) for seed in range(5 if rows == 1 else rows)])
    assert [action.members for action in actions] == [(2,)] * len(actions)


CORRUPTIONS = (np.nan, np.inf, -0.5)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("kind, k", [("fl-fixed", 2), ("fl-bounded", 2), ("fl", None)])
def test_a_corrupted_weight_row_ends_in_a_typed_error_by_the_next_play(kind, k, rows):
    # play's draw is the one check of the weights per trial: a bad entry
    # written before play is refused there, and one written between play
    # and update either fails the step's gates or is refused at the next
    # play; on the way, the surrogate's arithmetic on the bad row may warn
    # (0 * inf where a zero cost or a tied connection meets an inf weight),
    # which numpy does as a warning, not an error, outside this suite
    cfg = GameConfig(5, 50, 1.0, 1.0)
    costs = CostRows(np.full((rows, 5), 0.25), np.linspace(0.0, 1.0, 5 * rows).reshape(rows, 5))
    for bad in CORRUPTIONS:
        for site in (0, -1):  # a real site, and the last (outside fl-fixed the dummies' aggregate)
            before, between = LearnerBatch(cfg, kind, rows, k), LearnerBatch(cfg, kind, rows, k)
            for batch in (before, between):
                batch.play(UniformStreams(range(rows)))
                batch.update(costs)
            before.w[rows - 1, site] = bad
            with pytest.raises(InvalidDistributionError):
                before.play(UniformStreams(range(rows)))
            between.play(UniformStreams(range(rows)))
            between.w[rows - 1, site] = bad
            with np.errstate(invalid="ignore"), pytest.raises(
                (ContractViolationError, NumericError, InvalidDistributionError)
            ):
                between.update(costs)
                between.play(UniformStreams(range(rows)))
            if rows == 1:  # in blocks, `record` is the check, before the update reads the row
                recorded = LearnerBatch(cfg, kind, rows, k)
                assert recorded.record(1)
                recorded.update(costs)
                recorded.w[0, site] = bad
                with pytest.raises(InvalidDistributionError, match="at trial 2$"):
                    recorded.record(2)
    # entries whose cumulative sums would overflow or meet inf - inf: refused
    # before anything sums them, with no numpy warning first
    for bad in ((1e308, 1e308), (np.inf, -np.inf)):
        batch = LearnerBatch(cfg, kind, rows, k)
        batch.w[rows - 1] = 0.0
        batch.w[rows - 1, : len(bad)] = bad
        with pytest.raises(InvalidDistributionError):
            batch.play(UniformStreams(range(rows)))


@pytest.mark.parametrize("bad", [*((bad,) for bad in CORRUPTIONS), (1e308, 1e308), (np.inf, -np.inf)])
@pytest.mark.parametrize("kind, k", [("fl-fixed", 2), ("fl-bounded", 2), ("fl", None)])
def test_a_corrupted_recorded_row_ends_the_block_loop_in_an_error_naming_its_trial(kind, k, bad):
    # a weight row corrupted after trial 70's update, inside the second
    # block, is refused when trial 71 records it, before any arithmetic on
    # it can warn, its cumulative sums included (the suite turns
    # RuntimeWarning into an error)
    cfg = GameConfig(5, 150, 1.0, 1.0)
    learner = LearnerBatch(cfg, kind, 1, k)
    updated, update = [], learner.update

    def corrupting(costs):
        values = update(costs)
        updated.append(None)
        if len(updated) == 70:
            learner.w[0, -len(bad) :] = bad
        return values

    learner.update = corrupting
    with pytest.raises(InvalidDistributionError, match="at trial 71$"):
        trial_loop(learner, UniformStreams(range(3)), cfg.horizon, generate_scenario("iid", cfg, 2))


@pytest.mark.parametrize("block", [1, 7, PREFETCH_TRIALS])
@pytest.mark.parametrize("kind, k", [("fl-fixed", 2), ("fl-bounded", 2)])
def test_a_blocks_actions_are_each_actions_distinct_real_draws(kind, k, block):
    # the play sorts each action's own draws in place and keeps its distinct
    # real sites in order: a dummy draw (site N + 1) is stripped, and an
    # action that drew only the dummy plays {1}
    cfg, generators = GameConfig(6, 500, 1.0, 1.0), 20
    costs = generate_scenario("iid", cfg, 5)
    learner = LearnerBatch(cfg, kind, 1, k)
    for t in range(block - 1):
        assert learner.record(t + 1)
        learner.update(costs[t])
    assert learner.record(block)
    recorded = copy.deepcopy(learner._recorded)
    rows = recorded.draw(UniformStreams(range(generators))).tolist()
    expected = [tuple(sorted(set(row) - {cfg.n_sites + 1})) or (1,) for row in rows]
    actions = learner.play(UniformStreams(range(generators)))
    assert [action.members for action in actions] == expected
    if kind == "fl-bounded" and block == PREFETCH_TRIALS:  # the fallback ran
        assert any(set(row) == {cfg.n_sites + 1} for row in rows)


def test_recording_keeps_the_play_update_alternation_and_one_row():
    cfg = GameConfig(4, 50, 1.0, 1.0)
    one = LearnerBatch(cfg, "fl-bounded", 1, 2)
    assert one.record(1)
    with pytest.raises(ProtocolError):
        one.record(2)
    assert len(one.play([np.random.default_rng(1)])) == 1  # draws trial 1 and plays no new trial
    with pytest.raises(ProtocolError):
        one.record(2)
    one.update(CostPair(np.ones(4), np.ones(4)))
    assert one.record(2)
    with pytest.raises(ConfigError, match="one-row batch"):
        LearnerBatch(cfg, "fl-bounded", 2, 2).record(1)


@pytest.mark.parametrize(
    "make",
    [lambda cfg: LearnerBatch(cfg, "fl-bounded", 1, 2), lambda cfg: ExactHedge(cfg, 1), FollowTheLeaderGreedy],
    ids=["fl-bounded", "hedge-exact", "ftl-greedy"],
)
def test_a_scenario_shorter_than_the_horizon_is_refused_before_the_first_trial(make):
    # past its end a one-row batch would prepare an empty block and a
    # per-trial learner would index past the rows, after trials had run
    cfg = GameConfig(4, 10, 1.0, 1.0)
    learner, plays = make(cfg), []
    play = learner.play
    learner.play = lambda rngs: plays.append(None) or play(rngs)
    with pytest.raises(ConfigError, match="a scenario of 5 trials for a horizon of 10"):
        trial_loop(learner, UniformStreams(range(3)), cfg.horizon, generate_scenario("iid", replace(cfg, horizon=5), 1))
    assert not plays


FL_FAMILY = [("fl-fixed", 2), ("fl-bounded", 2), ("fl", None)]


def _per_trial(config: ExperimentConfig, costs: CostRows, threshold: float = 1.0):
    """The one-row learner of `config` through the per-trial loop (the
    scenario as a callable) and through blocks (the scenario as CostRows),
    with fl's threshold scaled by `threshold`: the two (values, states,
    actions, segment starts)."""
    out = []
    for shared in (lambda t, actions: costs[t], costs):
        learner = build_learner(config)
        if threshold != 1.0:
            learner.threshold_unit *= threshold
        _, values, states, actions = trial_loop(learner, UniformStreams(config.seeds), config.game.horizon, shared)
        out.append((values, states, actions, learner.segment_starts if learner.scale is not None else None))
    return out


@pytest.mark.parametrize("seeds", [1, 3, 20, 200])
@pytest.mark.parametrize("kind", ["iid", "drift", "replay"])
@pytest.mark.parametrize("algo, k", FL_FAMILY)
def test_blocks_of_recorded_trials_replay_the_per_trial_loop_bit_for_bit(algo, k, kind, seeds, tmp_path):
    cfg = GameConfig(6, 150, 1.0, 1.0)
    assert cfg.horizon % RecordedRows(7).cdf.shape[0]  # the last block is short
    path = None
    if kind == "replay":
        path = str(tmp_path / "trace.csv")
        save_trace(path, generate_scenario("drift", cfg, 4, 0.2))
    scenario = ScenarioSpec(kind, seed=4 if kind != "replay" else 0, path=path)
    config = ExperimentConfig(cfg, AlgoSpec(algo, k), scenario, tuple(range(seeds)))
    result = run_experiment(config)
    costs = result.scenario_costs
    (values, states, actions, starts), blocked = _per_trial(config, costs)
    assert all(np.array_equal(a.ptr, b.ptr) and np.array_equal(a.sites, b.sites) for a, b in zip(actions, blocked[2]))
    assert np.array_equal(values, blocked[0])
    assert all((a is None and b is None) or np.array_equal(a, b) for a, b in zip(states, blocked[1]))
    assert starts == blocked[3]
    for r, run in enumerate(result.seed_runs):  # the run's own columns, losses priced in one call
        assert run.actions == actions[r]
        assert run.losses.tobytes() == action_losses(costs, actions[r]).tobytes()
        assert run.surrogate_losses.tobytes() == values[:, 0].tobytes()
        for column, state in zip((run.scales, run.cardinalities, run.segments), states):
            assert (column is None) == (state is None)
            assert column is None or column.tolist() == state[:, 0].tolist()
        assert run.segment_starts == (None if starts is None else starts[0])


@pytest.mark.parametrize("seeds", [1, 3, 20])
def test_a_block_ends_where_a_restart_changes_the_draw_count(seeds):
    # a lowered threshold restarts the row within a few trials, as in the
    # replay of one row against a row per generator above
    cfg = GameConfig(6, 150, 1.0, 1.0)
    config = ExperimentConfig(cfg, AlgoSpec("fl"), ScenarioSpec("iid"), tuple(range(seeds)))
    costs = generate_scenario("iid", cfg, 8)
    (values, states, actions, starts), blocked = _per_trial(config, costs, threshold=1e-3)
    block = RecordedRows(7).cdf.shape[0]
    draws = states[1][:, 0]  # the cardinality each trial drew at
    changed = (np.flatnonzero(draws[1:] != draws[:-1]) + 1).tolist()
    assert any(t % block for t in changed)  # the count changed inside a block
    assert len(starts[0]) > len(changed) > 1
    assert all(np.array_equal(a.ptr, b.ptr) and np.array_equal(a.sites, b.sites) for a, b in zip(actions, blocked[2]))
    assert np.array_equal(values, blocked[0])
    assert all(np.array_equal(a, b) for a, b in zip(states, blocked[1]))
    assert starts == blocked[3]


def _run(learner, seeds, horizon, costs):
    """`learner` through `trial_loop`: its (values, states, actions), and
    its weights after the last trial."""
    _, values, states, actions = trial_loop(learner, UniformStreams(seeds), horizon, costs)
    return (values, states, actions), learner.w


def _same_runs(one, two) -> bool:
    """Two `_run` results equal bit for bit."""
    (values, states, actions), w = one
    (other_values, other_states, other_actions), other_w = two
    return (
        values.tobytes() == other_values.tobytes()
        and w.tobytes() == other_w.tobytes()
        and all((a is None and b is None) or np.array_equal(a, b) for a, b in zip(states, other_states))
        and all(np.array_equal(a.ptr, b.ptr) and np.array_equal(a.sites, b.sites) for a, b in zip(actions, other_actions))
    )


@pytest.mark.parametrize("algo, k", FL_FAMILY)
def test_prepared_blocks_of_tied_rows_from_2048_sites_replay_the_per_trial_loop_bit_for_bit(algo, k):
    # a prepared block sorts all its rows at once, through packed keys from
    # PACKED_SORT_MIN sites; inside the first block a row with one tie, a
    # quantized row and a row with a -0.0 cost fall back to argsort one by
    # one, and the horizon ends inside the third block
    cfg = GameConfig(PACKED_SORT_MIN, 70, 1.0, 1.0)
    scenario = generate_scenario("iid", cfg, 6)
    connection = scenario.connection.copy()
    connection[3, 10] = connection[3, 20]
    connection[8] = np.round(connection[8], 2)
    connection[12, 7] = -0.0
    costs = CostRows(scenario.opening, connection)
    capacity = RecordedRows(LearnerBatch(cfg, algo, 1, k).cfg.n_sites).capacity
    assert 12 < capacity < cfg.horizon / 2 and cfg.horizon % capacity
    per_trial = _run(LearnerBatch(cfg, algo, 1, k), (1, 2, 3), cfg.horizon, lambda t, actions: costs[t])
    assert _same_runs(per_trial, _run(LearnerBatch(cfg, algo, 1, k), (1, 2, 3), cfg.horizon, costs))


def test_one_row_blocks_across_restarts_equal_the_rows_of_a_batch_stepping_at_different_rates():
    # three one-row learners, each through prepared blocks of its own
    # scenario, against one three-row batch that steps them trial by trial:
    # a threshold lowered tenfold restarts every row, each at its own
    # trials, so the batch's rows step at different rates in one call while
    # each one-row learner restarts inside its prepared blocks
    cfg = GameConfig(6, 150, 1.0, 1.0)
    scenarios = [generate_scenario(kind, cfg, seed) for kind, seed in (("iid", 1), ("drift", 2), ("iid", 3))]
    opening = np.stack([scenario.opening for scenario in scenarios], axis=1)  # (T, rows, N)
    connection = np.stack([scenario.connection for scenario in scenarios], axis=1)
    seeds = (11, 12, 13)

    def lowered(rows):
        learner = LearnerBatch(cfg, "fl", rows)
        learner.threshold_unit *= 0.1
        return learner

    batch = lowered(3)
    (values, states, actions), w = _run(batch, seeds, cfg.horizon, lambda t, a: CostRows(opening[t], connection[t]))
    cardinality = states[1]
    assert any(len(set(row)) > 1 for row in cardinality.tolist())  # rates differ within one step
    capacity = RecordedRows(batch.cfg.n_sites).capacity
    for r, (scenario, seed) in enumerate(zip(scenarios, seeds)):
        single = lowered(1)
        alone = _run(single, (seed,), cfg.horizon, scenario)
        row = ((values[:, [r]], [state[:, [r]] for state in states], [actions[r]]), w[[r]])
        assert _same_runs(alone, row)
        assert single.segment_starts[0] == batch.segment_starts[r]
        assert any((start - 1) % capacity for start in single.segment_starts[0][1:])  # a restart inside a block


@pytest.mark.parametrize("kind", ["iid", "drift", "replay", "killer"])
@pytest.mark.parametrize("algo, k", ALGOS)
def test_a_shared_scenario_holds_one_weight_row_and_the_killer_one_per_seed(kind, algo, k):
    path = "trace.csv" if kind == "replay" else None  # the learner never reads it
    config = ExperimentConfig(
        GameConfig(6, 100, 1.0, 1.0), AlgoSpec(algo, k), ScenarioSpec(kind, path=path), (1, 2, 3, 4, 5)
    )
    learner = build_learner(config)
    rows = 5 if kind == "killer" and algo != "ftl-greedy" else 1  # ftl-greedy plays one action for all
    assert learner.rows == rows
    if algo in KINDS:
        n = learner.cfg.n_sites
        assert learner.w.shape == (rows, n)
        # per row: weights, the surrogate's 4-array workspace, the complex
        # search keys and outside fl-fixed the 2-array extended costs; once:
        # the starting weights
        per_row = 1 + 4 + 2 + (0 if algo == "fl-fixed" else 2)
        assert learner.state_nbytes == (per_row * rows + 1) * n * 8
    elif algo == "hedge-exact":
        assert learner.weights.shape == (rows, 63)
    assert len(learner.play(UniformStreams(config.seeds))) == 5


def test_seeds_sharing_a_weight_row_get_their_own_segment_lists():
    config = ExperimentConfig(GameConfig(4, 100, 1.0, 1.0), AlgoSpec("fl"), ScenarioSpec("iid", seed=2), (1, 2, 3))
    starts = [run.segment_starts for run in run_experiment(config).seed_runs]
    assert starts == [[1]] * 3
    starts[0].append(50)
    assert starts[1:] == [[1]] * 2


LEARNERS = {
    "fl": lambda cfg, rows: LearnerBatch(cfg, "fl", rows),
    "fl-fixed": lambda cfg, rows: LearnerBatch(cfg, "fl-fixed", rows, 1),
    "hedge-exact": ExactHedge,
}


def test_ftl_greedy_is_one_row_that_plays_for_every_generator():
    ftl = FollowTheLeaderGreedy(GameConfig(3, 10, 1.0, 1.0))
    with pytest.raises(ConfigError, match="0 generators for 1 rows"):
        ftl.play([])
    assert [action.members for action in ftl.play(UniformStreams((1, 2, 3)))] == [(1,)] * 3
    with pytest.raises(ConfigError, match="2 cost rows for 1 rows"):
        ftl.update(CostRows(np.ones((2, 3)), np.ones((2, 3))))
    ftl.play(UniformStreams((1, 2)))
    assert ftl.update(CostRows([[0.0, 0.0, 0.0]], [[0.9, 0.1, 0.5]])) is None
    assert [action.members for action in ftl.play(UniformStreams((1, 2)))] == [(2,)] * 2


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_a_batch_of_rows_takes_one_generator_per_row(name):
    batch = LEARNERS[name](GameConfig(3, 10, 1.0, 1.0), 3)
    for seeds in ((1,), (1, 2), (1, 2, 3, 4), ()):
        with pytest.raises(ConfigError, match=f"{len(seeds)} generators for 3 rows"):
            batch.play([np.random.default_rng(seed) for seed in seeds])
        with pytest.raises(ConfigError, match=f"{len(seeds)} generators for 3 rows"):
            batch.play(UniformStreams(seeds))
    assert len(batch.play(UniformStreams((1, 2, 3)))) == 3  # a refusal leaves play open
    with pytest.raises(ConfigError, match="0 generators for 1 rows"):
        LEARNERS[name](GameConfig(3, 10, 1.0, 1.0), 1).play([])


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_update_takes_one_cost_row_per_learner_row(name):
    cfg = GameConfig(3, 10, 1.0, 1.0)
    batch = LEARNERS[name](cfg, 2)
    rngs = [np.random.default_rng(seed) for seed in (1, 2)]
    pair = CostPair(np.ones(3), np.ones(3))
    for costs in (
        CostRows(np.ones((3, 3)), np.ones((3, 3))),  # three rows for two learners
        CostRows(np.ones((2, 4)), np.ones((2, 4))),  # four sites, not three
        CostPair(np.ones(4), np.ones(4)),
        pair,  # one pair for two rows
        [pair] * 2,  # rows come as CostRows
    ):
        batch.play(rngs)
        with pytest.raises(ConfigError):
            batch.update(costs)
    actions = batch.play(rngs)
    with pytest.raises(ConfigError, match="2 actions need a CostRows with one row each"):
        action_losses(pair, actions)  # nor are two actions priced on one pair
    assert len(batch.update(CostRows(np.ones((2, 3)), np.ones((2, 3))))) == 2
    one = LEARNERS[name](cfg, 1)  # a one-row learner reads a pair as its one row
    one.play(rngs[:1])
    assert len(one.update(pair)) == 1


def test_seeds_share_the_batch_timing_equally():
    config = ExperimentConfig(
        GameConfig(6, 200, 1.0, 1.0), AlgoSpec("fl-bounded", 2), ScenarioSpec("iid", seed=3), (1, 2, 3, 4)
    )
    start = time.perf_counter()
    runs = run_experiment(config).seed_runs
    elapsed = time.perf_counter() - start
    assert len({run.wall_time_s for run in runs}) == 1
    assert len({run.per_trial_median_ms for run in runs}) == 1
    # the seeds' shares sum to the loop's wall time, inside the whole run's
    assert 0.0 < sum(run.wall_time_s for run in runs) <= elapsed
    assert runs[0].per_trial_median_ms * 1e-3 * config.game.horizon <= runs[0].wall_time_s


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_batch_of_one_reads_exactly_its_draws_from_the_callers_generator(data):
    n = data.draw(st.integers(1, 6))
    cfg = GameConfig(n, data.draw(st.sampled_from([2, 60, 500])), 1.0, 1.0)
    kind = data.draw(st.sampled_from([FixedCardinalityLearner, BoundedCardinalityLearner, DoublingLearner]))
    learner = kind(cfg) if kind is DoublingLearner else kind(cfg, data.draw(st.integers(1, n)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    top = CostPair(np.ones(n), np.ones(n))  # the costliest trial, which drives fl to restart
    for _ in range(data.draw(st.integers(1, 6))):
        twin.random(learner.num_draws)
        learner.play(rng)
        assert rng.bit_generator.state == twin.bit_generator.state
        learner.update(top)


def test_per_trial_plays_refill_each_stream_once_per_prefetch(monkeypatch):
    # a per-trial play of one row is a recorded block of one trial, and
    # reads about PREFETCH_TRIALS trials' worth of uniforms per refill, as
    # a block of PREFETCH_TRIALS trials reads one block's worth
    refills, refill = [], UniformStreams._refill

    def counted(self, count, ahead):
        refills.append(ahead)
        refill(self, count, ahead)

    monkeypatch.setattr(UniformStreams, "_refill", counted)
    scenario = generate_scenario("iid", GameConfig(6, 500, 1.0, 1.0), 5)
    learner = LearnerBatch(GameConfig(6, 500, 1.0, 1.0), "fl-bounded", 1, 2)
    trial_loop(learner, UniformStreams(range(1, 21)), 200, lambda t, actions: scenario[t])
    assert 0 < len(refills) <= 200 // PREFETCH_TRIALS + 1


def _calls_per_trial(learner, rngs, costs_for, trials=200) -> float:
    """Python-level calls per trial (cProfile's total, which counts Python
    functions and the C functions and methods they call, not ufunc loops)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        trial_loop(learner, rngs, trials, costs_for)
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls / trials


# Python-level calls per trial at the two shapes below, as measured when
# each datum on a trial's path came to be checked once (77.985 and 63.52
# before; 81.985 and 64.52 before every learner, the surrogate and the
# killer source took learner rows only; 195.2 and 132.05 before a trial's
# numpy calls went straight to their ufunc loops and array methods); the
# budget is each plus 10%
KILLER_CALLS, SEEDS_CALLS = 67.005, 59.535
# the seeds workload's shape in blocks, as measured when every learner row
# came to be drawn through one class (28.61 before, when a block of narrow
# recorded rows came to be drawn by counting, not by one search per trial,
# each action's draws to be sorted and deduplicated as one row, and a
# recorded row to be checked as a 1-D view; 30.61 before that, when a
# shared scenario's costs came to be prepared per block and a one-row batch
# to step its row views; 44.29 before that; 44.465 when its trials came to
# be recorded and drawn per block, the draw and the preparation, one per
# block, spread over the block's trials)
BLOCK_CALLS = 28.6


def test_a_trial_stays_within_its_call_budget():
    """The killer workload's shape (fl, two rows at N=16, against the
    killer) and the seeds workload's (fl-bounded K=2, one row at N=6, 20
    prefetched generators), the latter per trial and in blocks (the
    scenario as CostRows), over 200 trials each."""
    source = KillerSource(16, False)
    killer = _calls_per_trial(LearnerBatch(GameConfig(16, 2000, 1.0, 1.0), "fl", 2), UniformStreams((1, 2)), source)
    scenario = generate_scenario("iid", GameConfig(6, 500, 1.0, 1.0), 5)
    seeds = _calls_per_trial(
        LearnerBatch(GameConfig(6, 500, 1.0, 1.0), "fl-bounded", 1, 2),
        UniformStreams(range(1, 21)),
        lambda t, actions: scenario[t],
    )
    blocks = _calls_per_trial(
        LearnerBatch(GameConfig(6, 500, 1.0, 1.0), "fl-bounded", 1, 2), UniformStreams(range(1, 21)), scenario
    )
    assert killer <= KILLER_CALLS * 1.1
    assert seeds <= SEEDS_CALLS * 1.1
    assert blocks <= BLOCK_CALLS * 1.1
