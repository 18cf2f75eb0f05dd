"""Seeded regression pins, batch-versus-alone equivalence of the learners,
and one weight row drawing for many generators against a row per generator.

The pins hold the first 40 actions and surrogate losses of two seeded runs,
recorded before the learners ran as one seed-batched core: the core must
replay the actions exactly and the losses to 1e-12.
"""
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfl import AlgoSpec, ConfigError, CostPair, CostRows, ExperimentConfig, GameConfig, ScenarioSpec, run_experiment
from olfl.experiment import build_learner
from olfl.learners import KINDS, BoundedCardinalityLearner, DoublingLearner, FixedCardinalityLearner, LearnerBatch
from olfl.oracles import ExactHedge, FollowTheLeaderGreedy
from olfl.sampler import UniformStreams
from olfl.surrogate import surrogate_rows

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
    config = ExperimentConfig(
        GameConfig(n, horizon, 1.0, 1.0), AlgoSpec(algo, k), ScenarioSpec(kind, seed=11), (3, 5, 8)
    )
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
    shared = data.draw(st.booleans())
    opening = _grid_rows(data, 1 if shared else rows, n, 1.0)
    connection = _grid_rows(data, 1 if shared else rows, n, 2.0)
    if shared:
        opening, connection = opening[0], connection[0]
    order = np.argsort(-connection, axis=-1)
    values, grads = surrogate_rows(opening, connection, order, w, ups)
    for r in range(rows):
        pick = (lambda a: a) if shared else (lambda a: a[r])
        value, grad = surrogate_rows(pick(opening), pick(connection), pick(order), w[r : r + 1], ups[r : r + 1])
        assert value[0] == values[r]
        assert np.array_equal(grad[0], grads[r])


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
    shared = data.draw(st.booleans())
    for trial in range(data.draw(st.integers(1, 4))):
        seeds = [1000 * trial + r for r in range(rows)]
        actions = batch.play([np.random.default_rng(seed) for seed in seeds])
        assert actions == [s.play([np.random.default_rng(seed)])[0] for s, seed in zip(singles, seeds)]
        opening, connection = _grid_rows(data, rows, n, c_max), _grid_rows(data, rows, n, d_max)
        pairs = [CostPair(opening[0 if shared else r], connection[0 if shared else r]) for r in range(rows)]
        values = batch.update(pairs[0] if shared else CostRows(opening, connection))
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
        assert one.update(costs) * rows == batch.update(costs)
        assert all(np.array_equal(one.w[0], row) for row in batch.w)
        for column, expected_column in zip(one.state_rows(), batch.state_rows()):
            assert (column is None) == (expected_column is None)
            assert column is None or (expected_column == column[0]).all()
        if kind == "fl":
            assert one.segment_starts * rows == batch.segment_starts


def test_an_all_dummy_row_plays_site_one_for_every_generator():
    one = LearnerBatch(GameConfig(3, 50, 1.0, 1.0), "fl-bounded", 1, 2)
    one.w = np.array([[0.0, 0.0, 0.0, 1.0]])
    actions = one.play([np.random.default_rng(seed) for seed in range(5)])
    assert [action.members for action in actions] == [(1,)] * 5


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
        assert learner.w.shape == (rows, learner.cfg.n_sites)
        assert learner.state_nbytes == rows * learner.cfg.n_sites * 8
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
def test_update_takes_a_shared_pair_or_one_cost_row_per_learner_row(name):
    batch = LEARNERS[name](GameConfig(3, 10, 1.0, 1.0), 2)
    rngs = [np.random.default_rng(seed) for seed in (1, 2)]
    for costs in (
        CostRows(np.ones((3, 3)), np.ones((3, 3))),  # three rows for two learners
        CostRows(np.ones((2, 4)), np.ones((2, 4))),  # four sites, not three
        CostPair(np.ones(4), np.ones(4)),
        [CostPair(np.ones(3), np.ones(3))] * 2,  # rows come as CostRows
    ):
        batch.play(rngs)
        with pytest.raises(ConfigError):
            batch.update(costs)
    batch.play(rngs)
    assert len(batch.update(CostRows(np.ones((2, 3)), np.ones((2, 3))))) == 2


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
