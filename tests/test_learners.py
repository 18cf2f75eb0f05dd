import math

import numpy as np
import pytest

from olfl import (
    ConfigError,
    CostPair,
    CostRows,
    DoublingLearner,
    GameConfig,
    LearnerBatch,
    ProtocolError,
    generate_scenario,
    half_log_ceil,
)
from olfl.sampler import UniformStreams


def test_half_log_ceil():
    assert half_log_ceil(100) == 3
    assert half_log_ceil(1) == 1  # floored, not 0
    assert half_log_ceil(7) == 1  # ln(7)/2 just under 1
    assert half_log_ceil(8) == 2


def test_fixed_init_example():
    lrn = LearnerBatch(GameConfig(4, 100, 1.0, 1.0), "fl-fixed", 1, 2)
    assert lrn.num_draws[0] == 6  # 2 * ceil(ln(100)/2)
    assert lrn.grad_bound[0] == 12.0  # (C + D) * num_draws
    assert np.allclose(lrn.weights[0], 0.25)


def test_fixed_init_rejects_bad_cardinality():
    cfg = GameConfig(4, 100, 1.0, 1.0)
    with pytest.raises(ConfigError):
        LearnerBatch(cfg, "fl-fixed", 1, 0)
    with pytest.raises(ConfigError):
        LearnerBatch(cfg, "fl-fixed", 1, 5)
    with pytest.raises(ConfigError, match="unknown learner kind 'fl-exact'"):
        LearnerBatch(cfg, "fl-exact", 1, 2)
    with pytest.raises(ConfigError, match="fl picks its own cardinality budget"):
        LearnerBatch(cfg, "fl", 1, 2)
    with pytest.raises(ConfigError, match="rows must be a positive integer, got 0"):
        LearnerBatch(cfg, "fl", 0)


def test_fixed_play_single_site():
    lrn = LearnerBatch(GameConfig(1, 50, 1.0, 1.0), "fl-fixed", 1, 1)
    rng = np.random.default_rng(0)
    assert lrn.play((rng,))[0].members == (1,)


def test_fixed_play_cardinality_cap():
    rng = np.random.default_rng(1)
    for n, t, k in ((5, 100, 2), (3, 1000, 3), (8, 30, 1)):
        lrn = LearnerBatch(GameConfig(n, t, 1.0, 1.0), "fl-fixed", 1, k)
        costs = CostPair(np.zeros(n), np.zeros(n))
        for _ in range(30):
            x = lrn.play((rng,))[0]
            assert 1 <= len(x) <= min(lrn.num_draws[0], n)
            assert all(1 <= i <= n for i in x)
            lrn.update(costs)


def test_fixed_pair_probability_from_uniform():
    # N=2 with two draws: both sites appear with probability 1/2
    cfg = GameConfig(2, 8, 1.0, 1.0)  # ceil(ln 8 / 2) = 2 draws at K=1
    rng = np.random.default_rng(2)
    hits = 0
    reps = 20_000
    for _ in range(reps):
        lrn = LearnerBatch(cfg, "fl-fixed", 1, 1)
        hits += len(lrn.play((rng,))[0]) == 2
    assert abs(hits / reps - 0.5) <= 0.02


def test_fixed_update_zero_costs():
    lrn = LearnerBatch(GameConfig(3, 100, 1.0, 1.0), "fl-fixed", 1, 1)
    rng = np.random.default_rng(3)
    lrn.play((rng,))
    lam = lrn.update(CostPair(np.zeros(3), np.zeros(3)))[0]
    assert lam == 0.0
    assert np.allclose(lrn.weights[0], 1.0 / 3.0)


def test_fixed_update_worked_surrogate_value():
    cfg = GameConfig(2, 8, 1.0, 1.0)  # two draws
    lrn = LearnerBatch(cfg, "fl-fixed", 1, 1)
    rng = np.random.default_rng(4)
    lrn.play((rng,))
    lam = lrn.update(CostPair([0.1, 0.2], [0.9, 0.3]))[0]
    assert lam == pytest.approx(0.75, abs=1e-15)


def test_fixed_update_rejects_wrong_size():
    lrn = LearnerBatch(GameConfig(3, 100, 1.0, 1.0), "fl-fixed", 1, 1)
    lrn.play((np.random.default_rng(5),))
    with pytest.raises(ConfigError):
        lrn.update(CostPair([0.1, 0.2], [0.3, 0.4]))


def test_fixed_concentrates_on_the_cheap_site():
    cfg = GameConfig(3, 200, 1.0, 1.0)
    lrn = LearnerBatch(cfg, "fl-fixed", 1, 1)
    rng = np.random.default_rng(6)
    costs = CostPair(np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    for _ in range(200):
        lrn.play((rng,))
        lrn.update(costs)
    assert lrn.weights[0][2] > 0.99
    # the horizon takes no more updates: the learned row draws the 2000 actions in one play
    hits = sum(action.members == (3,) for action in lrn.play([rng] * 2000))
    assert hits / 2000 >= 0.99


def test_fixed_tilts_toward_cheap_opening_under_uniform_connection():
    cfg = GameConfig(2, 100, 1.0, 1.0)
    lrn = LearnerBatch(cfg, "fl-fixed", 1, 1)
    rng = np.random.default_rng(7)
    costs = CostPair(np.array([0.9, 0.1]), np.array([0.5, 0.5]))
    for _ in range(50):
        lrn.play((rng,))
        lrn.update(costs)
    assert lrn.weights[0][1] > lrn.weights[0][0]


def test_play_update_alternation_enforced():
    lrn = LearnerBatch(GameConfig(2, 10, 1.0, 1.0), "fl-fixed", 1, 1)
    rng = np.random.default_rng(8)
    costs = CostPair([0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ProtocolError):
        lrn.update(costs)
    lrn.play((rng,))
    with pytest.raises(ProtocolError):
        lrn.play((rng,))
    lrn.update(costs)
    lrn.play((rng,))  # back in phase
    prepared = LearnerBatch(GameConfig(2, 10, 1.0, 1.0), "fl-fixed", 1, 1)
    block = prepared.prepare(CostRows([costs.opening], [costs.connection]), 0, 1)
    with pytest.raises(ProtocolError, match="update called before play"):
        prepared.update(block[0])  # a prepared trial's update, too, waits for its play


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("kind, k", [("fl-fixed", 2), ("fl-bounded", 2), ("fl", None)])
def test_a_learner_batch_refuses_an_update_past_its_horizon(kind, k, rows):
    # the step size and the fl threshold are tuned for T trials; a play
    # past T still draws, and its update is refused
    cfg = GameConfig(3, 4, 1.0, 1.0)
    costs = CostRows(np.ones((rows, 3)), np.ones((rows, 3)))
    batch = LearnerBatch(cfg, kind, rows, k)
    batch.play(UniformStreams(range(rows)))
    with pytest.raises(ConfigError):  # a refused update ends its trial uncounted
        batch.update(CostRows(np.ones((rows, 2)), np.ones((rows, 2))))
    for _ in range(cfg.horizon):
        batch.play(UniformStreams(range(rows)))
        batch.update(costs)
    assert len(batch.play(UniformStreams(range(rows)))) == rows
    with pytest.raises(ProtocolError, match="update past the horizon of 4 trials"):
        batch.update(costs)
    if rows == 1:  # a recorded trial's prepared row as well
        blocked = LearnerBatch(cfg, kind, 1, k)
        scenario = generate_scenario("iid", GameConfig(3, 5, 1.0, 1.0), 1)
        prepared = blocked.prepare(scenario, 0, 5)
        for t in range(cfg.horizon):
            assert blocked.record(t + 1)
            blocked.update(prepared[t])
        assert blocked.record(cfg.horizon + 1)
        with pytest.raises(ProtocolError, match="update past the horizon of 4 trials"):
            blocked.update(prepared[cfg.horizon])


class _Uniforms:
    """Stub generator handing out the given uniforms in order."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size):
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


def test_bounded_play_strips_dummy_draws():
    # N=2 with two draws at K=1: the starting weights 1/4, 1/4 and 1/2 on the
    # aggregate dummy put the cumulative masses at 0.25, 0.5 and 1
    cfg = GameConfig(2, 8, 1.0, 1.0)
    cases = (((0.9, 0.8), (1,)), ((0.3, 0.9), (2,)), ((0.1, 0.3), (1, 2)))  # all dummy, mixed, all real
    for uniforms, members in cases:
        assert LearnerBatch(cfg, "fl-bounded", 1, 1).play((_Uniforms(*uniforms),))[0].members == members
    batch = LearnerBatch(cfg, "fl-bounded", 3, 1)
    actions = batch.play([_Uniforms(*uniforms) for uniforms, _ in cases])
    assert [a.members for a in actions] == [members for _, members in cases]


def test_bounded_learner_shape():
    cfg = GameConfig(3, 100, 1.0, 0.5)
    lrn = LearnerBatch(cfg, "fl-bounded", 1, 2)
    assert lrn.weights[0].size == 6  # real sites, then the N dummies' equal shares
    # the dummies are held as one aggregate site: 4 columns each in the
    # weights, the starting weights, the surrogate's 4-array workspace, the
    # complex search keys and the 2-array extended costs
    assert lrn.state_nbytes == (1 + 1 + 4 + 2 + 2) * 4 * 8
    assert lrn.num_draws[0] == 2 * half_log_ceil(100)
    # inner connection bound is C + D
    assert lrn.cfg.connection_max == 1.5
    with pytest.raises(ConfigError):
        LearnerBatch(cfg, "fl-bounded", 1, 4)


def test_bounded_play_stays_on_real_sites():
    cfg = GameConfig(3, 100, 1.0, 1.0)
    lrn = LearnerBatch(cfg, "fl-bounded", 1, 2)
    rng = np.random.default_rng(9)
    costs = CostPair(np.array([0.5, 0.1, 0.9]), np.array([0.2, 0.8, 0.4]))
    for _ in range(100):
        x = lrn.play((rng,))[0]
        assert len(x) >= 1
        assert all(1 <= i <= 3 for i in x)
        lrn.update(costs)


def test_bounded_update_returns_extended_surrogate_value():
    cfg = GameConfig(2, 8, 1.0, 1.0)
    lrn = LearnerBatch(cfg, "fl-bounded", 1, 1)
    rng = np.random.default_rng(10)
    lrn.play((rng,))
    lam = lrn.update(CostPair([0.1, 0.2], [0.9, 0.3]))[0]
    # same value computed from the extended instance by hand
    from olfl import SurrogateInstance, value_and_gradient

    inst = SurrogateInstance.from_costs(
        CostPair([0.1, 0.2, 0.0, 0.0], [0.9, 0.3, 2.0, 2.0]), int(lrn.num_draws[0])
    )
    expected, _ = value_and_gradient(inst, np.full(4, 0.25))
    assert lam == pytest.approx(expected, rel=1e-15)


def test_doubling_init_examples():
    cfg = GameConfig(4, 100, 1.0, 1.0)
    lrn, core = DoublingLearner(cfg), LearnerBatch(cfg, "fl", 1)
    assert core.slope == 18.0  # ceil(ln 100 / 2) * (4C + 2D)
    assert core.base == 2.0
    assert lrn.scale == 1
    assert lrn.cardinality_budget == 1
    assert lrn.segment_starts == [1]
    assert lrn.state_nbytes == core.state_nbytes
    assert core.threshold_unit == pytest.approx(
        2.0 * 20.0 * math.sqrt(math.log(8) * 100), rel=1e-12
    )

    frugal = LearnerBatch(GameConfig(2, 7, 0.0, 1.0), "fl", 1)
    assert frugal.slope == 2.0
    assert frugal.base == 1.0
    assert frugal.cardinality.tolist() == [1]


def test_doubling_budget_formula():
    core = LearnerBatch(GameConfig(4, 100, 1.0, 1.0), "fl", 1)
    # ceil((2*20 - 2)/18); exactly 1, no float dust; clamped to N
    assert core.budget_for(np.array([2, 1, 64])).tolist() == [3, 1, 4]


def test_doubling_zero_real_costs_accumulate_only_the_dummy_term():
    # zero real costs still price the dummy sites at d = C + D in the
    # accumulated surrogate, so lambda > 0; at this horizon the total stays
    # far below the first threshold and the scale never doubles
    from olfl import SurrogateInstance, value_and_gradient

    lrn = DoublingLearner(GameConfig(3, 100, 1.0, 1.0))
    rng = np.random.default_rng(11)
    costs = CostPair(np.zeros(3), np.zeros(3))
    extended = CostPair(np.zeros(6), np.array([0.0, 0.0, 0.0, 2.0, 2.0, 2.0]))
    for _ in range(100):
        w_before = lrn.weights.copy()
        lrn.play(rng)
        lam = lrn.update(costs)
        inst = SurrogateInstance.from_costs(extended, lrn.num_draws)
        expected, _ = value_and_gradient(inst, w_before)
        assert lam == pytest.approx(expected, rel=1e-12)
    assert lrn.scale == 1
    assert lrn.segment_starts == [1]


def test_doubling_single_site():
    lrn = DoublingLearner(GameConfig(1, 50, 1.0, 1.0))
    rng = np.random.default_rng(12)
    for _ in range(10):
        assert lrn.play(rng).members == (1,)
        lrn.update(CostPair([0.5], [0.5]))


def test_doubling_refuses_an_update_past_its_horizon():
    lrn = DoublingLearner(GameConfig(2, 3, 1.0, 1.0))
    rng = np.random.default_rng(14)
    costs = CostPair([0.5, 0.5], [0.5, 0.5])
    for _ in range(3):
        lrn.play(rng)
        lrn.update(costs)
    lrn.play(rng)
    with pytest.raises(ProtocolError, match="update past the horizon of 3 trials"):
        lrn.update(costs)


def test_doubling_restart_resets_inner_state():
    # worst-case constant costs force one crossing inside this horizon
    cfg = GameConfig(2, 1500, 1.0, 1.0)
    lrn = DoublingLearner(cfg)
    rng = np.random.default_rng(13)
    costs = CostPair(np.ones(2), np.ones(2))
    scales = []
    for t in range(1, cfg.horizon + 1):
        lrn.play(rng)
        lrn.update(costs)
        scales.append(lrn.scale)
        if len(lrn.segment_starts) == 2 and lrn.segment_starts[-1] == t + 1:
            assert np.allclose(lrn.weights, 0.25)  # fresh uniform over 2N sites
            assert lrn.accumulated == 0.0
    assert lrn.scale >= 2
    assert all(b >= a for a, b in zip(scales, scales[1:]))  # nondecreasing
    assert lrn.segment_starts[0] == 1 and len(lrn.segment_starts) >= 2


class _ExplicitTwins:
    """Reference bounded learner: the fixed learner on 2N explicit sites, the
    N dummy twins priced one by one (opening 0, connection C + D)."""

    def __init__(self, cfg, max_cardinality):
        n, d = cfg.n_sites, cfg.opening_max + cfg.connection_max
        self.n, self.dummy = n, d
        self.inner = LearnerBatch(
            GameConfig(2 * n, cfg.horizon, cfg.opening_max, d), "fl-fixed", 1, max_cardinality
        )

    def step(self, costs, rng):
        self.inner.play((rng,))
        return self.inner.update(
            CostPair(
                np.concatenate([costs.opening, np.zeros(self.n)]),
                np.concatenate([costs.connection, np.full(self.n, self.dummy)]),
            )
        )[0]


def _tied_cost_sequence(rng, cfg, trials):
    # costs on a coarse grid of the full ranges: ties among real sites, and
    # real connections equal to the dummies' C + D whenever C = 0
    c, d = cfg.opening_max, cfg.connection_max
    return [
        CostPair(
            c * rng.integers(0, 3, cfg.n_sites) / 2.0,
            d * rng.integers(0, 3, cfg.n_sites) / 2.0,
        )
        for _ in range(trials)
    ]


EQUIVALENCE_CASES = [
    (n, c, d)
    for n in (5, 6, 16, 64)
    for c, d in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (2.0, 0.5))
]


@pytest.mark.parametrize("n, c_max, d_max", EQUIVALENCE_CASES)
def test_aggregate_dummy_matches_explicit_twins(n, c_max, d_max):
    # weights depend only on the costs, so the collapsed learners must track
    # the explicit 2N-site reference to float dust whatever their draws
    cfg = GameConfig(n, 300, c_max, d_max)
    seq = _tied_cost_sequence(np.random.default_rng(1000 + n), cfg, cfg.horizon)
    for k in sorted({1, 3, n}):
        lrn = LearnerBatch(cfg, "fl-bounded", 1, k)
        ref = _ExplicitTwins(cfg, k)
        play_rng, ref_rng = np.random.default_rng(1), np.random.default_rng(2)
        for costs in seq:
            lrn.play((play_rng,))
            assert lrn.update(costs)[0] == pytest.approx(ref.step(costs, ref_rng), rel=0, abs=1e-12)
            assert np.abs(lrn.weights[0] - ref.inner.weights[0]).max() <= 1e-12


@pytest.mark.parametrize("n, c_max, d_max", EQUIVALENCE_CASES)
def test_doubling_on_aggregate_dummy_matches_explicit_twins(n, c_max, d_max):
    # every set loses at least C + D under costs at their bounds, so a long
    # run of them crosses the first threshold at this horizon in every case;
    # tied grid costs follow. Restarts must land on the same trials.
    cfg = GameConfig(n, 10_000, c_max, d_max)
    top = CostPair(np.full(n, c_max), np.full(n, d_max))
    seq = [top] * 9400 + _tied_cost_sequence(np.random.default_rng(2000 + n), cfg, 600)
    h = half_log_ceil(cfg.horizon)
    a = h * (4.0 * c_max + 2.0 * d_max)
    b = c_max + d_max
    unit = 2.0 * (a + b) * math.sqrt(math.log(2 * n) * cfg.horizon)
    lrn = DoublingLearner(cfg)
    ref, scale, accumulated, starts = _ExplicitTwins(cfg, 1), 1, 0.0, [1]
    play_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(4)
    for t, costs in enumerate(seq, start=1):
        lrn.play(play_rng)
        value = ref.step(costs, ref_rng)
        assert lrn.update(costs) == pytest.approx(value, rel=0, abs=1e-12)
        accumulated += value
        if accumulated >= scale * unit:
            scale, accumulated = 2 * scale, 0.0
            starts.append(t + 1)
            ref = _ExplicitTwins(cfg, min(n, math.ceil(scale + (scale - 1) * b / a)))
        assert np.abs(lrn.weights - ref.inner.weights[0]).max() <= 1e-12
    assert len(starts) >= 2
    assert lrn.segment_starts == starts
