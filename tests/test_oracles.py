import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfl import (
    ActionRows,
    CapExceededError,
    ConfigError,
    CostPair,
    CostRows,
    ExactHedge,
    GameConfig,
    InvalidDistributionError,
    KillerSource,
    ProtocolError,
    SiteSet,
    best_fixed_subset,
    exact_expected_loss,
    facility_loss,
    ftl_greedy_play,
    generate_scenario,
)
from olfl.experiment import trial_loop
from olfl.learners import LearnerBatch
from olfl.oracles import CheapestSingleton, FollowTheLeaderGreedy
from olfl.sampler import UniformStreams
from olfl.verify import best_fixed_scan


def test_hedge_init():
    hedge = ExactHedge(GameConfig(2, 50, 1.0, 1.0))
    assert hedge.n_subsets == 3
    assert hedge.weights.shape == (1, 3)
    assert np.allclose(hedge.weights, 1.0 / 3.0)
    assert hedge.loss_scale == 3.0  # N*C + D
    assert hedge.learning_rate == pytest.approx(math.sqrt(8 * math.log(3) / 50), rel=1e-15)


def test_hedge_refuses_large_instances():
    with pytest.raises(CapExceededError):
        ExactHedge(GameConfig(17, 10, 1.0, 1.0))


def test_hedge_subset_losses_in_bitmask_order():
    hedge = ExactHedge(GameConfig(2, 10, 1.0, 1.0))
    losses = hedge.subset_losses(np.array([0.5, 0.2]), np.array([0.3, 0.9]))
    # masks 1,2,3 are {1}, {2}, {1,2}
    assert np.allclose(losses, [0.8, 1.1, 1.0])


def test_hedge_subset_losses_match_the_bit_matrix_formula():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8, 12):
        hedge = ExactHedge(GameConfig(n, 10, 1.0, 1.0))
        masks = np.arange(1, 1 << n)
        bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        for _ in range(3):
            costs = CostPair(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
            expected = bits @ costs.opening + np.where(bits > 0, costs.connection, np.inf).min(axis=1)
            assert np.abs(hedge.subset_losses(costs.opening, costs.connection) - expected).max() <= 1e-12


def test_hedge_play_single_site():
    hedge = ExactHedge(GameConfig(1, 10, 1.0, 1.0))
    assert hedge.play((np.random.default_rng(0),))[0].members == (1,)


def test_hedge_fresh_distribution_uniform():
    hedge = ExactHedge(GameConfig(2, 10, 1.0, 1.0))
    rng = np.random.default_rng(1)
    counts = {(1,): 0, (2,): 0, (1, 2): 0}
    costs = CostPair([0.0, 0.0], [0.0, 0.0])  # zero losses keep weights flat
    for _ in range(30_000):
        counts[hedge.play((rng,))[0].members] += 1
        hedge.update(costs)
    for c in counts.values():
        assert abs(c / 30_000 - 1 / 3) <= 0.01


def test_hedge_update_monotone_toward_the_winner():
    hedge = ExactHedge(GameConfig(2, 10, 1.0, 1.0))
    hedge.play((np.random.default_rng(2),))
    # {1} alone has zero loss
    hedge.update(CostPair([0.0, 0.5], [0.0, 0.5]))
    w = hedge.weights[0]
    assert w[0] > w[2] > w[1]


def test_hedge_exact_exponents():
    hedge = ExactHedge(GameConfig(2, 10, 1.0, 1.0))
    hedge.learning_rate = hedge.loss_scale  # makes the exponent exactly -loss
    hedge.play((np.random.default_rng(3),))
    hedge.update(CostPair([1.0, 0.0], [0.0, 0.0]))  # losses (1, 0, 1)
    expected = np.array([math.exp(-1.0), 1.0, math.exp(-1.0)])
    expected /= expected.sum()
    assert np.abs(hedge.weights[0] - expected).max() <= 1e-15


def test_hedge_concentrates():
    hedge = ExactHedge(GameConfig(2, 400, 1.0, 1.0))
    rng = np.random.default_rng(4)
    costs = CostPair([1.0, 0.0], [1.0, 0.0])  # {2} is free
    for _ in range(400):
        hedge.play((rng,))
        hedge.update(costs)
    hits = 0
    for _ in range(10_000):
        hits += hedge.play((rng,))[0].members == (2,)
        hedge.update(costs)
    assert hits / 10_000 >= 0.99


def test_hedge_update_returns_pre_update_expectation():
    hedge = ExactHedge(GameConfig(2, 10, 1.0, 1.0))
    costs = CostPair([0.5, 0.2], [0.3, 0.9])
    before = float(hedge.weights[0] @ hedge.subset_losses(costs.opening, costs.connection))
    hedge.play((np.random.default_rng(5),))
    assert hedge.update(costs)[0] == before


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize(
    "last_row",
    [[np.nan] * 7, [-0.5] * 7, [0.0] * 7, [np.inf] * 7, [1e308, 1e308] + [0.0] * 5],
    ids=["nan", "negative", "zero", "inf", "huge"],
)
def test_hedge_refuses_corrupted_weight_rows_before_reading_a_uniform(rows, last_row):
    # the suite turns a RuntimeWarning into an error, so a row that only
    # warns on its way through the draw fails here too
    hedge = ExactHedge(GameConfig(3, 10, 1.0, 1.0), rows)
    hedge.weights[-1] = last_row
    rngs = [np.random.default_rng(seed) for seed in range(rows)]
    states = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(InvalidDistributionError) as refused:
        hedge.play(rngs)
    assert ("in row 2" in str(refused.value)) == (rows == 2)
    assert [rng.bit_generator.state for rng in rngs] == states  # no uniform read


def test_hedge_alternation():
    hedge = ExactHedge(GameConfig(2, 10, 1.0, 1.0))
    with pytest.raises(ProtocolError):
        hedge.update(CostPair([0.1, 0.1], [0.1, 0.1]))
    hedge.play((np.random.default_rng(6),))
    with pytest.raises(ProtocolError):
        hedge.play((np.random.default_rng(6),))


def test_ftl_greedy_conventions():
    history = CostRows([[0.0, 0.0]], [[0.9, 0.1]])
    assert ftl_greedy_play(history).members == (2,)


def _slow_greedy(history, tol=1e-9):
    # independent per-subset resummation; ties and the strict-decrease stop
    # are judged with a tolerance so summation order cannot flip them
    n = history[0].n_sites

    def cum(members):
        s = SiteSet(tuple(sorted(members)))
        return math.fsum(facility_loss(cp, s) for cp in history)

    scores = [cum((i,)) for i in range(1, n + 1)]
    floor = min(scores)
    best = next(i for i in range(1, n + 1) if scores[i - 1] <= floor + tol)
    members = [best]
    obj = cum(tuple(members))
    while len(members) < n:
        scored = [(cum(tuple(members) + (i,)), i) for i in range(1, n + 1) if i not in members]
        floor = min(cost for cost, _ in scored)
        cost, site = next(pair for pair in scored if pair[0] <= floor + tol)
        if not cost < obj - tol:
            break
        members.append(site)
        obj = cost
    return tuple(sorted(members))


def test_ftl_greedy_matches_slow_reimplementation_on_killer_history():
    source = KillerSource(8, use_current_action=True)
    ftl = FollowTheLeaderGreedy(GameConfig(8, 60, 1.0, 1.0))
    actions = trial_loop(ftl, (np.random.default_rng(0),), 60, source)[3][0]
    history = source.realized(actions)
    for t, action in enumerate(actions):
        expected = (1,) if t == 0 else _slow_greedy(history[:t])
        assert action.members == expected


def _cheapest_singleton(history: CostRows) -> SiteSet:
    """The reference for CheapestSingleton: the site whose opening plus
    connection costs sum least over the history, the first of a tie."""
    return SiteSet((int(np.argmin(history.opening.sum(axis=0) + history.connection.sum(axis=0))) + 1,))


@pytest.mark.parametrize("scenario", ["iid", "killer"])
@pytest.mark.parametrize("n", [1, 2, 3, 16])
@pytest.mark.parametrize(
    "baseline, leader_of",
    [(FollowTheLeaderGreedy, ftl_greedy_play), (CheapestSingleton, _cheapest_singleton)],
    ids=["ftl-greedy", "cheapest-singleton"],
)
def test_ftl_greedy_running_sums_play_the_leader_of_every_prefix(baseline, leader_of, n, scenario):
    horizon = 400
    cfg = GameConfig(n, horizon, 1.0, 1.0)
    ftl = baseline(cfg)
    scenario_costs = generate_scenario("iid", cfg, 11) if scenario == "iid" else None
    source = KillerSource(n, True)
    opening, connection = np.empty((horizon, n)), np.empty((horizon, n))
    for t in range(horizon):
        action = ftl.play(UniformStreams((1, 2)))
        expected = leader_of(CostRows(opening[:t], connection[:t])) if t else SiteSet((1,))
        assert list(action) == [expected] * 2
        if scenario_costs is None:  # the killer prices the one action played
            costs = source.costs_for(t + 1, ActionRows.of([action[0]]))[0]
        else:
            costs = scenario_costs[t]
        opening[t], connection[t] = costs.opening, costs.connection
        ftl.update(costs)
        if n > 1:  # one column is summed pairwise, but its leader is always {1}
            assert np.array_equal(ftl._sums, [opening[: t + 1].sum(axis=0), connection[: t + 1].sum(axis=0)])


def test_cheapest_singleton():
    history = CostRows([[0.5, 0.1, 0.3], [0.4, 0.1, 0.5]], [[0.2, 0.6, 0.1], [0.3, 0.2, 0.2]])
    totals = [0.5 + 0.2 + 0.4 + 0.3, 0.1 + 0.6 + 0.1 + 0.2, 0.3 + 0.1 + 0.5 + 0.2]
    assert totals[1] == min(totals)
    assert _cheapest_singleton(history).members == (2,)
    baseline = CheapestSingleton(GameConfig(3, 2, 1.0, 1.0))
    for costs in history:
        baseline.play((np.random.default_rng(0),))
        baseline.update(costs)
    assert baseline.play((np.random.default_rng(0),))[0].members == (2,)


def test_best_fixed_tie_rules():
    # zero opening costs, tied connections: smallest index singleton wins
    history = CostRows([[0.0, 0.0]], [[0.4, 0.4]])
    subset, loss = best_fixed_subset(history)
    assert subset.members == (1,) and loss == pytest.approx(0.4)

    # equal cost at different cardinalities: smaller set wins
    history = CostRows([[0.25, 0.25]], [[0.5, 0.25]])
    # {1}: 0.75, {2}: 0.5, {1,2}: 0.75 -> {2}
    subset, loss = best_fixed_subset(history)
    assert subset.members == (2,) and loss == pytest.approx(0.5)


def test_best_fixed_worked_example():
    history = CostRows(np.tile([0.5, 0.01], (10, 1)), np.tile([0.0, 1.0], (10, 1)))
    subset, loss = best_fixed_subset(history)
    assert subset.members == (1,)
    assert loss == pytest.approx(5.0)


def test_best_fixed_matches_independent_scan():
    rng = np.random.default_rng(7)
    for _ in range(20):
        draws = rng.uniform(0, 1, (20, 2, 4))  # each trial's opening, then connection
        history = CostRows(draws[:, 0], draws[:, 1])
        subset, loss = best_fixed_subset(history)
        best = None
        for r in range(1, 5):
            for combo in itertools.combinations(range(1, 5), r):
                c = sum(facility_loss(cp, SiteSet(combo)) for cp in history)
                key = (c, len(combo), combo)
                if best is None or key < best:
                    best = key
        assert loss == pytest.approx(best[0], rel=1e-12)
        assert subset.members == best[2]


def _restrictions(rng, n):
    return [{}, {"max_card": int(rng.integers(1, n + 1))}, {"exact_card": int(rng.integers(1, n + 1))}]


def _history_with_repeats(rng, n, draw):
    pool = np.array([(draw(n), draw(n)) for _ in range(int(rng.integers(1, 6)))])  # (rows, 2, n)
    picks = pool[rng.integers(0, len(pool), int(rng.integers(1, 25)))]
    return CostRows(picks[:, 0], picks[:, 1])


def test_best_fixed_matches_reference_scan_exactly_on_grid_costs():
    rng = np.random.default_rng(12)
    grid = lambda n: rng.integers(0, 5, n) / 4.0  # noqa: E731 - multiples of 1/4, many ties
    for n in range(1, 11):
        for _ in range(6):
            history = _history_with_repeats(rng, n, grid)
            for restriction in _restrictions(rng, n):
                subset, loss = best_fixed_subset(history, **restriction)
                assert (subset.members, loss) == best_fixed_scan(history, **restriction)


def test_best_fixed_matches_reference_scan_on_uniform_costs():
    rng = np.random.default_rng(13)
    uniform = lambda n: rng.uniform(0, 1, n)  # noqa: E731
    for n in range(1, 11):
        for _ in range(4):
            history = _history_with_repeats(rng, n, uniform)
            for restriction in _restrictions(rng, n):
                subset, loss = best_fixed_subset(history, **restriction)
                members, ref_loss = best_fixed_scan(history, **restriction)
                assert subset.members == members
                assert loss == pytest.approx(ref_loss, rel=1e-12)


def _history_rows(data, n, draw_row):
    """A history of 1..30 trials drawn from a pool of up to 5 distinct rows,
    so rows repeat; all-zero rows come from the draws themselves."""
    pool = np.array([(draw_row(), draw_row()) for _ in range(data.draw(st.integers(1, 5)))])  # (rows, 2, n)
    picks = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))]
    return CostRows(picks[:, 0], picks[:, 1])


def _restriction(data, n):
    kind = data.draw(st.sampled_from(["none", "max_card", "exact_card"]))
    return {} if kind == "none" else {kind: data.draw(st.integers(1, n))}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_superset_sum_comparator_equals_the_scan_on_grid_costs(data):
    n = data.draw(st.integers(1, 10))
    grid = st.lists(st.integers(0, 4), min_size=n, max_size=n)  # multiples of 1/4: ties and zero rows
    history = _history_rows(data, n, lambda: np.array(data.draw(grid)) / 4.0)
    restriction = _restriction(data, n)
    subset, loss = best_fixed_subset(history, **restriction)
    assert (subset.members, loss) == best_fixed_scan(history, **restriction)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_superset_sum_comparator_matches_the_scan_on_uniform_costs(data):
    n = data.draw(st.integers(1, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    history = _history_rows(data, n, lambda: rng.uniform(0, 1, n))
    restriction = _restriction(data, n)
    subset, loss = best_fixed_subset(history, **restriction)
    members, scanned = best_fixed_scan(history, **restriction)
    assert subset.members == members
    assert loss == pytest.approx(scanned, rel=1e-12)


def test_best_fixed_structural_tie_prefers_the_smaller_set():
    # site 2 opens for free but is never the cheapest connection, so {1} and
    # {1, 2} tie exactly at every history length
    history = CostRows(
        np.tile([[0.5, 0.0, 0.25], [0.5, 0.0, 0.25]], (3, 1)), np.tile([[0.25, 1.0, 1.0], [0.0, 0.75, 1.0]], (3, 1))
    )
    for restriction in ({}, {"max_card": 2}):
        subset, loss = best_fixed_subset(history, **restriction)
        assert subset.members == (1,) and loss == 3.75
        assert (subset.members, loss) == best_fixed_scan(history, **restriction)


def test_best_fixed_bit_identical_on_a_killer_history():
    n, horizon = 16, 400
    learner = LearnerBatch(GameConfig(n, horizon, 1.0, 1.0), "fl", 1)
    source = KillerSource(n, use_current_action=False)
    rng = np.random.default_rng(14)
    actions = trial_loop(learner, (rng,), horizon, source)[3]
    history = source.realized(actions[0])
    assert len({row.tobytes() for row in history.connection}) < horizon  # repeated rows occur
    subset, loss = best_fixed_subset(history)
    assert (subset.members, loss) == best_fixed_scan(history)


def test_best_fixed_restricted_scan_above_the_site_cap():
    rng = np.random.default_rng(15)
    draws = rng.uniform(0, 1, (10, 2, 20))
    history = CostRows(draws[:, 0], draws[:, 1])
    subset, loss = best_fixed_subset(history, max_card=2)
    members, ref_loss = best_fixed_scan(history, max_card=2)
    assert subset.members == members and loss == ref_loss


def test_best_fixed_cardinality_restrictions():
    rng = np.random.default_rng(8)
    draws = rng.uniform(0, 1, (15, 2, 5))
    history = CostRows(draws[:, 0], draws[:, 1])
    s_max, l_max = best_fixed_subset(history, max_card=2)
    assert len(s_max) <= 2
    s_exact, l_exact = best_fixed_subset(history, exact_card=2)
    assert len(s_exact) == 2
    assert l_max <= l_exact + 1e-12
    with pytest.raises(ConfigError):
        best_fixed_subset(history, max_card=1, exact_card=1)
    with pytest.raises(ConfigError):
        best_fixed_subset(history, max_card=0)
    with pytest.raises(ConfigError):
        best_fixed_subset(history, exact_card=6)


def test_best_fixed_site_cap():
    history = CostRows(np.full((1, 17), 0.5), np.full((1, 17), 0.5))
    for comparator in (best_fixed_subset, best_fixed_scan):  # the scan refuses as the superset-sum pass does
        with pytest.raises(CapExceededError, match="17 sites exceeds brute-force cap 16"):
            comparator(history)
    subset, _ = best_fixed_subset(history, max_card=1)  # restricted scan is fine
    assert len(subset) == 1


def test_best_fixed_never_beaten_by_random_subsets():
    rng = np.random.default_rng(9)
    draws = rng.uniform(0, 1, (30, 2, 6))
    history = CostRows(draws[:, 0], draws[:, 1])
    _, best_loss = best_fixed_subset(history)
    for _ in range(1000):
        size = int(rng.integers(1, 7))
        members = tuple(sorted(rng.choice(6, size=size, replace=False) + 1))
        x = SiteSet(tuple(int(i) for i in members))
        assert sum(facility_loss(cp, x) for cp in history) >= best_loss - 1e-12


def test_exact_expected_loss_single_draw_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        p = rng.dirichlet(np.ones(n))
        costs = CostPair(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        expected = exact_expected_loss(p, 1, costs)
        assert expected == pytest.approx(float(p @ (costs.opening + costs.connection)), abs=1e-12)


def test_exact_expected_loss_worked_example():
    value = exact_expected_loss([0.5, 0.5], 1, CostPair([0.1, 0.2], [0.9, 0.3]))
    assert value == pytest.approx(0.75, abs=1e-15)


def test_exact_expected_loss_point_mass():
    costs = CostPair([0.3, 0.6, 0.1], [0.2, 0.9, 0.4])
    for ups in (1, 2, 3):
        assert exact_expected_loss([0.0, 1.0, 0.0], ups, costs) == pytest.approx(1.5, abs=1e-15)


def test_exact_expected_loss_guards():
    costs = CostPair(np.full(10, 0.5), np.full(10, 0.5))
    with pytest.raises(CapExceededError):
        exact_expected_loss(np.full(10, 0.1), 7, costs)  # 10^7 sequences
    with pytest.raises(ConfigError):
        exact_expected_loss([1.0], 0, CostPair([0.1], [0.1]))
    with pytest.raises(ConfigError):
        exact_expected_loss([0.5, 0.5], 2, CostPair([0.1], [0.1]))
