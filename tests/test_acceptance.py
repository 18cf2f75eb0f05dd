"""Full-scale acceptance checks, one pass/fail line per guarantee.

Run `pytest tests/test_acceptance.py -v` to see the lines individually.
Everything stochastic is seeded; the whole file finishes in a few minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from olfl import (
    AlgoSpec,
    CostPair,
    DoublingLearner,
    ExactHedge,
    ExperimentConfig,
    ExponentiatedGradient,
    GameConfig,
    KillerSource,
    ScenarioSpec,
    SurrogateInstance,
    best_fixed_subset,
    draw_sites,
    exact_expected_loss,
    facility_loss,
    ftl_greedy_play,
    generate_scenario,
    half_log_ceil,
    run_experiment,
    value_and_gradient,
)
from olfl.bench import bench_per_trial
from olfl.verify import (
    finite_difference_gradient,
    random_surrogate_instance,
    run_deterministic_against_killer,
    surrogate_value_direct,
)


def _seed_ci_upper(values):
    """Upper end of the two-sided 95% t interval for the mean."""
    values = np.asarray(values, dtype=float)
    half = stats.t.ppf(0.975, values.size - 1) * values.std(ddof=1) / math.sqrt(values.size)
    return float(values.mean() + half)


def test_surrogate_value_and_gradient_match_references_at_scale():
    # 500 random instances, up to 50 sites and 200 draws; the closed form
    # must agree with the quadratic-time direct sum to 1e-10 relative and
    # with central differences coordinate-wise, all inside 10 seconds
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(500):
        inst, w = random_surrogate_instance(rng, max_sites=50, max_draws=200)
        value, grad = value_and_gradient(inst, w)
        direct = surrogate_value_direct(inst.opening, inst.connection, inst.num_draws, w)
        assert value == pytest.approx(direct, rel=1e-10, abs=0.0)
        fd = finite_difference_gradient(inst.opening, inst.connection, inst.num_draws, w)
        assert np.all(np.abs(grad - fd) <= np.maximum(1e-6, 1e-4 * np.abs(grad)))
    assert time.perf_counter() - start < 10.0


def test_single_draw_value_equals_expected_loss_of_one_sample():
    # with one draw the surrogate is exactly c.w + d.w
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        opening = rng.uniform(0.0, 5.0, n)
        connection = rng.uniform(0.0, 5.0, n)
        w = rng.dirichlet(np.ones(n))
        inst = SurrogateInstance.from_costs(CostPair(opening, connection), 1)
        value, _ = value_and_gradient(inst, w)
        assert value == pytest.approx(float(opening @ w + connection @ w), abs=1e-12)


def test_sampler_frequencies_pass_chi_square_at_scale():
    # one million draws per size, including zero-mass sites that must never
    # come out; chi-square at significance 1e-3 on the support
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    draws = 1_000_000
    for n, zero_count in ((3, 1), (16, 4), (1000, 100)):
        p = rng.uniform(0.5, 1.5, n)
        zero_sites = rng.choice(n, size=zero_count, replace=False)
        p[zero_sites] = 0.0
        p /= p.sum()
        sample = draw_sites(p, draws, rng)
        counts = np.bincount(sample - 1, minlength=n)
        assert counts[zero_sites].sum() == 0
        support = p > 0
        _, pvalue = stats.chisquare(counts[support], draws * p[support])
        assert pvalue >= 1e-3
    assert time.perf_counter() - start < 30.0


def test_surrogate_upper_bounds_exact_expected_loss():
    # 200 small instances checked against full enumeration of ordered draws;
    # the bound is an identity when only one site is drawn
    rng = np.random.default_rng(404)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        draws = int(rng.integers(1, 4))
        costs = CostPair(rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n))
        w = rng.dirichlet(np.ones(n))
        value, _ = value_and_gradient(SurrogateInstance.from_costs(costs, draws), w)
        exact = exact_expected_loss(w, draws, costs)
        assert exact <= value + 1e-9
        if draws == 1:
            assert exact == pytest.approx(value, abs=1e-12)


def _eg_regret_slack(n, horizon, grad_bound, grad_fn):
    eg = ExponentiatedGradient(n, grad_bound, horizon)
    corner_totals = np.zeros(n)
    learner_total = 0.0
    for t in range(horizon):
        w = eg.play()
        g = grad_fn(t, w)
        learner_total += eg.update(float(g @ w), g)
        corner_totals += g
    bound = grad_bound * math.sqrt(2.0 * math.log(n) / horizon)
    return learner_total / horizon - (corner_totals.min() / horizon + bound)


def test_eg_average_loss_beats_every_corner_plus_closed_form_bound():
    rng = np.random.default_rng(505)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        horizon = int(rng.integers(50, 2001))
        grad_bound = float(rng.uniform(0.5, 3.0))
        seq = rng.uniform(0.0, grad_bound, size=(horizon, n))
        assert _eg_regret_slack(n, horizon, grad_bound, lambda t, w: seq[t]) <= 1e-9
    # adversarial shapes: alternation, a dominated constant, a mid-run
    # switch, a gradient that chases the current favorite, and exact ties
    handcrafted = [
        (2, 2000, 1.0, lambda t, w: np.array([1.0, 0.0]) if t % 2 == 0 else np.array([0.0, 1.0])),
        (4, 1500, 2.0, lambda t, w: np.array([2.0, 0.0, 1.0, 1.0])),
        (2, 2000, 1.0, lambda t, w: np.array([1.0, 0.0]) if t < 1000 else np.array([0.0, 1.0])),
        (8, 2000, 1.0, lambda t, w: np.eye(8)[int(np.argmax(w))]),
        (3, 500, 1.5, lambda t, w: np.full(3, 1.5)),
    ]
    for n, horizon, grad_bound, fn in handcrafted:
        assert _eg_regret_slack(n, horizon, grad_bound, fn) <= 1e-9


def test_fixed_cardinality_bound_holds_over_two_hundred_seeds():
    # N=6, T=500, K in {1,2,3}, shared iid scenario; the 95% CI upper end of
    # the cumulative loss must sit under h * (best subset of exactly K)
    # plus the closed-form penalty, within two minutes
    start = time.perf_counter()
    cfg = GameConfig(6, 500, 1.0, 1.0)
    scenario_costs = generate_scenario("iid", cfg, seed=97)
    h = half_log_ceil(cfg.horizon)
    for k in (1, 2, 3):
        config = ExperimentConfig(
            cfg, AlgoSpec("fl-fixed", k), ScenarioSpec("iid", seed=97), tuple(range(1, 201))
        )
        result = run_experiment(config)
        upper = _seed_ci_upper([run.cumulative_loss for run in result.seed_runs])
        _, comparator = best_fixed_subset(scenario_costs, exact_card=k)
        penalty = (2 * k * 2.0 * h + 1.0) * math.sqrt(math.log(6) * 500)
        assert upper <= h * comparator + penalty
    assert time.perf_counter() - start < 120.0


def test_bounded_cardinality_bound_holds_over_two_hundred_seeds():
    # same setup, comparator ranges over all subsets of at most K sites and
    # the penalty carries the dummy-extended constants
    start = time.perf_counter()
    cfg = GameConfig(6, 500, 1.0, 1.0)
    scenario_costs = generate_scenario("iid", cfg, seed=97)
    h = half_log_ceil(cfg.horizon)
    for k in (1, 2, 3):
        config = ExperimentConfig(
            cfg, AlgoSpec("fl-bounded", k), ScenarioSpec("iid", seed=97), tuple(range(1, 201))
        )
        result = run_experiment(config)
        upper = _seed_ci_upper([run.cumulative_loss for run in result.seed_runs])
        _, comparator = best_fixed_subset(scenario_costs, max_card=k)
        penalty = (2 * k * 3.0 * h + 2.0) * math.sqrt(math.log(12) * 500)
        assert upper <= h * comparator + penalty
    assert time.perf_counter() - start < 120.0


def test_doubling_restarts_exactly_at_threshold_crossings():
    # all-ones costs force at least two restarts over 14000 trials; each
    # restart must land exactly where the accumulated surrogate crosses the
    # segment threshold, double the scale, re-derive the budget from the
    # affine map, and reset the weights to uniform
    cfg = GameConfig(2, 14000, 1.0, 1.0)
    h = half_log_ceil(cfg.horizon)
    a = h * (4.0 * cfg.opening_max + 2.0 * cfg.connection_max)
    b = cfg.opening_max + cfg.connection_max
    unit = 2.0 * (a + b) * math.sqrt(math.log(2 * cfg.n_sites) * cfg.horizon)
    lrn = DoublingLearner(cfg)
    rng = np.random.default_rng(808)
    costs = CostPair(np.ones(2), np.ones(2))
    restarts = []
    for t in range(1, cfg.horizon + 1):
        scale_before = lrn.scale
        acc_before = lrn.accumulated
        lrn.play(rng)
        lam = lrn.update(costs)
        crossed = acc_before + lam >= scale_before * unit
        assert crossed == (lrn.scale != scale_before)
        if crossed:
            restarts.append(t)
            assert lrn.scale == 2 * scale_before
            expected_budget = min(cfg.n_sites, math.ceil((lrn.scale * (a + b) - b) / a))
            assert lrn.cardinality_budget == expected_budget
            assert lrn.weights.size == 2 * cfg.n_sites
            assert np.allclose(lrn.weights, 1.0 / (2 * cfg.n_sites))
            assert lrn.accumulated == 0.0
    assert len(restarts) >= 2
    assert lrn.segment_starts == [1] + [t + 1 for t in restarts]


def test_killer_sequence_separates_randomized_from_deterministic():
    # the adaptive sequence pins any deterministic follow-the-leader at
    # average loss 1 while some singleton stays at 0.5 or less in hindsight;
    # the randomized doubling learner averages strictly below 1 with a 95%
    # CI that excludes 1
    avg_ftl, history, _ = run_deterministic_against_killer(ftl_greedy_play, 16, 2000)
    assert avg_ftl >= 1.0
    _, singleton_loss = best_fixed_subset(history, max_card=1)
    assert singleton_loss <= 0.5 * 2000
    per_seed = []
    for seed in range(1, 101):
        lrn = DoublingLearner(GameConfig(16, 2000, 1.0, 1.0))
        source = KillerSource(16, use_current_action=False)
        rng = np.random.default_rng(seed)
        total = 0.0
        for t in range(1, 2001):
            action = lrn.play(rng)
            costs = source.costs_for(t, action)
            total += facility_loss(costs, action)
            lrn.update(costs)
        per_seed.append(total / 2000)
    assert float(np.mean(per_seed)) < 1.0
    assert _seed_ci_upper(per_seed) < 1.0


def test_per_trial_cost_scales_near_linearly_at_large_site_counts():
    # doubling the site count may at most multiply the median per-trial time
    # by 2.6, and the largest size stays under 10 ms per trial
    rows = bench_per_trial([4096, 8192, 16384], 1000)
    medians = [row["median_ms"] for row in rows]
    assert medians[1] / medians[0] <= 2.6
    assert medians[2] / medians[1] <= 2.6
    assert medians[2] < 10.0


def test_exact_hedge_meets_its_expected_regret_bound():
    # 50 iid scenarios at N=3, T=200; the summed pre-update expected losses
    # must stay within the closed-form bound of the best fixed subset
    cfg = GameConfig(3, 200, 1.0, 1.0)
    bound = 4.0 * math.sqrt(200 * math.log(7) / 2.0)
    for scenario_seed in range(50):
        scenario_costs = generate_scenario("iid", cfg, seed=scenario_seed)
        hedge = ExactHedge(cfg)
        rng = np.random.default_rng(scenario_seed + 1)
        expected_total = 0.0
        for cp in scenario_costs:
            hedge.play(rng)
            expected_total += hedge.update(cp)
        _, comparator = best_fixed_subset(scenario_costs)
        assert expected_total <= comparator + bound + 1e-6
