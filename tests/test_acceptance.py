"""Full-scale acceptance checks, one pass/fail line per guarantee.

The oracle checks of `olfl verify` run here at `verify.FULL`, one test per
check: the same functions as at desk scale, with the generator seeds,
instance counts, sizes and horizons of the full-scale row. The tests after
them pin what has no desk-scale twin: the regret bounds over 200 seeds, the
randomized half of the killer separation, and per-trial scaling at 4096 to
16384 sites. Run `pytest tests/test_acceptance.py -v` to see the lines
individually. Everything stochastic is seeded.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from olfl import (
    AlgoSpec,
    ExperimentConfig,
    GameConfig,
    ScenarioSpec,
    best_fixed_subset,
    generate_scenario,
    half_log_ceil,
    run_experiment,
)
from olfl.bench import bench_per_trial
from olfl.verify import (
    ALL_CHECKS,
    FULL,
    check_sampler_distribution,
    check_surrogate_value_and_gradient,
)

# wall-clock limits, in seconds, of the checks that have one
TIME_LIMITS_S = {check_surrogate_value_and_gradient: 10.0, check_sampler_distribution: 30.0}


def _seed_ci_upper(values):
    """Upper end of the two-sided 95% t interval for the mean."""
    values = np.asarray(values, dtype=float)
    half = stats.t.ppf(0.975, values.size - 1) * values.std(ddof=1) / math.sqrt(values.size)
    return float(values.mean() + half)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.__name__.removeprefix("check_"))
def test_oracle_check_at_full_scale(check):
    start = time.perf_counter()
    result = check(FULL)
    assert result.passed, result.detail
    assert time.perf_counter() - start < TIME_LIMITS_S.get(check, math.inf)


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


def test_killer_sequence_separates_randomized_from_deterministic():
    # the deterministic half, every deterministic baseline held at average
    # loss >= 1 while a singleton stays at 0.5 or less, is the killer check
    # above; here the randomized doubling learner averages strictly below 1
    # with a 95% CI that excludes 1. It plays seed s from
    # np.random.default_rng(s) against its own KillerSource(16,
    # use_current_action=False), all 100 seeds in one seed-batched run
    config = ExperimentConfig(
        GameConfig(16, 2000, 1.0, 1.0), AlgoSpec("fl"), ScenarioSpec("killer"), tuple(range(1, 101))
    )
    per_seed = [run.cumulative_loss / 2000 for run in run_experiment(config).seed_runs]
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
