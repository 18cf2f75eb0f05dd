"""Oracle-backed self-checks behind `olfl verify`.

Every check pits a fast code path against an independent reference: direct
formula evaluation instead of the prefix/suffix passes, central finite
differences instead of the analytic gradient, full enumeration instead of
sampling, frequency counts instead of the inverse-CDF draw, hand arithmetic
instead of the doubling bookkeeping, a combinations scan instead of the
superset-sum comparator.

Each check takes a `scale`, a row of constants: `DESK`, which `olfl verify`
runs in about a second, or `FULL`, at which the test suite reruns the same
checks as its acceptance tests. A row fixes each check's generator seed,
instance count, sizes, cost range and horizon; bounds and tolerances are
the same at both scales. The checks with no entry in a row (sort, EG
arithmetic, learner-level dominance, comparator scan) run the same at both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import stats as scipy_stats

from .adversaries import KillerSource, generate_scenario
from .eg import ExponentiatedGradient
from .experiment import trial_loop
from .game import CostPair, CostRows, GameConfig, SiteSet, facility_loss, sort_by_connection_desc
from .learners import DoublingLearner, FixedCardinalityLearner, LearnerBatch, half_log_ceil
from .oracles import (
    ExactHedge,
    best_fixed_scan,
    best_fixed_subset,
    cheapest_singleton_play,
    exact_expected_loss,
    ftl_greedy_play,
)
from .sampler import draw_sites
from .surrogate import SurrogateInstance, value_and_gradient


class Plan(NamedTuple):
    """One check's constants at one scale. `count` counts instances,
    sequences or scenarios (for the doubling check, the fewest restarts it
    must see); `sites` and `draws` bound an instance's sizes; costs lie in
    [0, cost_max]. The sampler takes `draws` draws per size, positive masses
    from `mass`, and each size as (sites, zero-mass sites, trailing or not)."""

    seed: int = 0
    count: int = 0
    sites: int = 0
    draws: int = 1
    cost_max: float = 1.0
    horizon: int = 0
    mass: tuple[float, float] = (0.0, 1.0)
    layout: tuple[tuple[int, int, bool], ...] = ()


# a scale holds one Plan per check that has a full-scale twin
Scale = dict[str, Plan]
DESK: Scale = {
    "surrogate": Plan(seed=7, count=60, sites=20, draws=50),
    "single draw": Plan(seed=11, count=100, sites=30),
    "sampler": Plan(
        seed=13, draws=200_000, mass=(0.2, 1.0),
        layout=((3, 1, False), (16, 3, False), (257, 51, False), (40, 8, True)),
    ),
    "dominance": Plan(seed=17, count=40, sites=4, draws=3),
    "eg": Plan(seed=19, count=12, sites=6, horizon=500),
    "doubling": Plan(seed=23, count=1, sites=2, horizon=1500),
    "hedge": Plan(seed=0, count=8, sites=3, horizon=100),
    "killer": Plan(sites=16, horizon=400),
}
FULL: Scale = {
    "surrogate": Plan(seed=101, count=500, sites=50, draws=200),
    "single draw": Plan(seed=202, count=1000, sites=100, cost_max=5.0),
    "sampler": Plan(
        seed=303, draws=1_000_000, mass=(0.5, 1.5),
        layout=((3, 1, False), (16, 4, False), (1000, 100, False)),
    ),
    "dominance": Plan(seed=404, count=200, sites=4, draws=3, cost_max=3.0),
    "eg": Plan(seed=505, count=50, sites=8, horizon=2000),
    "doubling": Plan(seed=808, count=2, sites=2, horizon=14000),
    "hedge": Plan(seed=0, count=50, sites=3, horizon=200),
    "killer": Plan(sites=16, horizon=2000),
}


# ---------------------------------------------------------------------------
# reference implementations (deliberately naive; never reuse the fast path)


def surrogate_value_direct(opening, connection, num_draws: int, w) -> float:
    """O(N^2) evaluation of the surrogate straight from its definition.

    Accepts any point of the box [0, 1]^N, not just the simplex, so finite
    differences can step off the simplex.
    """
    opening = np.asarray(opening, dtype=float)
    connection = np.asarray(connection, dtype=float)
    w = np.asarray(w, dtype=float)
    order = np.argsort(-connection, kind="stable")
    conn_sorted = connection[order]
    w_sorted = w[order]
    n = opening.size
    value = num_draws * float(opening @ w) + float(conn_sorted[-1])
    for i in range(n - 1):
        value += (conn_sorted[i] - conn_sorted[i + 1]) * float(w_sorted[: i + 1].sum()) ** num_draws
    return value


def finite_difference_gradient(opening, connection, num_draws: int, w, step: float = 1e-6) -> np.ndarray:
    """Central differences of the direct evaluation, coordinate by coordinate."""
    w = np.asarray(w, dtype=float)
    grad = np.empty(w.size)
    for i in range(w.size):
        hi = w.copy()
        lo = w.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (
            surrogate_value_direct(opening, connection, num_draws, hi)
            - surrogate_value_direct(opening, connection, num_draws, lo)
        ) / (2.0 * step)
    return grad


def random_surrogate_instance(rng: np.random.Generator, max_sites: int, max_draws: int, cost_max=1.0):
    """(instance, simplex point) with costs drawn from [0, cost_max]. With
    max_draws = 1 the draw count takes nothing from the generator."""
    n = int(rng.integers(1, max_sites + 1))
    ups = int(rng.integers(1, max_draws + 1))
    costs = CostPair(rng.uniform(0.0, cost_max, n), rng.uniform(0.0, cost_max, n))
    w = rng.dirichlet(np.ones(n))
    return SurrogateInstance.from_costs(costs, ups), w


def eg_regret_slack(n: int, horizon: int, grad_bound: float, grad_fn) -> float:
    """Average regret of exponentiated gradient against the best corner,
    minus its closed-form bound, on the gradients grad_fn(t, weights)."""
    learner = ExponentiatedGradient(n, grad_bound, horizon)
    corner_totals = np.zeros(n)
    learner_total = 0.0
    for t in range(horizon):
        w = learner.play()
        g = grad_fn(t, w)
        learner_total += learner.update(float(g @ w), g)
        corner_totals += g
    bound = grad_bound * math.sqrt(2.0 * math.log(n) / horizon)
    return learner_total / horizon - (float(corner_totals.min()) / horizon + bound)


# adversarial shapes: alternation, a dominated constant, a mid-run switch, a
# gradient that chases the current favorite, and exact ties
HANDMADE_EG_SEQUENCES = (
    (2, 2000, 1.0, lambda t, w: np.array([1.0, 0.0]) if t % 2 == 0 else np.array([0.0, 1.0])),
    (4, 1500, 2.0, lambda t, w: np.array([2.0, 0.0, 1.0, 1.0])),
    (2, 2000, 1.0, lambda t, w: np.array([1.0, 0.0]) if t < 1000 else np.array([0.0, 1.0])),
    (8, 2000, 1.0, lambda t, w: np.eye(8)[int(np.argmax(w))]),
    (3, 500, 1.5, lambda t, w: np.full(3, 1.5)),
)


# ---------------------------------------------------------------------------
# checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_surrogate_value_and_gradient(scale: Scale = DESK) -> CheckResult:
    plan = scale["surrogate"]
    rng = np.random.default_rng(plan.seed)
    name = "surrogate value+gradient"
    worst_rel = 0.0
    for _ in range(plan.count):
        inst, w = random_surrogate_instance(rng, plan.sites, plan.draws, plan.cost_max)
        value, grad = value_and_gradient(inst, w)
        hi = inst.num_draws * 2.0 * plan.cost_max * (1.0 + 1e-9)
        if grad.min() < 0 or grad.max() > hi:
            return CheckResult(name, False, f"gradient outside [0, {hi}]")
        direct = surrogate_value_direct(inst.opening, inst.connection, inst.num_draws, w)
        err = abs(value - direct)
        fd = finite_difference_gradient(inst.opening, inst.connection, inst.num_draws, w)
        gap = np.abs(grad - fd) - np.maximum(1e-6, 1e-4 * np.abs(grad))
        if err > 1e-10 * abs(direct) or gap.max() > 0:
            return CheckResult(name, False, f"value {value!r} vs direct {direct!r}, fd slack {gap.max():.2e}")
        worst_rel = max(worst_rel, err / abs(direct) if err else 0.0)
    detail = f"{plan.count} instances; worst value rel err {worst_rel:.1e}, fd within tolerance"
    return CheckResult(name, True, detail)


def check_single_draw_identity(scale: Scale = DESK) -> CheckResult:
    plan = scale["single draw"]
    rng = np.random.default_rng(plan.seed)
    worst = 0.0
    for _ in range(plan.count):
        inst, w = random_surrogate_instance(rng, plan.sites, 1, plan.cost_max)
        value, grad = value_and_gradient(inst, w)
        expected_value = float(w @ (inst.opening + inst.connection))
        # the parametrization shifts the gradient by the smallest connection
        # cost; the shift cancels in the multiplicative update
        expected_grad = inst.opening + inst.connection - inst.connection.min()
        worst = max(worst, abs(value - expected_value), float(np.abs(grad - expected_grad).max()))
    detail = f"{plan.count} instances; worst deviation {worst:.2e} (tol 1e-12)"
    return CheckResult("single-draw linear identity", worst <= 1e-12, detail)


def check_sampler_distribution(scale: Scale = DESK) -> CheckResult:
    plan = scale["sampler"]
    name = "sampler distribution"
    rng = np.random.default_rng(plan.seed)
    for n, zeros, trailing in plan.layout:
        p = rng.uniform(*plan.mass, n)
        zero = np.arange(n - zeros, n) if trailing else rng.choice(n, size=zeros, replace=False)
        p[zero] = 0.0
        p /= p.sum()
        sample = draw_sites(p, plan.draws, rng)
        counts = np.bincount(sample - 1, minlength=n)
        if counts[zero].sum() != 0:
            return CheckResult(name, False, f"zero-mass site drawn (n={n})")
        support = p > 0
        _, pvalue = scipy_stats.chisquare(counts[support], plan.draws * p[support])
        if pvalue < 1e-3:
            return CheckResult(name, False, f"chi-square rejects at n={n} (p={pvalue:.2e})")
    sizes = ",".join(str(n) for n, _, _ in plan.layout)
    return CheckResult(name, True, f"chi-square accepts at n={sizes}; zero mass never drawn ({plan.draws} each)")


def check_dominance(scale: Scale = DESK) -> CheckResult:
    plan = scale["dominance"]
    name = "surrogate dominates expectation"
    rng = np.random.default_rng(plan.seed)
    worst = -math.inf
    for _ in range(plan.count):
        inst, p = random_surrogate_instance(rng, plan.sites, plan.draws, plan.cost_max)
        value, _ = value_and_gradient(inst, p)
        expected = exact_expected_loss(p, inst.num_draws, CostPair(inst.opening, inst.connection))
        gap = expected - value
        worst = max(worst, gap)
        if gap > 1e-9:
            return CheckResult(name, False, f"E - f = {gap:.2e} > 1e-9")
        if inst.num_draws == 1 and abs(gap) > 1e-12:
            return CheckResult(name, False, f"single-draw gap {gap:.2e} > 1e-12")
    return CheckResult(name, True, f"{plan.count} instances; max E - f = {worst:.1e}")


def check_eg_regret(scale: Scale = DESK) -> CheckResult:
    plan = scale["eg"]
    rng = np.random.default_rng(plan.seed)
    worst = -math.inf
    for _ in range(plan.count):
        n = int(rng.integers(2, plan.sites + 1))
        horizon = int(rng.integers(50, plan.horizon + 1))
        grad_bound = float(rng.uniform(0.5, 3.0))
        seq = rng.uniform(0.0, grad_bound, size=(horizon, n))
        worst = max(worst, eg_regret_slack(n, horizon, grad_bound, lambda t, w: seq[t]))
    for case in HANDMADE_EG_SEQUENCES:
        worst = max(worst, eg_regret_slack(*case))
    detail = f"{plan.count} random, {len(HANDMADE_EG_SEQUENCES)} hand-made sequences; worst slack {worst:.1e}"
    return CheckResult("eg average regret", worst <= 1e-9, detail)


def check_eg_update_arithmetic(scale: Scale = DESK) -> CheckResult:
    learner = ExponentiatedGradient(2, 1.0, 100)
    learner.lr = 1.0
    learner.w = np.array([0.5, 0.5])
    learner.update(0.0, np.array([math.log(2.0), 0.0]))
    expected = np.array([1.0 / 3.0, 2.0 / 3.0])
    err = float(np.abs(learner.w - expected).max())
    shifted = ExponentiatedGradient(4, 10.0, 50)
    g = np.full(4, 2.5)
    shifted.update(0.0, g)
    drift = float(np.abs(shifted.w - 0.25).max())  # constant gradient is a no-op
    ok = err <= 1e-12 and drift <= 1e-12 and abs(float(learner.w.sum()) - 1.0) <= 1e-12
    return CheckResult(
        "eg update arithmetic", ok, f"hand example err {err:.1e}, constant-shift drift {drift:.1e}"
    )


def check_doubling_mechanics(scale: Scale = DESK) -> CheckResult:
    plan = scale["doubling"]
    name, n = "doubling mechanics", plan.sites
    cfg = GameConfig(n, plan.horizon, 1.0, 1.0)
    learner = DoublingLearner(cfg)
    rng = np.random.default_rng(plan.seed)
    costs = CostPair(np.ones(n), np.ones(n))  # worst-case costs force crossings
    slope = half_log_ceil(cfg.horizon) * 6.0  # a = h (4C + 2D)
    base = 2.0  # b = C + D
    unit = 2.0 * (slope + base) * math.sqrt(math.log(2 * n) * cfg.horizon)
    observed = []
    accumulated = 0.0
    scale_guess = 1
    for t in range(1, cfg.horizon + 1):
        learner.play(rng)
        accumulated += learner.update(costs)
        did_double = learner.scale != scale_guess
        if (accumulated >= scale_guess * unit) != did_double:
            return CheckResult(name, False, f"crossing mismatch at trial {t}")
        if did_double:
            observed.append(t)
            scale_guess *= 2
            accumulated = 0.0
            expected_budget = min(n, math.ceil((scale_guess * (slope + base) - base) / slope))
            if learner.scale != scale_guess or learner.cardinality_budget != expected_budget:
                return CheckResult(name, False, f"scale or budget off at trial {t}")
            w = learner.weights
            uniform = w.size == 2 * n and float(np.abs(w - 1.0 / (2 * n)).max()) <= 1e-15
            if not uniform or learner.accumulated != 0.0:
                return CheckResult(name, False, f"weights or accumulator not reset at trial {t}")
    if len(observed) < plan.count or learner.segment_starts != [1] + [t + 1 for t in observed]:
        detail = f"restarts at {observed} (at least {plan.count} due), segments {learner.segment_starts}"
        return CheckResult(name, False, detail)
    return CheckResult(name, True, f"restarts at trials {observed}, budgets, resets and segments verified")


def check_hedge_bound(scale: Scale = DESK) -> CheckResult:
    plan = scale["hedge"]
    n = plan.sites
    cfg = GameConfig(n, plan.horizon, 1.0, 1.0)
    bound_term = (n + 1.0) * math.sqrt(cfg.horizon * math.log(2**n - 1) / 2.0)
    seeds = range(plan.seed, plan.seed + plan.count)
    scenarios = [generate_scenario("iid", cfg, seed=seed) for seed in seeds]
    # (T, scenarios, N): trial t's costs of every scenario, one row each
    opening = np.stack([costs.opening for costs in scenarios], axis=1)
    connection = np.stack([costs.connection for costs in scenarios], axis=1)
    hedge = ExactHedge(cfg, plan.count)  # row r learns scenario r and plays its seed + 1
    rngs = [np.random.default_rng(seed + 1) for seed in seeds]
    values = trial_loop(hedge, rngs, cfg.horizon, lambda t, _: CostRows(opening[t], connection[t]))[1]
    expected = values.sum(axis=0)
    worst = float(max(expected - [best_fixed_subset(costs)[1] for costs in scenarios] - bound_term))
    if worst > 1e-6:
        return CheckResult("hedge exact bound", False, f"bound violated by {worst:.2e}")
    return CheckResult("hedge exact bound", True, f"{plan.count} scenarios; worst slack {worst:.1f}")


def run_deterministic_against_killer(play_fn, n_sites: int, horizon: int):
    """Drive a deterministic history->action rule through the adaptive
    adversary (which sees each action before pricing it); the rule plays
    {1} at the first trial, when there is no history. Returns (average
    loss, history as CostRows, actions)."""
    source = KillerSource(n_sites, use_current_action=True)
    seen = np.empty((2, horizon, n_sites))  # the history so far, read in place by play_fn
    actions: list[SiteSet] = []
    total = 0.0
    for t in range(horizon):
        action = play_fn(CostRows(seen[0, :t], seen[1, :t])) if t else SiteSet((1,))
        costs = source.costs_for(t + 1, action)
        total += facility_loss(costs, action)
        seen[0, t], seen[1, t] = costs.opening, costs.connection
        actions.append(action)
    return total / horizon, CostRows(seen[0], seen[1]), actions


def check_killer_regression(scale: Scale = DESK) -> CheckResult:
    n, horizon = scale["killer"].sites, scale["killer"].horizon
    for name, play_fn in (("ftl-greedy", ftl_greedy_play), ("cheapest-singleton", cheapest_singleton_play)):
        avg, history, _ = run_deterministic_against_killer(play_fn, n, horizon)
        if avg < 1.0:
            return CheckResult("killer regression", False, f"{name} averaged {avg} < 1")
        _, best_single = best_fixed_subset(history, max_card=1)
        if best_single > 2.0 * horizon / math.sqrt(n):
            detail = f"best singleton averages {best_single / horizon} > {2.0 / math.sqrt(n)} vs {name}"
            return CheckResult("killer regression", False, detail)
    detail = f"N={n} T={horizon}: deterministic baselines average >= 1, best singleton <= {2.0 / math.sqrt(n)}"
    return CheckResult("killer regression", True, detail)


def check_comparator_scan(scale: Scale = DESK) -> CheckResult:
    rng = np.random.default_rng(41)
    n, horizon = 10, 300
    learner = LearnerBatch(GameConfig(n, horizon, 1.0, 1.0), "fl", 1)
    source = KillerSource(n, use_current_action=False)
    actions = trial_loop(learner, (rng,), horizon, lambda t, played: source.costs_for(t + 1, played))[3]
    killer = source.realized(actions[0])
    iid = generate_scenario("iid", GameConfig(8, 200, 1.0, 1.0), seed=int(rng.integers(1 << 30)))
    worst = 0.0
    for name, history in (("killer", killer), ("iid", iid)):
        for restriction in ({}, {"max_card": 3}, {"exact_card": 2}):
            subset, loss = best_fixed_subset(history, **restriction)
            members, scanned = best_fixed_scan(history, **restriction)
            rel = abs(loss - scanned) / max(1.0, abs(scanned))
            worst = max(worst, rel)
            if subset.members != members or rel > 1e-12:
                return CheckResult(
                    "comparator against scan",
                    False,
                    f"{name} {restriction or 'unrestricted'}: {subset.members} {loss} vs {members} {scanned}",
                )
    return CheckResult(
        "comparator against scan",
        True,
        f"killer N={n} T={horizon} and iid N=8 T=200, 3 restrictions each; worst rel err {worst:.1e}",
    )


def check_learner_dominance(scale: Scale = DESK) -> CheckResult:
    rng = np.random.default_rng(31)
    cfg = GameConfig(3, 50, 1.0, 1.0)  # horizon gives num_draws = 2 per unit budget
    learner = FixedCardinalityLearner(cfg, 1)
    worst = -math.inf
    for _ in range(25):
        costs = CostPair(rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 1.0, 3))
        p = learner.weights.copy()
        learner.play(rng)
        value = learner.update(costs)
        expected = exact_expected_loss(p, learner.num_draws, costs)
        gap = expected - value
        worst = max(worst, gap)
        if gap > 1e-9:
            return CheckResult("learner-level dominance", False, f"E - lambda = {gap:.2e}")
    return CheckResult("learner-level dominance", True, f"25 trials; max E - lambda = {worst:.1e}")


def check_sort_round_trip(scale: Scale = DESK) -> CheckResult:
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        d = rng.choice(rng.uniform(0.0, 1.0, max(1, n // 2)), size=n)  # force ties
        order = sort_by_connection_desc(d)
        if sorted(order.tolist()) != list(range(1, n + 1)):
            return CheckResult("descending sort", False, "not a permutation")
        sorted_d = d[order - 1]
        if np.any(np.diff(sorted_d) > 0):
            return CheckResult("descending sort", False, "not descending")
        again = sort_by_connection_desc(d)
        if not np.array_equal(order, again):
            return CheckResult("descending sort", False, "not deterministic under ties")
    return CheckResult("descending sort", True, "50 vectors with ties: permutation, order, determinism")


ALL_CHECKS = (
    check_surrogate_value_and_gradient,
    check_single_draw_identity,
    check_sort_round_trip,
    check_sampler_distribution,
    check_dominance,
    check_eg_update_arithmetic,
    check_eg_regret,
    check_learner_dominance,
    check_doubling_mechanics,
    check_hedge_bound,
    check_killer_regression,
    check_comparator_scan,
)


def run_checks() -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(fn.__name__, False, f"raised {type(exc).__name__}: {exc}"))
    return results
