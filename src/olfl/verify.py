"""Oracle-backed self-checks behind `olfl verify`.

Every check pits a fast code path against an independent reference: direct
formula evaluation instead of the prefix/suffix passes, central finite
differences instead of the analytic gradient, full enumeration instead of
sampling, frequency counts instead of the inverse-CDF draw, hand arithmetic
instead of the doubling bookkeeping, a combinations scan instead of the
superset-sum comparator. The suite runs at desk scale in seconds;
the test suite reruns the same comparisons at full acceptance scale.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

from .adversaries import KillerSource, generate_scenario
from .eg import ExponentiatedGradient
from .game import CostPair, CostRows, GameConfig, SiteSet, facility_loss, sort_by_connection_desc
from .learners import DoublingLearner, FixedCardinalityLearner, half_log_ceil
from .oracles import (
    ExactHedge,
    best_fixed_subset,
    cheapest_singleton_play,
    exact_expected_loss,
    ftl_greedy_play,
)
from .sampler import draw_sites
from .surrogate import SurrogateInstance, value_and_gradient


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


def random_surrogate_instance(rng: np.random.Generator, max_sites: int, max_draws: int):
    """(instance, simplex point) with unit cost ranges."""
    n = int(rng.integers(1, max_sites + 1))
    ups = int(rng.integers(1, max_draws + 1))
    costs = CostPair(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))
    w = rng.dirichlet(np.ones(n))
    return SurrogateInstance.from_costs(costs, ups), w


def best_fixed_scan(history, max_card: int | None = None, exact_card: int | None = None):
    """(members, loss) of the exhaustive comparator scan: every candidate
    subset's cumulative loss from its columns of the history, ties to the
    smaller set, then to the lexicographically first members."""
    rows = history if isinstance(history, CostRows) else CostRows.stack(history)
    n = rows.n_sites
    cum_open = rows.opening.sum(axis=0)
    cards = (exact_card,) if exact_card is not None else range(1, (max_card or n) + 1)
    best_cost, best_members = math.inf, None
    for card in cards:
        for combo in itertools.combinations(range(n), card):
            idx = list(combo)
            cost = float(cum_open[idx].sum() + rows.connection[:, idx].min(axis=1).sum())
            members = tuple(i + 1 for i in combo)
            if cost < best_cost or (cost == best_cost and (card, members) < (len(best_members), best_members)):
                best_cost, best_members = cost, members
    return best_members, best_cost


# ---------------------------------------------------------------------------
# checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_surrogate_value_and_gradient(rng=None) -> CheckResult:
    rng = rng or np.random.default_rng(7)
    worst_rel = 0.0
    worst_fd = 0.0
    for _ in range(60):
        inst, w = random_surrogate_instance(rng, max_sites=20, max_draws=50)
        value, grad = value_and_gradient(inst, w)
        direct = surrogate_value_direct(inst.opening, inst.connection, inst.num_draws, w)
        rel = abs(value - direct) / max(1.0, abs(direct))
        worst_rel = max(worst_rel, rel)
        fd = finite_difference_gradient(inst.opening, inst.connection, inst.num_draws, w)
        gap = np.abs(grad - fd) - np.maximum(1e-6, 1e-4 * np.abs(grad))
        worst_fd = max(worst_fd, float(gap.max()))
        hi = inst.num_draws * (1.0 + 1.0) * (1.0 + 1e-9)
        if grad.min() < 0 or grad.max() > hi:
            return CheckResult(
                "surrogate value+gradient", False, f"gradient outside [0, {hi}]"
            )
        if rel > 1e-10 or gap.max() > 0:
            return CheckResult(
                "surrogate value+gradient",
                False,
                f"value rel err {rel:.2e}, fd slack {gap.max():.2e}",
            )
    return CheckResult(
        "surrogate value+gradient",
        True,
        f"60 instances; worst value rel err {worst_rel:.1e}, fd within tolerance",
    )


def check_single_draw_identity(rng=None) -> CheckResult:
    rng = rng or np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        inst, w = random_surrogate_instance(rng, max_sites=30, max_draws=1)
        value, grad = value_and_gradient(inst, w)
        expected_value = float(w @ (inst.opening + inst.connection))
        # the parametrization shifts the gradient by the smallest connection
        # cost; the shift cancels in the multiplicative update
        expected_grad = inst.opening + inst.connection - inst.connection.min()
        worst = max(
            worst,
            abs(value - expected_value),
            float(np.abs(grad - expected_grad).max()),
        )
    ok = worst <= 1e-12
    return CheckResult(
        "single-draw linear identity", ok, f"worst deviation {worst:.2e} (tol 1e-12)"
    )


def check_sampler_distribution(rng=None, draws: int = 200_000) -> CheckResult:
    rng = rng or np.random.default_rng(13)
    # a fifth of the sites get zero mass: at random places, or as the last
    # fifth, past the final positive-mass site
    for n, trailing in ((3, False), (16, False), (257, False), (40, True)):
        p = rng.uniform(0.2, 1.0, n)
        k = max(1, n // 5)
        zero = np.arange(n - k, n) if trailing else rng.choice(n, size=k, replace=False)
        p[zero] = 0.0
        p /= p.sum()
        sample = draw_sites(p, draws, rng)
        counts = np.bincount(sample - 1, minlength=n)
        if counts[zero].sum() != 0:
            return CheckResult("sampler distribution", False, f"zero-mass site drawn (n={n})")
        support = p > 0
        _, pvalue = scipy_stats.chisquare(counts[support], draws * p[support])
        if pvalue < 1e-3:
            return CheckResult(
                "sampler distribution", False, f"chi-square rejects at n={n} (p={pvalue:.2e})"
            )
    return CheckResult(
        "sampler distribution",
        True,
        f"chi-square accepts at n=3,16,257 and at n=40 with a zero-mass tail ({draws} draws each)",
    )


def check_dominance(rng=None) -> CheckResult:
    rng = rng or np.random.default_rng(17)
    worst = -math.inf
    for _ in range(40):
        n = int(rng.integers(1, 5))
        ups = int(rng.integers(1, 4))
        costs = CostPair(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))
        p = rng.dirichlet(np.ones(n))
        inst = SurrogateInstance.from_costs(costs, ups)
        value, _ = value_and_gradient(inst, p)
        expected = exact_expected_loss(p, ups, costs)
        gap = expected - value
        worst = max(worst, gap)
        if gap > 1e-9:
            return CheckResult("surrogate dominates expectation", False, f"E - f = {gap:.2e} > 1e-9")
        if ups == 1 and abs(gap) > 1e-12:
            return CheckResult(
                "surrogate dominates expectation", False, f"single-draw gap {gap:.2e} > 1e-12"
            )
    return CheckResult(
        "surrogate dominates expectation", True, f"40 instances; max E - f = {worst:.1e}"
    )


def check_eg_regret(rng=None) -> CheckResult:
    rng = rng or np.random.default_rng(19)
    worst = -math.inf
    for case in range(12):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(50, 501))
        bound_g = float(rng.uniform(0.5, 3.0))
        learner = ExponentiatedGradient(n, bound_g, t)
        total = np.zeros(n)
        learner_loss = 0.0
        for _ in range(t):
            a = rng.uniform(0.0, bound_g, n)
            w = learner.play()
            learner_loss += float(a @ w)
            learner.update(float(a @ w), a)
            total += a
        slack = (learner_loss - total.min()) / t - bound_g * math.sqrt(2.0 * math.log(n) / t)
        worst = max(worst, slack)
        if slack > 1e-9:
            return CheckResult("eg average regret", False, f"bound violated by {slack:.2e}")
    return CheckResult("eg average regret", True, f"12 sequences; worst slack {worst:.1e}")


def check_eg_update_arithmetic() -> CheckResult:
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


def check_doubling_mechanics() -> CheckResult:
    cfg = GameConfig(2, 1500, 1.0, 1.0)
    learner = DoublingLearner(cfg)
    rng = np.random.default_rng(23)
    costs = CostPair(np.ones(2), np.ones(2))  # worst-case costs force crossings
    h = half_log_ceil(cfg.horizon)
    slope = h * 6.0
    base = 2.0
    observed = []
    accumulated = 0.0
    scale = 1
    for t in range(1, cfg.horizon + 1):
        learner.play(rng)
        before = learner.scale
        value = learner.update(costs)
        accumulated += value
        threshold = 2.0 * (slope + base) * scale * math.sqrt(math.log(4.0) * cfg.horizon)
        should_double = accumulated >= threshold
        did_double = learner.scale != before
        if should_double != did_double:
            return CheckResult(
                "doubling mechanics", False, f"crossing mismatch at trial {t}"
            )
        if did_double:
            observed.append(t)
            scale *= 2
            accumulated = 0.0
            expected_budget = min(cfg.n_sites, math.ceil((scale * (slope + base) - base) / slope))
            if learner.cardinality_budget != expected_budget:
                return CheckResult(
                    "doubling mechanics",
                    False,
                    f"budget {learner.cardinality_budget} != {expected_budget} at scale {scale}",
                )
            if float(np.abs(learner.weights - 0.25).max()) > 1e-15:
                return CheckResult(
                    "doubling mechanics", False, f"weights not uniform after restart at trial {t}"
                )
    if not observed:
        return CheckResult("doubling mechanics", False, "no restart observed at this horizon")
    return CheckResult(
        "doubling mechanics", True, f"restarts at trials {observed}, budgets and resets verified"
    )


def check_hedge_bound(rng=None) -> CheckResult:
    rng = rng or np.random.default_rng(29)
    cfg = GameConfig(3, 100, 1.0, 1.0)
    bound_term = (cfg.n_sites + 1.0) * math.sqrt(cfg.horizon * math.log(7.0) / 2.0)
    worst = -math.inf
    for case in range(8):
        costs = generate_scenario("iid", cfg, seed=int(rng.integers(1 << 30)))
        hedge = ExactHedge(cfg)
        expected_total = 0.0
        for cp in costs:
            hedge.play(rng)
            expected_total += hedge.update(cp)
        _, best_loss = best_fixed_subset(costs)
        slack = expected_total - best_loss - bound_term
        worst = max(worst, slack)
        if slack > 1e-6:
            return CheckResult("hedge exact bound", False, f"bound violated by {slack:.2e}")
    return CheckResult("hedge exact bound", True, f"8 scenarios; worst slack {worst:.1f}")


def run_deterministic_against_killer(play_fn, n_sites: int, horizon: int):
    """Drive a deterministic history->action rule through the adaptive
    adversary (which sees each action before pricing it). Returns
    (average loss, history, actions)."""
    source = KillerSource(n_sites, use_current_action=True)
    seen = np.empty((2, horizon, n_sites))  # the history so far, read in place by play_fn
    history: list[CostPair] = []
    actions: list[SiteSet] = []
    total = 0.0
    for t in range(horizon):
        action = play_fn(CostRows(seen[0, :t], seen[1, :t]) if t else history)
        costs = source.costs_for(t + 1, action)
        total += facility_loss(costs, action)
        seen[0, t], seen[1, t] = costs.opening, costs.connection
        history.append(costs)
        actions.append(action)
    return total / horizon, history, actions


def check_killer_regression() -> CheckResult:
    n, horizon = 16, 400
    for name, play_fn in (("ftl-greedy", ftl_greedy_play), ("cheapest-singleton", cheapest_singleton_play)):
        avg, history, _ = run_deterministic_against_killer(play_fn, n, horizon)
        if avg < 1.0:
            return CheckResult("killer regression", False, f"{name} averaged {avg} < 1")
        _, best_single = best_fixed_subset(history, max_card=1)
        if best_single / horizon > 2.0 / math.sqrt(n):
            return CheckResult(
                "killer regression",
                False,
                f"best singleton averages {best_single / horizon} > {2.0 / math.sqrt(n)} vs {name}",
            )
    return CheckResult(
        "killer regression", True, "deterministic baselines average >= 1; best singleton <= 0.5"
    )


def check_comparator_scan(rng=None) -> CheckResult:
    rng = rng or np.random.default_rng(41)
    n, horizon = 10, 300
    learner = DoublingLearner(GameConfig(n, horizon, 1.0, 1.0))
    source = KillerSource(n, use_current_action=False)
    killer = []
    for t in range(1, horizon + 1):
        killer.append(source.costs_for(t, learner.play(rng)))
        learner.update(killer[-1])
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


def check_learner_dominance(rng=None) -> CheckResult:
    rng = rng or np.random.default_rng(31)
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


def check_sort_round_trip(rng=None) -> CheckResult:
    rng = rng or np.random.default_rng(37)
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
