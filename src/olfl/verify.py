"""Oracle-backed self-checks behind `olfl verify`.

Every check pits a fast code path against an independent reference: direct
formula evaluation instead of the prefix/suffix passes, central finite
differences instead of the analytic gradient, full enumeration instead of
sampling, frequency counts instead of the inverse-CDF draw, hand arithmetic
instead of the doubling bookkeeping, a combinations scan instead of the
superset-sum comparator. Every check that steps a learner runs it through
`experiment.trial_loop`, as `olfl run` does, and checks what it returns;
the hedge check runs `run_experiment` itself, and the sampler check draws
learner rows as a learner batch does, through `RecordedRows.draw`.

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
from scipy import special

from .adversaries import KillerSource, generate_scenario
from .eg import Step, starting_point
from .experiment import AlgoSpec, ExperimentConfig, ScenarioSpec, run_experiment, trial_loop
from .game import CostPair, CostRows, GameConfig, action_losses, connection_order
from .learners import LearnerBatch, half_log_ceil
from .oracles import CheapestSingleton, FollowTheLeaderGreedy, best_fixed_scan, best_fixed_subset, exact_expected_loss
from .sampler import COUNTED_DRAW_MAX, RecordedRows, UniformStreams
from .surrogate import SurrogateInstance, value_and_gradient

CHISQUARE_SUM_RTOL = float(np.finfo(float).eps) ** 0.5  # scipy.stats.chisquare's tolerance on the totals


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
    return float(value)


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
    """Average regret of exponentiated gradient, stepping as the learners
    do, against the best corner, minus its closed-form bound, on the
    gradients grad_fn(t, weights)."""
    w, rate = starting_point(n, horizon)
    step = Step(np.array([rate / grad_bound]), np.array([grad_bound]))
    corner_totals = np.zeros(n)
    learner_total = 0.0
    for t in range(horizon):
        g = grad_fn(t, w)
        learner_total += float(g @ w)
        corner_totals += g
        w = step(w[None], g[None])[0]
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
    """Chi-square per distribution row on the sampler's draws: one trial
    for one generator at each layout size; a block of recorded trials on
    rows of `COUNTED_DRAW_MAX` sites, counted for prefetched generators;
    one trial of rows a site wider, with unequal draw counts, searched,
    each row's draws padded to the most with repeats of its last, as a
    learner batch of several rows draws them. Each draw's rows share the
    1e-3 level (Bonferroni). Uniforms of 0 and 1-2^-53 must land on each
    row's first and last positive-mass site; the last two draws' first
    site has no mass."""
    plan = scale["sampler"]
    name = "sampler distribution"
    rng = np.random.default_rng(plan.seed)

    def masses(rows, n, zeros, trailing=False):
        p = rng.uniform(*plan.mass, (rows, n))
        for row in p:
            row[np.arange(n - zeros, n) if trailing else rng.choice(n, size=zeros, replace=False)] = 0.0
        if rows > 1:  # a zero-mass first site, which the edge uniform 0 must pass over
            p[:, 0] = 0.0
        return p / p.sum(axis=1, keepdims=True)

    cases = []  # (label, distribution rows, each row's draws as 1-based sites, the draws each should hold)
    for n, zeros, trailing in plan.layout:
        p, recorded = masses(1, n, zeros, trailing), RecordedRows(n, 1)
        recorded.record(p, plan.draws)
        cases.append((f"n={n}", p, recorded.draw((rng,)), [plan.draws]))  # as a one-row learner's play
    n, generators, block = COUNTED_DRAW_MAX, 4, RecordedRows(COUNTED_DRAW_MAX)
    p, count = masses(block.capacity, n, n // 4), plan.draws // (block.capacity * generators)
    block.record(p, count)
    sample = block.draw(UniformStreams(rng.integers(2**32, size=generators).tolist())).reshape(len(p), -1)
    cases.append((f"n={n} block", p, sample, [count * generators] * len(p)))
    n, draws = COUNTED_DRAW_MAX + 1, np.array([plan.draws // 2, plan.draws // 4, plan.draws // 8])
    p, recorded = masses(len(draws), n, n // 4), RecordedRows(n, len(draws))
    recorded.record(p, draws)
    sample = recorded.draw(UniformStreams(rng.integers(2**32, size=len(p)).tolist()))
    kept = [row[:size] for row, size in zip(sample, draws.tolist())]
    for r, (row, first) in enumerate(zip(sample, kept)):
        if (row[first.size :] != first[-1]).any():  # the padding the dedup drops
            return CheckResult(name, False, f"padded draws differ from the last kept draw (n={n} rows, row {r + 1})")
    cases.append((f"n={n} rows", p, kept, draws.tolist()))

    for label, p, samples, wanted in cases:
        # as many edge uniforms as sites, so that several narrow rows count
        recorded = RecordedRows(p.shape[1], len(p))
        recorded.record(p, p.shape[1])
        edges = recorded.search(np.tile([0.0, np.nextafter(1.0, 0.0)], (len(p), p.shape[1]))).tolist()
        for r, (row, sample, size) in enumerate(zip(p, samples, wanted)):
            where = label if len(p) == 1 else f"{label}, row {r + 1}"
            counts, positive = np.bincount(sample - 1, minlength=row.size), np.flatnonzero(row) + 1
            if counts[row == 0].sum() != 0:
                return CheckResult(name, False, f"zero-mass site drawn ({where})")
            if edges[r] != [positive[0], positive[-1]] * row.size:
                return CheckResult(name, False, f"uniforms 0 and 1-2^-53 drew sites {edges[r][:2]} ({where})")
            observed, expected = counts[row > 0].astype(float), size * row[row > 0]
            # Pearson's test as scipy.stats.chisquare runs it, with its refusal
            # of totals that differ by more than sqrt(eps) relative
            totals = observed.sum(), expected.sum()
            if abs(totals[0] - totals[1]) / min(totals) > CHISQUARE_SUM_RTOL:
                return CheckResult(name, False, f"observed total {totals[0]} != expected total {totals[1]} ({where})")
            pvalue = special.chdtrc(observed.size - 1, ((observed - expected) ** 2 / expected).sum())
            if pvalue < 1e-3 / len(p):
                return CheckResult(name, False, f"chi-square rejects at {where} (p={pvalue:.2e})")
    sizes, listed = ",".join(str(n) for n, _, _ in plan.layout), ",".join(map(str, draws.tolist()))
    detail = f"{block.capacity} counted trials at n={n - 1} ({count * generators} each), {len(draws)} searched rows"
    return CheckResult(name, True, f"chi-square accepts at n={sizes} ({plan.draws} each), {detail} at n={n} "
                       f"({listed}); zero mass never drawn; edge uniforms on the first and last positive mass")


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
    w = Step(np.ones(1), np.ones(1))(np.array([[0.5, 0.5]]), np.array([[math.log(2.0), 0.0]]))[0]
    err = float(np.abs(w - np.array([1.0 / 3.0, 2.0 / 3.0])).max())
    start, rate = starting_point(4, 50)
    shifted = Step(np.array([rate / 10.0]), np.array([10.0]))(start[None], np.full((1, 4), 2.5))[0]
    drift = float(np.abs(shifted - 0.25).max())  # constant gradient is a no-op
    ok = err <= 1e-12 and drift <= 1e-12 and abs(float(w.sum()) - 1.0) <= 1e-12
    detail = f"hand example err {err:.1e}, constant-shift drift {drift:.1e}"
    return CheckResult("eg update arithmetic", ok, detail)


def check_doubling_mechanics(scale: Scale = DESK) -> CheckResult:
    """One fl row through `trial_loop` on an all-ones scenario, which forces
    crossings, in the recorded and prepared blocks of a shared scenario's
    run. Hand bookkeeping of the threshold, scale guess and budget, run on
    the returned surrogate losses, must give the (scale, cardinality,
    segment) columns at every trial, and the accumulator and segment starts
    the learner ends with. Each segment's first loss must be the direct
    surrogate at the starting weights: 1/(2N) on each real site and 1/2 on
    the aggregate dummy, whose costs are (0, C + D)."""
    plan = scale["doubling"]
    name, n = "doubling mechanics", plan.sites
    cfg = GameConfig(n, plan.horizon, 1.0, 1.0)
    learner = LearnerBatch(cfg, "fl", 1)
    ones = np.ones((cfg.horizon, n))  # worst-case costs force crossings
    values, states = trial_loop(learner, UniformStreams([plan.seed]), cfg.horizon, CostRows(ones, ones))[1:3]
    draws_per_unit = half_log_ceil(cfg.horizon)
    slope = draws_per_unit * 6.0  # a = h (4C + 2D)
    base = 2.0  # b = C + D
    unit = 2.0 * (slope + base) * math.sqrt(math.log(2 * n) * cfg.horizon)
    extended = np.append(np.ones(n), 0.0), np.append(np.ones(n), base)
    start = np.append(np.full(n, 1.0 / (2 * n)), 0.5)
    observed = []
    accumulated = 0.0
    scale_guess = budget = 1
    for t, (value, state) in enumerate(zip(values[:, 0].tolist(), np.hstack(states).tolist()), 1):
        if state != [scale_guess, budget, len(observed)]:  # the state trial t was played in
            return CheckResult(name, False, f"scale, budget or segment off at trial {t}")
        if t == 1 or observed[-1:] == [t - 1]:  # a segment's first trial
            direct = surrogate_value_direct(*extended, budget * draws_per_unit, start)
            if abs(value - direct) > 1e-12 * direct:
                return CheckResult(name, False, f"weights not reset at trial {t}: loss {value!r}, {direct!r} due")
        accumulated += value
        if accumulated >= scale_guess * unit:
            observed.append(t)
            scale_guess *= 2
            accumulated = 0.0
            budget = min(n, math.ceil((scale_guess * (slope + base) - base) / slope))
    ends = float(learner.accumulated[0]), learner.segment_starts[0]
    if len(observed) < plan.count or ends != (accumulated, [1] + [t + 1 for t in observed]):
        detail = f"restarts at {observed} (at least {plan.count} due), accumulator and segments {ends}"
        return CheckResult(name, False, detail)
    return CheckResult(name, True, f"restarts at trials {observed}, budgets, resets and segments verified")


def check_hedge_bound(scale: Scale = DESK) -> CheckResult:
    """Exact Hedge's expected regret against the best fixed subset stays
    under its bound (N + 1) sqrt(T ln(2^N - 1) / 2) on every scenario.
    Scenario seed s runs through `run_experiment` as `olfl run --algo
    hedge-exact --scenario iid --scenario-seed s --seeds s+1` runs it; the
    check reads the expected losses and the comparator the run reports,
    and computes the bound term itself.

    The bound is loose here: at `DESK` the worst slack is -25.0, and a
    learning rate of twice or half the tuned one still passes (-30.1 and
    -18.9). Only the emission pins of hedge-exact runs catch such a rate;
    this check catches a Hedge that does not learn."""
    plan = scale["hedge"]
    n = plan.sites
    cfg = GameConfig(n, plan.horizon, 1.0, 1.0)
    bound_term = (n + 1.0) * math.sqrt(cfg.horizon * math.log(2**n - 1) / 2.0)
    worst = -math.inf
    for seed in range(plan.seed, plan.seed + plan.count):
        config = ExperimentConfig(cfg, AlgoSpec("hedge-exact"), ScenarioSpec("iid", seed), (seed + 1,))
        result = run_experiment(config)
        expected = float(result.seed_runs[0].surrogate_losses.sum())
        worst = max(worst, expected - result.comparator_loss - bound_term)
    if worst > 1e-6:
        return CheckResult("hedge exact bound", False, f"bound violated by {worst:.2e}")
    return CheckResult("hedge exact bound", True, f"{plan.count} scenarios; worst slack {worst:.1f}")


def check_killer_regression(scale: Scale = DESK) -> CheckResult:
    """The deterministic baselines run as learner rows through `trial_loop` on
    the killer moving second, as ftl-greedy runs, priced as `_run_seeds` does."""
    n, horizon = scale["killer"].sites, scale["killer"].horizon
    cfg = GameConfig(n, horizon, 1.0, 1.0)
    for name, learner in (("ftl-greedy", FollowTheLeaderGreedy), ("cheapest-singleton", CheapestSingleton)):
        source = KillerSource(n, use_current_action=True)
        actions = trial_loop(learner(cfg), (np.random.default_rng(0),), horizon, source)[3]
        history = source.realized(actions)
        avg = sum(action_losses(history, actions).tolist()) / horizon  # summed trial by trial
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
    actions = trial_loop(learner, (rng,), horizon, source)[3]
    killer = source.realized(actions)
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
    """Four fl-fixed K=1 rows on N=3 through `trial_loop`, each on costs of
    its own, as the fl family runs on the killer: one search of the rows'
    recorded weights per trial, and the surrogate's gather of every row's
    permutation. The source copies the weights when the loop asks it for a
    trial's costs, after the play and before the update, so they are the
    weights the trial was played at. At each of them, each row's exact
    expected loss must stay under the surrogate loss its update returns."""
    rng = np.random.default_rng(31)
    rows, n, horizon = 4, 3, 25
    learner = LearnerBatch(GameConfig(n, 50, 1.0, 1.0), "fl-fixed", rows, 1)  # T = 50 gives 2 draws per row
    trials = []  # the weights each trial was played at, and its costs

    def source(t, actions):
        costs = CostRows(rng.uniform(0.0, 1.0, (rows, n)), rng.uniform(0.0, 1.0, (rows, n)))
        trials.append((learner.weights.copy(), costs))
        return costs

    values = trial_loop(learner, UniformStreams(range(rows)), horizon, source)[1]
    expected = [[exact_expected_loss(p, 2, costs[r]) for r, p in enumerate(weights)] for weights, costs in trials]
    worst = float((np.array(expected) - values).max())
    detail = f"{horizon} trials of {rows} rows; max E - lambda = {worst:.1e}"
    return CheckResult("learner-level dominance", worst <= 1e-9, detail)


def check_sort_round_trip(scale: Scale = DESK) -> CheckResult:
    rng = np.random.default_rng(37)
    arrays = []
    for _ in range(50):
        rows, n = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        arrays.append(rng.choice(rng.uniform(0.0, 1.0, max(1, n // 2)), size=(rows, n)))  # force ties
    for n in (2048, 4096):  # packed-key sizes, as `olfl bench` sorts
        d = rng.uniform(0.0, 1.0, (3, n))
        d[1, rng.integers(n, size=8)] = d[1, rng.integers(n, size=8)]  # force ties
        d[2, [n // 3, n - 1]] = 0.5, np.nextafter(0.5, 1.0)  # a pair apart in the last bit
        arrays.append(d)
    for d in arrays:
        rows, n = d.shape
        order = connection_order(d)
        if not np.array_equal(np.sort(order, axis=1), np.tile(np.arange(n), (rows, 1))):
            return CheckResult("descending sort", False, "not a permutation")
        if np.any(np.diff(np.take_along_axis(d, order, axis=1), axis=1) > 0):
            return CheckResult("descending sort", False, "not descending")
        if not np.array_equal(order, connection_order(d)):
            return CheckResult("descending sort", False, "not deterministic under ties")
    return CheckResult(
        "descending sort",
        True,
        "50 arrays of 1-4 rows with ties, and 2048 and 4096 sites with ties and last-bit pairs: "
        "permutation, order, determinism",
    )


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
