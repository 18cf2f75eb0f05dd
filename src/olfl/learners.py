"""The facility-location learners, as one seed-batched core.

`LearnerBatch` runs independent learners of one kind as one array program
over an (S, n) weight array. Row r is one weight trajectory: its weights,
its draw count, learning rate and gradient bound, and for `fl` its scale
guess, accumulator and segment. The weights move with the costs alone, not
with the draws, so learners that see the same costs share one trajectory:
a batch of one row draws an action for every generator it is handed, and S
learners on one oblivious cost sequence are one row drawing S actions. A
batch of S rows draws row r's action from generator r.

Each trial makes one row-wise pass per stage, with a number of numpy calls
that does not grow with the number of actions: every action's sites come
from one inverse-CDF search of the recorded weight rows
(`sampler.RecordedRows.search`), reading each action's uniforms from its
own generator (or from its row of a `UniformStreams`, which prefetches
them; only generators private to one run may be read that way, since
prefetching leaves them ahead); one in-place sort along the rows of draws,
one row per action, deduplicates them into CSR actions (`play` returns
`ActionRows`, which reads as one SiteSet per action); the surrogate's cost
side extends and sorts each row's costs along the row; its weight side and
the exponentiated-gradient step run on all rows at once; and doubling
restarts reset the rows that crossed their threshold through a mask. Rows
never mix, so a row follows the same trajectory whichever rows share its
batch, and an action is the same whether its generator draws from its own
row or from the one row every generator shares.

Every batch draws through `sampler.RecordedRows`, which checks the weight
rows as it records them. A batch of S rows records its trial's S rows and
searches them once, row r's uniforms laid out as one row of the widest
draw count. A one-row batch's `play` records the weight row and draws it
as a block of one trial; `record` instead checks and records a trial's
row without drawing (the row, and each generator's next uniforms, fix the
trial's actions), and the next `play` draws every generator's actions for
all recorded trials at once (on narrow rows by counting the cumulative
sums at or below each scaled uniform, which is the search's answer),
through the same dedup, dummy strip and {1} fallback, so the actions are
the same bit for bit. A block of recorded trials ends when it is full or
when a restart changes the draw count. The cost side depends on the costs alone, so on a shared
scenario `prepare` builds it for a block of trials at once, and `update`
takes one trial's `Prepared` row in place of its costs. A one-row batch
checks, steps and records its (n,) row views, through the same weight
check, weight side and step as S rows.

Kinds:

- "fl-fixed": competes with the best fixed K-subset. Per trial a row draws
  `num_draws = K * ceil(ln(T)/2)` sites with replacement from its weights
  and plays the distinct draws; the update feeds the convex surrogate's
  value and gradient to the step.
- "fl-bounded": competes with every nonempty subset of at most K sites by
  learning on an instance extended with N "dummy" sites that are free to
  open but too expensive to connect (d = C + D). The dummies share every
  cost, so they share every gradient and their weights stay equal; a row
  keeps them as one aggregate site N+1 of multiplicity N, holding their
  total mass, and tunes for 2N experts. A dummy draw is stripped from the
  played set, with {1} as a fallback when nothing real was drawn.
- "fl": the bounded learner under a doubling guess of the comparator scale.
  A row doubles its guess, with a fresh restart at the matching cardinality
  budget, whenever the accumulated surrogate loss of its current segment
  crosses 2 * (a + b) * scale * sqrt(ln(2N) * T).

FixedCardinalityLearner, BoundedCardinalityLearner and DoublingLearner are
batches of one behind the scalar play(rng) / update(costs) interface. They
draw from the caller's generator, which advances by exactly num_draws
uniforms per play. Every learner enforces strict play/update alternation.
"""
from __future__ import annotations

import math

import numpy as np

from .eg import Step, starting_point
from .errors import ConfigError, ProtocolError
from .game import ActionRows, CostPair, CostRows, GameConfig, LearnerRows, SiteSet
from .game import refuse_cost_bounds
from .sampler import RecordedRows, uniforms
from .sampler import sample_site_multiset  # noqa: F401  kept: the benchmark's span tracer looks it up here
from .surrogate import Workspace, prepare_costs, surrogate_rows

KINDS = ("fl-fixed", "fl-bounded", "fl")


class Prepared(tuple):
    """One trial's cost side for a one-row batch, (opening, order, steps,
    last) as `prepare_costs` returns them for one row: a row of a block
    that `LearnerBatch.prepare` made, which `update` takes in place of the
    trial's costs."""

    __slots__ = ()


def half_log_ceil(horizon: int) -> int:
    """ceil(ln(horizon)/2), floored at 1 so a degenerate horizon still acts."""
    return max(1, math.ceil(math.log(horizon) / 2.0))


class LearnerBatch(LearnerRows):
    """`rows` independent weight trajectories of facility learners of one
    kind; one row serves any number of generators.

    `cfg` is the real game. The rows learn on `self.cfg`: the real game for
    fl-fixed, the game extended with the aggregate dummy site (opening 0,
    connection C + D) otherwise. `cardinality` is K for fl-fixed and
    fl-bounded; fl derives each row's budget from its scale guess.

    Memory is the (S, n) weights of the S rows and the (n,) starting
    weights, plus the surrogate's `Workspace` (a 4 x (S, n) scratch that
    every trial reuses, and outside fl-fixed a 2 x (S, n) cost buffer whose
    aggregate-dummy column is written once) and the draw buffer (the
    complex search keys of `RecordedRows`, (S, n) for S rows and (1, n) for
    one row, widened to a block's (b, n) at the first `record`);
    `state_nbytes` counts them all. A trial allocates no other S x n
    temporaries besides the new weights, the sort and the draws; a block
    `prepare` makes is the caller's, in a Workspace of its own of at most a
    recorded block's b rows. This state depends only on the shape and the
    draw counts: it is built in `__init__`, and again in `_tune` when a
    restart changes the draw counts (with the index that lays S rows' draws
    out one row per action, and the step's constants). None of it grows
    with the number of generators a one-row batch draws for.

    The weights are checked once per trial, where they are first read: the
    sampler's `record`, in `play` or in `record`, refuses a negative or
    non-finite entry or a row whose total is not 1 (`accumulate_checked`).
    Only `update` replaces them, and only after that check, so the surrogate
    and the step take them unchecked; the step still checks the gradients
    it is given and the normalizer it makes.
    """

    def __init__(self, cfg: GameConfig, kind: str, rows: int, cardinality: int | None = None):
        if kind not in KINDS:
            raise ConfigError(f"unknown learner kind {kind!r}; known: {', '.join(KINDS)}")
        if kind == "fl":
            if cardinality is not None:
                raise ConfigError("fl picks its own cardinality budget")
        elif not isinstance(cardinality, int) or not 1 <= cardinality <= cfg.n_sites:
            label = "cardinality" if kind == "fl-fixed" else "max_cardinality"
            raise ConfigError(f"{label} must be an integer in 1..{cfg.n_sites}, got {cardinality!r}")
        super().__init__(rows, cfg.n_sites)
        n, c, d = cfg.n_sites, cfg.opening_max, cfg.connection_max
        multiplicity = None
        self.cfg = cfg
        if kind != "fl-fixed":
            self.cfg = GameConfig(n + 1, cfg.horizon, c, c + d)
            multiplicity = np.append(np.ones(n), n)
        self._start, self._rate = starting_point(self.cfg.n_sites, cfg.horizon, multiplicity)
        self._draws_per_unit = half_log_ceil(cfg.horizon)  # per unit of cardinality
        if kind == "fl":
            self.slope = self._draws_per_unit * (4.0 * c + 2.0 * d)  # a
            self.base = c + d  # b
            self.threshold_unit = 2.0 * (self.slope + self.base) * math.sqrt(math.log(2 * n) * cfg.horizon)
        self._refuse_cost_range(cfg, kind, (1, n) if kind == "fl" else (cardinality,))
        self.w = np.tile(self._start, (rows, 1))
        # the aggregate dummy's connection cost, which each prepared row ends with
        self._dummy = None if kind == "fl-fixed" else c + d
        # a one-row batch steps its row views
        self._space = Workspace(self.w.shape[1:] if rows == 1 else self.w.shape, self._dummy)
        self._recorded = RecordedRows(self.cfg.n_sites, rows)
        self.scale = self.segment = None  # no doubling state outside fl
        if kind == "fl":
            self.scale = np.ones(rows, dtype=np.int64)
            self.segment = np.zeros(rows, dtype=np.int64)
            self.accumulated = np.zeros(rows)
            self.segment_starts = [[1] for _ in range(rows)]  # trial index opening each segment
            self.trials_seen = 0
            self.cardinality = self.budget_for(self.scale)
        else:
            self.cardinality = np.full(rows, cardinality, dtype=np.int64)
        self._tune()

    def _tuning(self, cardinality):
        """Draw count, gradient bound and learning rate at `cardinality`, an
        int or one per row."""
        num_draws = cardinality * self._draws_per_unit
        grad_bound = (self.cfg.opening_max + self.cfg.connection_max) * num_draws
        return num_draws, grad_bound, self._rate / grad_bound

    def _refuse_cost_range(self, cfg: GameConfig, kind: str, cardinalities: tuple[int, ...]) -> None:
        """Refuse the real game's cost bounds if a row would derive from them
        a gradient bound or learning rate, at the extremes of the
        cardinalities it can reach, or an fl segment threshold that is not
        finite and positive, before numpy warns of it mid-run. Python floats
        overflow to inf and underflow to 0 without a warning. A learning
        rate of 0 is refused only where sqrt(ln(experts) / T) is positive:
        one fl-fixed site has nothing to learn."""
        derived = [("segment threshold", self.threshold_unit, True)] if kind == "fl" else []
        for k in cardinalities:
            _, grad_bound, lr = self._tuning(k)
            derived += [("gradient bound", grad_bound, True), ("learning rate", lr, self._rate > 0)]
        refuse_cost_bounds(cfg, derived)

    def _tune(self) -> None:
        """Per-row draw count, gradient bound and learning rate from the
        row's cardinality."""
        self.num_draws, self.grad_bound, self.lr = self._tuning(self.cardinality)
        self._step = Step(self.lr, self.grad_bound)
        # the sampler's count and the surrogate's exponent: one int while
        # every row draws alike
        first = int(self.num_draws[0])
        self._draws = first if np.logical_and.reduce(self.num_draws == first) else self.num_draws
        # for S rows, row r's uniforms, flat at first[r] .. first[r] +
        # counts[r] - 1, as one row of the widest count, padded with repeats
        # of its last uniform, whose draws repeat its last draw, which the
        # dedup drops
        counts = np.broadcast_to(self._draws, self.rows)
        first = np.add.accumulate(counts) - counts
        self._rows_of_draws = first[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)

    def budget_for(self, scale: np.ndarray) -> np.ndarray:
        """Cardinality budget K = ceil((scale*(a+b) - b)/a) per scale, written
        cancellation-free so scale = 1 yields exactly 1; clamped to N."""
        raw = np.ceil(scale + (scale - 1) * self.base / self.slope)
        return np.minimum(raw, self.n_real).astype(np.int64)

    @property
    def weights(self) -> np.ndarray:
        """Per-row weights over the N real sites, followed outside fl-fixed
        by the N dummies' equal shares of the aggregate site's mass."""
        if self.cfg.n_sites == self.n_real:
            return self.w
        n = self.n_real
        return np.concatenate([self.w[:, :n], np.repeat(self.w[:, n:] / n, n, axis=1)], axis=1)

    @property
    def state_nbytes(self) -> int:
        """Bytes of the (S, n) and (n,) arrays kept between trials, each base
        array once; the draw layouts and buffers, sized by the draws, are
        left out."""
        kept = (self.w, self._start, self._space.grad, self._recorded.keys)
        bases = {id(base): base for base in (a if a.base is None else a.base for a in kept)}
        return sum(base.nbytes for base in bases.values())

    def state_rows(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
        return self.scale, self.cardinality, self.segment

    def record(self, trial: int) -> bool:
        """Play trial `trial` (1-based) of a one-row batch without drawing:
        check its weight row and record it, so that a later `play` draws
        every generator's action for each recorded trial at once. The
        weights depend on the costs alone, so those are the actions a play
        now would draw. Returns False, and records nothing, when the
        recorded trials must be drawn first: their block is full, or a
        restart has changed the draw count since."""
        if self._awaiting_update:
            raise ProtocolError("play called again before update")
        if self.rows > 1:
            raise ConfigError(f"only a one-row batch records its trials, not {self.rows} rows")
        recorded = self._recorded
        if not recorded.size and recorded.cdf.shape[0] < recorded.capacity:  # a play needs one row, a block more
            recorded = self._recorded = RecordedRows(self.cfg.n_sites)
        self._awaiting_update = recorded.record(self.w, self._draws, trial)  # the one check of the weights this trial
        return self._awaiting_update

    def play(self, rngs) -> ActionRows:
        """One action per generator rngs[a], or per row a of a
        `UniformStreams`, drawn from weight row a, or from the one row when
        the batch has one row: then the trial's row is recorded and drawn
        as a block of one trial.

        With trials recorded (`record`) since the last play, it plays no
        new trial: it draws every generator's action for each recorded
        trial, trial-major (trial j's action for generator a is row
        j * len(rngs) + a), from each generator's uniforms in trial order."""
        recorded = self._recorded
        new = not recorded.size
        self._begin_play(rngs, new)
        if new:
            recorded.record(self.w, self._draws)  # the one check of the weights this trial
        if self.rows > 1:
            return self._site_rows(recorded.search(uniforms(rngs, self._draws)[self._rows_of_draws]))
        return self._site_rows(recorded.draw(rngs))

    def _site_rows(self, sites: np.ndarray) -> ActionRows:
        """The actions whose draws are the rows of `sites`, (actions, draws)
        1-based site indices, as CSR rows of their distinct real sites: one
        in-place sort of each row puts its distinct sites in order; a dummy
        draw, which sorts last, is stripped, and an action that drew only
        the dummy plays {1}."""
        sites.sort()
        draws = sites.shape[1]
        if self._dummy is not None:
            first = sites[:, 0]
            first[first > self.n_real] = 1  # {1} where nothing real was drawn
        flat, marks = sites.ravel(), np.empty(sites.size + 1, dtype=bool)
        marks[0], keep = False, marks[1:]  # keep[i]: draw i is kept; marks[0] starts the count at 0
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        keep[::draws] = True  # each action's first draw
        if self._dummy is not None:
            keep &= flat <= self.n_real  # a dummy draw is stripped
        ptr = np.add.accumulate(marks, dtype=np.intp)[::draws]  # the draws kept before each action
        return ActionRows(ptr, flat[keep])

    def prepare(self, costs: CostRows, start: int, stop: int) -> list[Prepared]:
        """The cost side of trials start .. stop - 1 of `costs`, a shared
        scenario with one row a trial, for a one-row batch: at most as many
        trials as a block of recorded trials holds, each a `Prepared` that
        `update` takes in place of its trial's costs. It is one
        `prepare_costs` call on the block's rows, in a Workspace of the
        block's own, and reads no weights, so it may run at any time."""
        if self.rows > 1:
            raise ConfigError(f"only a one-row batch prepares blocks of trials, not {self.rows} rows")
        if costs.n_sites != self.n_real:
            raise ConfigError(f"costs for {costs.n_sites} sites, expected {self.n_real}")
        rows = slice(start, min(stop, start + self._recorded.capacity))
        opening, connection = costs.opening[rows], costs.connection[rows]
        space = Workspace((len(opening), self.cfg.n_sites), self._dummy)
        opening, order, steps, last = prepare_costs(opening, connection, space)
        return list(map(Prepared, zip(opening, order, steps, last.tolist())))

    def update(self, costs: CostPair | CostRows | Prepared) -> list[float]:
        """Surrogate step on this trial's costs, a CostRows with one row per
        learner row (or a CostPair for a one-row batch), or for a one-row
        batch one trial of a block `prepare` made; returns each row's
        surrogate loss at its pre-update weights. A one-row batch steps its
        row views: its (n,) weights, costs and gradients."""
        one = self.rows == 1
        if type(costs) is Prepared:  # its cost side, already built
            if not self._awaiting_update:
                raise ProtocolError("update called before play")
            self._awaiting_update = False
        else:
            opening, connection = self._begin_update(costs)
            if one:
                opening, connection = opening[0], connection[0]
            costs = prepare_costs(opening, connection, self._space)
        w = self.w[0] if one else self.w
        values, grads = surrogate_rows(*costs, w, self._draws, self._space)
        w = self._step(w, grads)
        self.w = w[None] if one else w
        if self.scale is not None:
            self._advance_segments(values)
        return [float(values)] if one else values.tolist()

    def _advance_segments(self, values: np.ndarray) -> None:
        """Accumulate the surrogate losses; every row whose segment total
        reaches its threshold doubles its scale and restarts from scratch
        (starting weights, zero accumulator) at the new budget. The state
        rows change in place."""
        self.trials_seen += 1
        self.accumulated += values
        crossed = self.accumulated >= self.scale * self.threshold_unit
        if not np.logical_or.reduce(crossed):
            return
        self.scale[crossed] *= 2
        self.segment[crossed] += 1
        self.accumulated[crossed] = 0.0
        for r in crossed.nonzero()[0].tolist():
            self.segment_starts[r].append(self.trials_seen + 1)
        self.cardinality[:] = self.budget_for(self.scale)
        self._tune()
        self.w[crossed] = self._start


def _row0(name: str, cast=lambda value: value) -> property:
    """Row 0 of the core's per-row attribute `name`, for the batches of one."""
    return property(lambda self: cast(getattr(self._inner, name)[0]))


class _BatchOfOne:
    """One row of the core behind the scalar learner interface."""

    _inner: LearnerBatch
    weights = _row0("weights")
    num_draws = _row0("num_draws", int)

    @property
    def state_nbytes(self) -> int:
        return self._inner.state_nbytes

    def play(self, rng: np.random.Generator) -> SiteSet:
        return self._inner.play((rng,))[0]

    def update(self, costs: CostPair) -> float:
        """Surrogate step on this trial's costs; returns the surrogate loss
        at the pre-update weights."""
        return self._inner.update(costs)[0]


class FixedCardinalityLearner(_BatchOfOne):
    """Plays the distinct outcomes of num_draws weighted site draws per trial."""

    def __init__(self, cfg: GameConfig, cardinality: int):
        self._inner = LearnerBatch(cfg, "fl-fixed", 1, cardinality)
        self.cfg = cfg
        self.cardinality = cardinality


class BoundedCardinalityLearner(_BatchOfOne):
    """Fixed-cardinality learner on a dummy-extended instance; competes with
    every nonempty subset of at most max_cardinality real sites. `weights`
    covers the 2N-site extended instance: the N real sites, then N equal
    dummies sharing the aggregate site's mass."""

    def __init__(self, cfg: GameConfig, max_cardinality: int):
        self._inner = LearnerBatch(cfg, "fl-bounded", 1, max_cardinality)
        self.cfg = cfg
        self.max_cardinality = max_cardinality


class DoublingLearner(_BatchOfOne):
    """Bounded-cardinality learner under a doubling guess of comparator scale.

    The affine map scale = (a * K + b) / (a + b) with a = ceil(ln(T)/2) *
    (4C + 2D) and b = C + D prices a cardinality-K comparator; inverting it
    at the current scale guess sets the budget K = ceil((scale*(a+b) - b)/a),
    clamped to N. Crossing the segment threshold doubles the scale and
    restarts the inner learner from scratch (uniform weights, zero
    accumulator). `segment_starts` lists the trial opening each segment.
    """

    cardinality_budget = _row0("cardinality", int)
    segment = _row0("segment", int)
    segment_starts = _row0("segment_starts")
    accumulated = _row0("accumulated", float)

    def __init__(self, cfg: GameConfig):
        self._inner = LearnerBatch(cfg, "fl", 1)
        self.cfg = cfg

    @property
    def scale(self) -> int:
        return int(self._inner.scale[0])
