"""The facility-location learners, as one seed-batched core.

`LearnerBatch` runs S independent learners of one kind as one array
program over an (S, n) weight array. Row r is one learner: its weights, its
draw count, learning rate and gradient bound, and for `fl` its scale guess,
accumulator and segment. Each trial makes one row-wise pass per stage,
with a number of numpy calls that does not grow with S: every row draws its
sites in one flat inverse-CDF search, reading its uniforms from its own
generator (or from its row of a `UniformStreams`, which prefetches them;
only generators private to one run may be read that way, since prefetching
leaves them ahead); one sorted pass deduplicates the draws into CSR actions
(`play` returns `ActionRows`, which reads as one SiteSet per row); the costs are sorted once when all rows share them, row-wise when
each row has its own; the surrogate value and gradient and the
exponentiated-gradient step run on all rows at once; and doubling restarts
reset the rows that crossed their threshold through a mask. Rows never mix,
so a row follows the same trajectory whichever rows share its batch.

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

from .eg import eg_rows, starting_point
from .errors import ConfigError, ProtocolError
from .game import ActionRows, CostPair, CostRows, GameConfig, SiteSet
from .sampler import draw_flat
from .sampler import sample_site_multiset  # noqa: F401  kept: the benchmark's span tracer looks it up here
from .surrogate import surrogate_rows

KINDS = ("fl-fixed", "fl-bounded", "fl")


def half_log_ceil(horizon: int) -> int:
    """ceil(ln(horizon)/2), floored at 1 so a degenerate horizon still acts."""
    return max(1, math.ceil(math.log(horizon) / 2.0))


class LearnerBatch:
    """`rows` independent facility learners of one kind, one per row.

    `cfg` is the real game. The rows learn on `self.cfg`: the real game for
    fl-fixed, the game extended with the aggregate dummy site (opening 0,
    connection C + D) otherwise. `cardinality` is K for fl-fixed and
    fl-bounded; fl derives each row's budget from its scale guess.

    Memory is the (S, n) weights plus a 4 x (S, n) work space that the
    surrogate reuses every trial, and outside fl-fixed a 2 x (S, n) cost
    buffer whose aggregate-dummy column is written once, so a trial
    allocates no other S x n temporaries besides the new weights, the sort
    and the sampler's sums.
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
        if not isinstance(rows, int) or rows < 1:
            raise ConfigError(f"rows must be a positive integer, got {rows!r}")
        n, c, d = cfg.n_sites, cfg.opening_max, cfg.connection_max
        self.rows = rows
        self.n_real = n
        multiplicity = None
        self.cfg = cfg
        if kind != "fl-fixed":
            self.cfg = GameConfig(n + 1, cfg.horizon, c, c + d)
            multiplicity = np.append(np.ones(n), n)
        self._start, self._rate = starting_point(self.cfg.n_sites, cfg.horizon, multiplicity)
        self._draws_per_unit = half_log_ceil(cfg.horizon)  # per unit of cardinality
        self._awaiting_update = False
        self.w = np.tile(self._start, (rows, 1))
        self._scratch = np.empty((4,) + self.w.shape)  # the surrogate's work space
        self._pair_costs = self._row_costs = None  # opening, connection on the extended game
        if kind != "fl-fixed":
            # the aggregate dummy's opening 0 and connection C + D are written
            # once; each trial copies the real columns in front of them
            self._pair_costs = np.zeros((2, n + 1))
            self._row_costs = np.zeros((2, rows, n + 1))
            self._pair_costs[1, n] = self._row_costs[1, :, n] = c + d
        self.scale = None  # no doubling state outside fl
        if kind == "fl":
            self.slope = self._draws_per_unit * (4.0 * c + 2.0 * d)  # a
            self.base = c + d  # b
            self.threshold_unit = 2.0 * (self.slope + self.base) * math.sqrt(math.log(2 * n) * cfg.horizon)
            self.scale = np.ones(rows, dtype=np.int64)
            self.segment = np.zeros(rows, dtype=np.int64)
            self.accumulated = np.zeros(rows)
            self.segment_starts = [[1] for _ in range(rows)]  # trial index opening each segment
            self.trials_seen = 0
            self.cardinality = self.budget_for(self.scale)
        else:
            self.cardinality = np.full(rows, cardinality, dtype=np.int64)
        self._tune()

    def _tune(self) -> None:
        """Per-row draw count, gradient bound and learning rate from the
        row's cardinality."""
        self.num_draws = self.cardinality * self._draws_per_unit
        # the sampler's count: one int while every row draws alike
        first = int(self.num_draws[0])
        self._draws = first if (self.num_draws == first).all() else self.num_draws
        stride = self.cfg.n_sites + 1  # row r's draw of site i is key r * stride + i
        self._row_starts = np.arange(0, (self.rows + 1) * stride, stride)
        self._draw_offsets = np.repeat(self._row_starts[:-1], self._draws)
        self.grad_bound = (self.cfg.opening_max + self.cfg.connection_max) * self.num_draws
        self.lr = self._rate / self.grad_bound

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
        return self.w.nbytes

    def state(self) -> list[tuple[int | None, int, int | None]]:
        """(scale, cardinality, segment) per row; scale and segment are None
        outside fl."""
        scale, cardinality, segment = self.state_rows()
        if scale is None:
            return [(None, k, None) for k in cardinality.tolist()]
        return list(zip(scale.tolist(), cardinality.tolist(), segment.tolist()))

    def state_rows(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
        """The per-row (scale, cardinality, segment) arrays, live; scale and
        segment are None outside fl."""
        if self.scale is None:
            return None, self.cardinality, None
        return self.scale, self.cardinality, self.segment

    def play(self, rngs) -> ActionRows:
        """One action per row, row r drawing from generator rngs[r], or from
        row r of a `UniformStreams`."""
        if self._awaiting_update:
            raise ProtocolError("play called again before update")
        if len(rngs) != self.rows:
            raise ConfigError(f"{len(rngs)} generators for {self.rows} rows")
        self._awaiting_update = True
        # one sorted pass keeps each row's distinct sites, in row order
        keys = np.unique(draw_flat(self.w, self._draws, rngs) + self._draw_offsets)
        stride = self.cfg.n_sites + 1
        real = keys[keys % stride <= self.n_real]  # a dummy draw is stripped
        ptr = real.searchsorted(self._row_starts)
        if real.size < keys.size:
            empty = np.flatnonzero(ptr[1:] == ptr[:-1])
            if empty.size:  # {1} where nothing real was drawn
                real = np.sort(np.concatenate([real, self._row_starts[empty] + 1]))
                ptr = real.searchsorted(self._row_starts)
        return ActionRows(ptr, real % stride)

    def update(self, costs: CostPair | CostRows) -> list[float]:
        """Surrogate step on this trial's costs, one CostPair shared by every
        row or CostRows with one row per learner row; returns each row's
        surrogate loss at its pre-update weights."""
        if not self._awaiting_update:
            raise ProtocolError("update called before play")
        self._awaiting_update = False
        if not isinstance(costs, (CostPair, CostRows)):
            raise ConfigError(f"costs must be a CostPair or CostRows, got {type(costs).__name__}")
        if isinstance(costs, CostRows) and len(costs) != self.rows:
            raise ConfigError(f"{len(costs)} cost rows for {self.rows} rows")
        if costs.n_sites != self.n_real:
            raise ConfigError(f"costs for {costs.n_sites} sites, expected {self.n_real}")
        opening, connection = costs.opening, costs.connection
        if self._pair_costs is not None:
            extended = self._pair_costs if isinstance(costs, CostPair) else self._row_costs
            extended[0, ..., : self.n_real] = opening
            extended[1, ..., : self.n_real] = connection
            opening, connection = extended
        # the surrogate does not depend on how tied connection costs are
        # ordered, so the faster unstable sort serves here
        order = np.argsort(-connection, axis=-1)
        values, grads = surrogate_rows(opening, connection, order, self.w, self.num_draws, self._scratch)
        self.w = eg_rows(self.w, grads, self.lr, self.grad_bound)
        if self.scale is not None:
            self._advance_segments(values)
        return values.tolist()

    def _advance_segments(self, values: np.ndarray) -> None:
        """Accumulate the surrogate losses; every row whose segment total
        reaches its threshold doubles its scale and restarts from scratch
        (starting weights, zero accumulator) at the new budget."""
        self.trials_seen += 1
        self.accumulated += values
        crossed = self.accumulated >= self.scale * self.threshold_unit
        if not crossed.any():
            return
        self.scale[crossed] *= 2
        self.segment[crossed] += 1
        self.accumulated[crossed] = 0.0
        for r in np.flatnonzero(crossed).tolist():
            self.segment_starts[r].append(self.trials_seen + 1)
        self.cardinality = self.budget_for(self.scale)
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

    def state(self) -> tuple[int | None, int, int | None]:
        """(scale, cardinality, segment); scale and segment are None outside fl."""
        return self._inner.state()[0]

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
