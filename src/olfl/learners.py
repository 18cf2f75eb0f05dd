"""The facility-location learner family.

Three layers, each wrapping the previous:

- FixedCardinalityLearner: competes with the best fixed K-subset. Per trial
  it draws `num_draws = K * ceil(ln(T)/2)` sites with replacement from an
  exponentiated-gradient weight vector and plays the distinct draws; the
  update feeds the convex surrogate's value and gradient to the inner step.
- BoundedCardinalityLearner: competes with every subset of size <= K by
  running the fixed learner on an instance extended with N "dummy" sites
  that are free to open but too expensive to connect (d = C + D). The
  dummies share every cost, so they share every gradient and their weights
  stay equal; the learner keeps them as one aggregate site N+1 of
  multiplicity N, holding their total mass, and tunes for 2N experts. A
  dummy draw is stripped from the played set, with {1} as a fallback when
  nothing real was drawn.
- DoublingLearner: guesses the comparator scale, running the bounded
  learner and doubling the guess (with a fresh restart at the matching
  cardinality budget) whenever the accumulated surrogate loss of the current
  segment crosses 2 * (a + b) * scale * sqrt(ln(2N) * T).

All three enforce strict play/update alternation.
"""
from __future__ import annotations

import math

import numpy as np

from .eg import ExponentiatedGradient
from .errors import ConfigError, ProtocolError
from .game import CostPair, GameConfig, SiteSet
from .sampler import sample_site_multiset
from .surrogate import SurrogateInstance, value_and_gradient


def half_log_ceil(horizon: int) -> int:
    """ceil(ln(horizon)/2), floored at 1 so a degenerate horizon still acts."""
    return max(1, math.ceil(math.log(horizon) / 2.0))


def restrict_to_real_sites(chosen: SiteSet, n_real: int) -> SiteSet:
    """Drop dummy indices above n_real; fall back to {1} if none remain."""
    real = tuple(i for i in chosen.members if i <= n_real)
    return SiteSet(real) if real else SiteSet((1,))


class FixedCardinalityLearner:
    """Plays the distinct outcomes of num_draws weighted site draws per trial."""

    def __init__(self, cfg: GameConfig, cardinality: int, multiplicity=None):
        """`multiplicity` counts the identical sites each coordinate stands
        for (see ExponentiatedGradient); all ones by default."""
        if not isinstance(cardinality, int) or not 1 <= cardinality <= cfg.n_sites:
            raise ConfigError(
                f"cardinality must be an integer in 1..{cfg.n_sites}, got {cardinality!r}"
            )
        self.cfg = cfg
        self.cardinality = cardinality
        self.num_draws = cardinality * half_log_ceil(cfg.horizon)
        grad_bound = (cfg.opening_max + cfg.connection_max) * self.num_draws
        self._inner = ExponentiatedGradient(cfg.n_sites, grad_bound, cfg.horizon, multiplicity)
        self._awaiting_update = False

    @property
    def weights(self) -> np.ndarray:
        return self._inner.w

    @property
    def state_nbytes(self) -> int:
        return self._inner.state_nbytes

    def play(self, rng: np.random.Generator) -> SiteSet:
        if self._awaiting_update:
            raise ProtocolError("play called again before update")
        self._awaiting_update = True
        return sample_site_multiset(self._inner.play(), self.num_draws, rng)

    def update(self, costs: CostPair) -> float:
        """Surrogate step on this trial's costs; returns the surrogate loss
        at the pre-update weights."""
        if not self._awaiting_update:
            raise ProtocolError("update called before play")
        self._awaiting_update = False
        if costs.n_sites != self.cfg.n_sites:
            raise ConfigError(f"costs for {costs.n_sites} sites, expected {self.cfg.n_sites}")
        inst = SurrogateInstance.from_costs(costs, self.num_draws)
        value, grad = value_and_gradient(inst, self._inner.w)
        return self._inner.update(value, grad)


class BoundedCardinalityLearner:
    """Fixed-cardinality learner on a dummy-extended instance; competes with
    every nonempty subset of at most max_cardinality real sites."""

    def __init__(self, cfg: GameConfig, max_cardinality: int):
        if not isinstance(max_cardinality, int) or not 1 <= max_cardinality <= cfg.n_sites:
            raise ConfigError(
                f"max_cardinality must be an integer in 1..{cfg.n_sites}, got {max_cardinality!r}"
            )
        self.cfg = cfg
        self.max_cardinality = max_cardinality
        self._dummy_connection = cfg.opening_max + cfg.connection_max
        n = cfg.n_sites
        extended = GameConfig(n + 1, cfg.horizon, cfg.opening_max, self._dummy_connection)
        self._inner = FixedCardinalityLearner(extended, max_cardinality, np.append(np.ones(n), n))

    @property
    def weights(self) -> np.ndarray:
        """Weights over the 2N-site extended instance: the N real sites, then
        N equal dummies sharing the aggregate site's mass."""
        n = self.cfg.n_sites
        w = self._inner.weights
        return np.concatenate([w[:n], np.full(n, w[n] / n)])

    @property
    def num_draws(self) -> int:
        return self._inner.num_draws

    @property
    def state_nbytes(self) -> int:
        return self._inner.state_nbytes

    def play(self, rng: np.random.Generator) -> SiteSet:
        return restrict_to_real_sites(self._inner.play(rng), self.cfg.n_sites)

    def update(self, costs: CostPair) -> float:
        """Returns the surrogate loss of the extended instance."""
        if costs.n_sites != self.cfg.n_sites:
            raise ConfigError(f"costs for {costs.n_sites} sites, expected {self.cfg.n_sites}")
        return self._inner.update(
            CostPair(
                np.append(costs.opening, 0.0),
                np.append(costs.connection, self._dummy_connection),
            )
        )


class DoublingLearner:
    """Bounded-cardinality learner under a doubling guess of comparator scale.

    The affine map scale = (a * K + b) / (a + b) with a = ceil(ln(T)/2) *
    (4C + 2D) and b = C + D prices a cardinality-K comparator; inverting it
    at the current scale guess sets the budget K = ceil((scale*(a+b) - b)/a),
    clamped to N. Crossing the segment threshold doubles the scale and
    restarts the inner learner from scratch (uniform weights, zero
    accumulator).
    """

    def __init__(self, cfg: GameConfig):
        self.cfg = cfg
        h = half_log_ceil(cfg.horizon)
        self._slope = h * (4.0 * cfg.opening_max + 2.0 * cfg.connection_max)  # a
        self._base = cfg.opening_max + cfg.connection_max  # b
        self._threshold_unit = (
            2.0 * (self._slope + self._base) * math.sqrt(math.log(2 * cfg.n_sites) * cfg.horizon)
        )
        self.scale = 1
        self.trials_seen = 0
        self.segment = 0
        self.segment_starts = [1]  # trial index opening each segment
        self.accumulated = 0.0
        self.cardinality_budget = self._budget_for_scale()
        self._inner = BoundedCardinalityLearner(cfg, self.cardinality_budget)

    def _budget_for_scale(self) -> int:
        # ceil((scale*(a+b) - b)/a) written cancellation-free, so scale = 1
        # yields exactly 1; clamped to the site count.
        raw = math.ceil(self.scale + (self.scale - 1) * self._base / self._slope)
        return min(raw, self.cfg.n_sites)

    def threshold(self) -> float:
        """Segment budget: 2 * (a + b) * scale * sqrt(ln(2N) * T)."""
        return self.scale * self._threshold_unit

    @property
    def weights(self) -> np.ndarray:
        return self._inner.weights

    @property
    def num_draws(self) -> int:
        return self._inner.num_draws

    @property
    def state_nbytes(self) -> int:
        return self._inner.state_nbytes

    def play(self, rng: np.random.Generator) -> SiteSet:
        return self._inner.play(rng)

    def update(self, costs: CostPair) -> float:
        value = self._inner.update(costs)
        self.trials_seen += 1
        self.accumulated += value
        if self.accumulated >= self.threshold():
            self.scale *= 2
            self.segment += 1
            self.segment_starts.append(self.trials_seen + 1)
            self.accumulated = 0.0
            self.cardinality_budget = self._budget_for_scale()
            self._inner = BoundedCardinalityLearner(self.cfg, self.cardinality_budget)
        return value
