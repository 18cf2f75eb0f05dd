"""Brute-force references: exact but exponential-cost counterparts of the
efficient learners, used to verify them at desk scale.

- ExactHedge: exponential weights over all 2^N - 1 nonempty subsets.
- ftl_greedy_play / cheapest_singleton_play: deterministic follow-the-leader
  baselines (both provably beatable by an adaptive adversary), and
  FollowTheLeaderGreedy, which replays the greedy leader as a learner.
- best_fixed_subset: the in-hindsight comparator. Up to the site cap it
  prices all 2^N bitmasks in one subset-lattice pass per distinct cost row;
  above the cap a cardinality-restricted scan enumerates combinations.
- exact_expected_loss: the true expectation of the draw-and-deduplicate
  action rule, by enumerating every ordered draw sequence.

Hard caps keep the enumerations at desk scale; beyond them the functions
refuse rather than grind.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapExceededError, ConfigError, ProtocolError
from .game import CostPair, GameConfig, SiteSet, facility_loss

BRUTE_FORCE_SITE_CAP = 16
ENUMERATION_CAP = 1_000_000
COMBINATION_CAP = 2_000_000


def _subset_members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _subset_lattice(opening_sums: np.ndarray, rows: np.ndarray, counts) -> np.ndarray:
    """Loss of every bitmask 0..2^N - 1, indexed by mask (bit j is site j+1;
    mask 0 is inf): sum_r counts[r] * min over the mask of rows[r], plus the
    opening sums.

    The masks with top bit j are the masks below 2^j plus site j, so each
    table doubles one site at a time: min over S = min(min over S minus j,
    d_j), and the opening sum gains c_j. Rows are priced one at a time in a
    reused buffer, which keeps memory at two arrays of 2^N floats.
    """
    size = 1 << opening_sums.size
    total = np.zeros(size)
    buf = np.empty(size)
    halves = [(buf[: 1 << j], buf[1 << j : 2 << j]) for j in range(opening_sums.size)]
    buf[0] = np.inf
    for row, count in zip(rows.tolist(), counts):
        for (low, high), d in zip(halves, row):
            np.minimum(low, d, out=high)
        if count != 1:
            buf *= count
        total += buf
    buf[0] = 0.0
    for (low, high), c in zip(halves, opening_sums):
        np.add(low, c, out=high)
    total += buf
    return total


def _cardinalities(n: int) -> np.ndarray:
    """Popcount of every bitmask 0..2^N - 1."""
    cards = np.empty(1 << n, dtype=np.int8)
    cards[0] = 0
    for j in range(n):
        np.add(cards[: 1 << j], 1, out=cards[1 << j : 2 << j])
    return cards


class ExactHedge:
    """Exponential weights over every nonempty subset, with exact bookkeeping.

    Losses are scaled into [0, 1] by N*C + D before the exponential step;
    the learning rate sqrt(8 ln(2^N - 1) / T) then gives cumulative expected
    regret at most (N*C + D) * sqrt(T * ln(2^N - 1) / 2).
    """

    def __init__(self, cfg: GameConfig, cap: int = BRUTE_FORCE_SITE_CAP):
        if cfg.n_sites > cap:
            raise CapExceededError(
                f"{cfg.n_sites} sites needs {2 ** cfg.n_sites - 1} subset weights; cap is {cap} sites"
            )
        self.cfg = cfg
        n = cfg.n_sites
        self.n_subsets = (1 << n) - 1
        self.weights = np.full(self.n_subsets, 1.0 / self.n_subsets)
        self.learning_rate = math.sqrt(8.0 * math.log(self.n_subsets) / cfg.horizon)
        self.loss_scale = n * cfg.opening_max + cfg.connection_max
        self._awaiting_update = False

    def subset_losses(self, costs: CostPair) -> np.ndarray:
        """Facility loss of every nonempty subset, in bitmask order."""
        return _subset_lattice(costs.opening, costs.connection[None, :], (1,))[1:]

    def expected_loss(self, costs: CostPair) -> float:
        return float(self.weights @ self.subset_losses(costs))

    def play(self, rng: np.random.Generator) -> SiteSet:
        if self._awaiting_update:
            raise ProtocolError("play called again before update")
        self._awaiting_update = True
        p = self.weights / self.weights.sum()
        mask = int(rng.choice(self.n_subsets, p=p)) + 1
        return SiteSet(_subset_members(mask))

    def update(self, costs: CostPair) -> float:
        """Exponential step; returns the pre-update expected loss."""
        if not self._awaiting_update:
            raise ProtocolError("update called before play")
        self._awaiting_update = False
        losses = self.subset_losses(costs)
        expected = float(self.weights @ losses)
        w = self.weights * np.exp(-self.learning_rate * losses / self.loss_scale)
        self.weights = w / w.sum()
        return expected

    def state(self) -> tuple[None, None, None]:
        """(scale, cardinality, segment): no doubling, no cardinality."""
        return None, None, None


def _history_arrays(history) -> tuple[np.ndarray, np.ndarray]:
    if not history:
        raise ConfigError("history must be nonempty")
    opening = np.stack([cp.opening for cp in history])
    connection = np.stack([cp.connection for cp in history])
    return opening, connection


def ftl_greedy_play(history) -> SiteSet:
    """Follow the leader, with the leader approximated greedily: best
    singleton, then best-improvement additions while the cumulative loss
    strictly drops. {1} on an empty history."""
    if not history:
        return SiteSet((1,))
    opening, connection = _history_arrays(history)
    cum_open = opening.sum(axis=0)
    totals = cum_open + connection.sum(axis=0)
    best = int(np.argmin(totals))
    members = [best]
    current_min = connection[:, best].copy()
    current_obj = float(totals[best])
    n = cum_open.size
    while len(members) < n:
        open_so_far = float(cum_open[members].sum())
        cand_obj = open_so_far + cum_open + np.minimum(current_min[:, None], connection).sum(axis=0)
        cand_obj[members] = np.inf
        k = int(np.argmin(cand_obj))
        if not cand_obj[k] < current_obj:
            break
        members.append(k)
        current_min = np.minimum(current_min, connection[:, k])
        current_obj = float(cand_obj[k])
    return SiteSet.of(i + 1 for i in members)


class FollowTheLeaderGreedy:
    """Deterministic baseline: replays the greedy leader of the history."""

    def __init__(self, cfg: GameConfig):
        self.cfg = cfg
        self._history: list[CostPair] = []
        self._awaiting_update = False

    def play(self, rng=None) -> SiteSet:
        if self._awaiting_update:
            raise ProtocolError("play called again before update")
        self._awaiting_update = True
        return ftl_greedy_play(self._history)

    def update(self, costs: CostPair) -> None:
        if not self._awaiting_update:
            raise ProtocolError("update called before play")
        self._awaiting_update = False
        self._history.append(costs)
        return None

    def state(self) -> tuple[None, None, None]:
        """(scale, cardinality, segment): no doubling, no cardinality."""
        return None, None, None


def cheapest_singleton_play(history) -> SiteSet:
    """The singleton with the least cumulative loss so far; {1} when empty."""
    if not history:
        return SiteSet((1,))
    opening, connection = _history_arrays(history)
    return SiteSet((int(np.argmin(opening.sum(axis=0) + connection.sum(axis=0))) + 1,))


def best_fixed_subset(
    history,
    max_card: int | None = None,
    exact_card: int | None = None,
    site_cap: int = BRUTE_FORCE_SITE_CAP,
) -> tuple[SiteSet, float]:
    """In-hindsight comparator: the nonempty subset minimizing cumulative
    facility loss, ties broken by smaller cardinality then lexicographic
    members.

    `max_card` / `exact_card` restrict the candidate cardinalities. Up to
    `site_cap` sites every bitmask is priced exactly by one subset-lattice
    pass per distinct connection row (repeated rows are counted, not
    rescanned), and the restriction masks out the other cardinalities.
    Above the cap only a restricted scan is allowed: it enumerates the
    candidate combinations while their count stays within bounds.
    """
    opening, connection = _history_arrays(history)
    n = opening.shape[1]
    cum_open = opening.sum(axis=0)
    if max_card is not None and exact_card is not None:
        raise ConfigError("pass at most one of max_card and exact_card")

    if max_card is None and exact_card is None:
        if n > site_cap:
            raise CapExceededError(
                f"{n} sites exceeds brute-force cap {site_cap}; restrict the cardinality"
            )
        candidate_cards = range(1, n + 1)
    else:
        limit = exact_card if exact_card is not None else max_card
        if not 1 <= limit <= n:
            raise ConfigError(f"cardinality restriction must be in 1..{n}, got {limit!r}")
        candidate_cards = (limit,) if exact_card is not None else range(1, limit + 1)
        count = sum(math.comb(n, k) for k in candidate_cards)
        if count > COMBINATION_CAP:
            raise CapExceededError(f"{count} candidate subsets exceeds cap {COMBINATION_CAP}")

    if n <= site_cap:
        rows, counts = np.unique(connection, axis=0, return_counts=True)
        losses = _subset_lattice(cum_open, rows, counts)
        cards = _cardinalities(n)
        losses[~np.isin(cards, candidate_cards)] = np.inf
        best_cost = losses.min()
        ties = np.flatnonzero(losses == best_cost)
        ties = ties[cards[ties] == cards[ties].min()]
        mask = min((int(m) for m in ties), key=_subset_members)
        return SiteSet(_subset_members(mask)), float(best_cost)

    best_cost = math.inf
    best_members: tuple[int, ...] | None = None
    for card in candidate_cards:
        for combo in itertools.combinations(range(n), card):
            idx = list(combo)
            cost = float(cum_open[idx].sum() + connection[:, idx].min(axis=1).sum())
            members = tuple(i + 1 for i in combo)
            if cost < best_cost or (
                cost == best_cost
                and best_members is not None
                and (card, members) < (len(best_members), best_members)
            ):
                best_cost = cost
                best_members = members
    assert best_members is not None
    return SiteSet(best_members), best_cost


def exact_expected_loss(p, num_draws: int, costs: CostPair) -> float:
    """True expected facility loss of 'draw num_draws sites i.i.d. from p and
    play the distinct ones', by enumerating all N^num_draws ordered draws."""
    p = np.asarray(p, dtype=float)
    n = p.size
    if not isinstance(num_draws, int) or num_draws < 1:
        raise ConfigError(f"num_draws must be a positive integer, got {num_draws!r}")
    if n != costs.n_sites:
        raise ConfigError(f"p has {n} entries, costs have {costs.n_sites} sites")
    if n ** num_draws > ENUMERATION_CAP:
        raise CapExceededError(
            f"{n}^{num_draws} ordered draw sequences exceeds cap {ENUMERATION_CAP}"
        )
    loss_of: dict[tuple[int, ...], float] = {}
    total = 0.0
    for seq in itertools.product(range(n), repeat=num_draws):
        prob = math.prod(p[s] for s in seq)
        if prob == 0.0:
            continue
        members = tuple(sorted(set(seq)))
        loss = loss_of.get(members)
        if loss is None:
            loss = facility_loss(costs, SiteSet(tuple(i + 1 for i in members)))
            loss_of[members] = loss
        total += prob * loss
    return total
