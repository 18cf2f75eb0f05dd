"""Brute-force references: exact but exponential-cost counterparts of the
efficient learners, used to verify them at desk scale.

- ExactHedge: exponential weights over all 2^N - 1 nonempty subsets.
- ftl_greedy_play / cheapest_singleton_play: deterministic follow-the-leader
  baselines (both provably beatable by an adaptive adversary), and
  FollowTheLeaderGreedy, which replays the greedy leader as a learner.
  Both learners are batches of rows behind `game.LearnerRows`, the play /
  update protocol of the fl learners.
- best_fixed_subset: the in-hindsight comparator. Up to the site cap it
  prices all 2^N bitmasks in one superset-sum pass over the history; above
  the cap a cardinality-restricted scan, best_fixed_scan, enumerates
  combinations.
- exact_expected_loss: the true expectation of the draw-and-deduplicate
  action rule, by enumerating every ordered draw sequence.

Hard caps keep the enumerations at desk scale; beyond them the functions
refuse rather than grind.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapExceededError, ConfigError
from .game import ActionRows, CostPair, CostRows, GameConfig, LearnerRows, SiteSet, facility_loss
from .sampler import uniforms

BRUTE_FORCE_SITE_CAP = 16
ENUMERATION_CAP = 1_000_000
COMBINATION_CAP = 2_000_000


def _subset_members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _doubling_table(values: np.ndarray, op, empty: float) -> np.ndarray:
    """op folded over the sites of every bitmask 0..2^N - 1, indexed by mask
    (bit j is site j+1), with `empty` at mask 0.

    The masks with top bit j are the masks below 2^j plus site j, so the
    table doubles one site at a time."""
    table = np.empty(1 << values.size)
    table[0] = empty
    for j, value in enumerate(values.tolist()):
        op(table[: 1 << j], value, out=table[1 << j : 2 << j])
    return table


def _connection_sums(connection: np.ndarray) -> np.ndarray:
    """sum_t min over the mask of connection[t], for every bitmask 0..2^N - 1
    (mask 0 is inf), in one superset-sum pass over the (T, N) history.

    Sort row t so that d_v(1) >= ... >= d_v(N) and set d_v(N+1) = 0. Then
    for every subset S, min over S = sum_k (d_v(k) - d_v(k+1)) [S within
    {v(1), ..., v(k)}], and every step is >= 0. One bincount puts each step
    on its top-k mask, and the fast zeta transform (one vectorised add per
    site) sums every mask's table entries over the masks that contain it.
    Cost O(T*N + N*2^N). Steps between tied costs are zero, so the order
    the sort gives ties does not matter.
    """
    n = connection.shape[1]
    order = np.argsort(-connection, axis=1)
    ordered = np.take_along_axis(connection, order, axis=1)
    steps = ordered.copy()
    steps[:, :-1] -= ordered[:, 1:]
    masks = np.cumsum(np.left_shift(1, order), axis=1)
    sums = np.bincount(masks.ravel(), weights=steps.ravel(), minlength=1 << n)
    for j in range(n):
        pairs = sums.reshape(-1, 2, 1 << j)  # [:, 1] holds the masks with site j+1
        pairs[:, 0] += pairs[:, 1]
    sums[0] = np.inf
    return sums


def _cardinalities(n: int) -> np.ndarray:
    """Popcount of every bitmask 0..2^N - 1."""
    cards = np.empty(1 << n, dtype=np.int8)
    cards[0] = 0
    for j in range(n):
        np.add(cards[: 1 << j], 1, out=cards[1 << j : 2 << j])
    return cards


class ExactHedge(LearnerRows):
    """`rows` independent runs of exponential weights over every nonempty
    subset, with exact bookkeeping; row r of `weights` is run r.

    Losses are scaled into [0, 1] by N*C + D before the exponential step;
    the learning rate sqrt(8 ln(2^N - 1) / T) then gives cumulative expected
    regret at most (N*C + D) * sqrt(T * ln(2^N - 1) / 2). An action reads one
    uniform, with `Generator.choice`'s arithmetic. Rows are played and
    updated one at a time, so a trial's temporaries are a few 2^N vectors.
    """

    def __init__(self, cfg: GameConfig, rows: int = 1, cap: int = BRUTE_FORCE_SITE_CAP):
        if cfg.n_sites > cap:
            raise CapExceededError(
                f"{cfg.n_sites} sites needs {2 ** cfg.n_sites - 1} subset weights; cap is {cap} sites"
            )
        super().__init__(rows, cfg.n_sites)
        self.cfg = cfg
        n = cfg.n_sites
        self.n_subsets = (1 << n) - 1
        self.weights = np.full((rows, self.n_subsets), 1.0 / self.n_subsets)
        self.learning_rate = math.sqrt(8.0 * math.log(self.n_subsets) / cfg.horizon)
        self.loss_scale = n * cfg.opening_max + cfg.connection_max

    def subset_losses(self, costs: CostPair) -> np.ndarray:
        """Facility loss of every nonempty subset, in bitmask order: the
        connection minimum plus the opening sum, each a doubling table."""
        mins = _doubling_table(costs.connection, np.minimum, np.inf)
        return (mins + _doubling_table(costs.opening, np.add, 0.0))[1:]

    def play(self, rngs) -> ActionRows:
        self._begin_play(rngs)
        u = uniforms(rngs, 1).reshape(self.rows, -1)  # each row's uniforms
        masks = np.empty(u.shape, dtype=np.int64)
        for w, row_u, row_masks in zip(self.weights, u, masks):
            cdf = (w / w.sum()).cumsum()
            cdf /= cdf[-1]
            row_masks[:] = cdf.searchsorted(row_u, side="right") + 1
        held = (masks.reshape(-1, 1) >> np.arange(self.cfg.n_sites)) & 1 == 1
        return ActionRows(np.append(0, held.sum(axis=1).cumsum()), np.nonzero(held)[1] + 1)

    def update(self, costs: CostPair | CostRows) -> list[float]:
        """Exponential step on each row; returns its pre-update expected loss."""
        self._begin_update(costs)
        expected = []
        for r, w in enumerate(self.weights):
            losses = self.subset_losses(costs if isinstance(costs, CostPair) else costs[r])
            expected.append(float(w @ losses))
            losses *= -self.learning_rate
            losses /= self.loss_scale
            w *= np.exp(losses, out=losses)
            w /= w.sum()
        return expected


def _history_arrays(history) -> tuple[np.ndarray, np.ndarray]:
    """(T, N) opening and connection arrays of a CostRows or a CostPair list."""
    rows = history if isinstance(history, CostRows) else CostRows.stack(history)
    return rows.opening, rows.connection


def ftl_greedy_play(history) -> SiteSet:
    """Follow the leader, with the leader approximated greedily: best
    singleton, then best-improvement additions while the cumulative loss
    strictly drops. {1} on an empty history."""
    if not history:
        return SiteSet((1,))
    return _greedy_leader(*_history_arrays(history))


def _greedy_leader(opening: np.ndarray, connection: np.ndarray) -> SiteSet:
    """ftl_greedy_play on a nonempty (T, N) history."""
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


class FollowTheLeaderGreedy(LearnerRows):
    """Deterministic baseline: each of `rows` histories replays its greedy
    leader, for every generator it serves, and reads no uniforms.

    The histories are a preallocated (rows, 2, T, N) array of opening and
    connection costs, doubled along the trials if updates run past the
    horizon; each play reads every row's first t trials in place."""

    def __init__(self, cfg: GameConfig, rows: int = 1):
        super().__init__(rows, cfg.n_sites)
        self.cfg = cfg
        self._history = np.empty((rows, 2, cfg.horizon, cfg.n_sites))
        self._trials = 0

    def play(self, rngs) -> ActionRows:
        actions = self._begin_play(rngs)
        t = self._trials
        leaders = [_greedy_leader(*history[:, :t]) if t else SiteSet((1,)) for history in self._history]
        return ActionRows.repeated(leaders[0], actions) if self.rows == 1 else ActionRows.of(leaders)

    def update(self, costs: CostPair | CostRows) -> None:
        self._begin_update(costs)
        if self._trials == self._history.shape[2]:
            self._history = np.concatenate([self._history, np.empty_like(self._history)], axis=2)
        self._history[:, 0, self._trials] = costs.opening
        self._history[:, 1, self._trials] = costs.connection
        self._trials += 1


def cheapest_singleton_play(history) -> SiteSet:
    """The singleton with the least cumulative loss so far; {1} when empty."""
    if not history:
        return SiteSet((1,))
    opening, connection = _history_arrays(history)
    return SiteSet((int(np.argmin(opening.sum(axis=0) + connection.sum(axis=0))) + 1,))


def comparator_cardinalities(
    n_sites: int,
    max_card: int | None = None,
    exact_card: int | None = None,
    site_cap: int = BRUTE_FORCE_SITE_CAP,
):
    """The subset sizes best_fixed_subset scans at this site count and
    restriction; raises, as it would, when it refuses the scan."""
    if max_card is not None and exact_card is not None:
        raise ConfigError("pass at most one of max_card and exact_card")
    if max_card is None and exact_card is None:
        if n_sites > site_cap:
            raise CapExceededError(
                f"{n_sites} sites exceeds brute-force cap {site_cap}; restrict the cardinality"
            )
        return range(1, n_sites + 1)
    limit = exact_card if exact_card is not None else max_card
    if not 1 <= limit <= n_sites:
        raise ConfigError(f"cardinality restriction must be in 1..{n_sites}, got {limit!r}")
    cards = (limit,) if exact_card is not None else range(1, limit + 1)
    count = sum(math.comb(n_sites, k) for k in cards)
    if count > COMBINATION_CAP:
        raise CapExceededError(f"{count} candidate subsets exceeds cap {COMBINATION_CAP}")
    return cards


def best_fixed_subset(
    history,
    max_card: int | None = None,
    exact_card: int | None = None,
    site_cap: int = BRUTE_FORCE_SITE_CAP,
) -> tuple[SiteSet, float]:
    """In-hindsight comparator: the nonempty subset minimizing cumulative
    facility loss, ties broken by smaller cardinality then lexicographic
    members. `history` is a CostRows or a list of CostPair.

    `max_card` / `exact_card` restrict the candidate cardinalities. Up to
    `site_cap` sites every bitmask is priced exactly by one superset-sum
    pass over the history (`_connection_sums`), and the restriction masks
    out the other cardinalities. Above the cap only a restricted scan is
    allowed: `best_fixed_scan` enumerates the candidate combinations while
    their count stays within bounds.
    """
    opening, connection = _history_arrays(history)
    n = opening.shape[1]
    candidate_cards = comparator_cardinalities(n, max_card, exact_card, site_cap)
    if n > site_cap:
        members, loss = best_fixed_scan(history, max_card, exact_card)
        return SiteSet(members), loss

    losses = _connection_sums(connection)
    losses += _doubling_table(opening.sum(axis=0), np.add, 0.0)
    cards = _cardinalities(n)
    losses[~np.isin(cards, candidate_cards)] = np.inf
    best_cost = losses.min()
    ties = np.flatnonzero(losses == best_cost)
    ties = ties[cards[ties] == cards[ties].min()]
    mask = min((int(m) for m in ties), key=_subset_members)
    return SiteSet(_subset_members(mask)), float(best_cost)


def best_fixed_scan(history, max_card: int | None = None, exact_card: int | None = None):
    """(members, loss) of the exhaustive comparator scan: every candidate
    combination's cumulative loss from its columns of the history, ties to
    the smaller set, then to the lexicographically first members. It is
    the comparator above the site cap, and below it the reference the
    superset-sum pass is checked against."""
    opening, connection = _history_arrays(history)
    n = opening.shape[1]
    cum_open = opening.sum(axis=0)
    best_cost, best_members = math.inf, None
    for card in comparator_cardinalities(n, max_card, exact_card, site_cap=n):
        for combo in itertools.combinations(range(n), card):
            idx = list(combo)
            cost = float(cum_open[idx].sum() + connection[:, idx].min(axis=1).sum())
            members = tuple(i + 1 for i in combo)
            if cost < best_cost or (cost == best_cost and (card, members) < (len(best_members), best_members)):
                best_cost, best_members = cost, members
    return best_members, best_cost


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
