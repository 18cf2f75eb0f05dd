"""Brute-force references: exact but exponential-cost counterparts of the
efficient learners, used to verify them at desk scale.

- ExactHedge: exponential weights over all 2^N - 1 nonempty subsets, whose
  weight rows the sampler's `RecordedRows` checks and draws, as it does the
  fl learners'.
- FollowTheLeaderGreedy and CheapestSingleton: deterministic
  follow-the-leader baselines (both provably beatable by an adaptive
  adversary), playing the greedy leader (ftl_greedy_play, on a whole
  history) and the cheapest singleton of the history so far. The learners
  stand behind `game.LearnerRows`, the play / update protocol of the fl
  learners: ExactHedge as a batch of rows, the baselines as one row each,
  since a deterministic learner has one trajectory.
- best_fixed_subset: the in-hindsight comparator. Up to the site cap it
  prices all 2^N bitmasks in one superset-sum pass over the history; above
  the cap a cardinality-restricted scan, best_fixed_scan, enumerates
  combinations. comparator is the policy an experiment reports: the
  greedy leader stands in for an unrestricted comparator above the cap.

Every history is a nonempty CostRows with one row per trial.
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
from .game import ActionRows, CostPair, CostRows, GameConfig, LearnerRows, SiteSet, action_losses, connection_order
from .game import facility_loss
from .sampler import RecordedRows

BRUTE_FORCE_SITE_CAP = 16
ENUMERATION_CAP = 1_000_000
COMBINATION_CAP = 2_000_000


def _subset_members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _doubling_table(values: np.ndarray, op, empty: float) -> np.ndarray:
    """op folded over the sites of every bitmask 0..2^N - 1 along the last
    axis of `values`, (N,) or (rows, N), indexed by mask (bit j is site
    j+1), with `empty` at mask 0.

    The masks with top bit j are the masks below 2^j plus site j, so the
    table doubles one site at a time."""
    n = values.shape[-1]
    table = np.empty(values.shape[:-1] + (1 << n,))
    table[..., 0] = empty
    for j in range(n):
        op(table[..., : 1 << j], values[..., j, None], out=table[..., 1 << j : 2 << j])
    return table


def _connection_sums(connection: np.ndarray) -> np.ndarray:
    """sum_t min over the mask of connection[t], for every bitmask 0..2^N - 1
    (mask 0 is inf), in one superset-sum pass over the (T, N) history.

    Sort row t so that d_v(1) >= ... >= d_v(N) and set d_v(N+1) = 0. Then
    for every subset S, min over S = sum_k (d_v(k) - d_v(k+1)) [S within
    {v(1), ..., v(k)}], and every step is >= 0. One bincount puts each step
    on its top-k mask, and the fast zeta transform (one vectorised add per
    site) sums every mask's table entries over the masks that contain it.
    Cost O(T*N + N*2^N).
    """
    n = connection.shape[1]
    order = connection_order(connection)
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


class ExactHedge(LearnerRows):
    """`rows` independent runs of exponential weights over every nonempty
    subset, with exact bookkeeping; row r of `weights` is run r.

    Losses are scaled into [0, 1] by N*C + D before the exponential step;
    the learning rate sqrt(8 ln(2^N - 1) / T) then gives cumulative expected
    regret at most (N*C + D) * sqrt(T * ln(2^N - 1) / 2). A play records the
    (rows, 2^N - 1) weights in a `RecordedRows`, whose one check refuses a
    corrupted row before any uniform is read, and draws each action as the
    sampler draws: one uniform, scaled by its row's total, the 1-based index
    it lands on being the subset's bitmask. An update steps every row at once.
    """

    def __init__(self, cfg: GameConfig, rows: int = 1):
        if cfg.n_sites > BRUTE_FORCE_SITE_CAP:
            raise CapExceededError(
                f"{cfg.n_sites} sites needs {2 ** cfg.n_sites - 1} subset weights;"
                f" cap is {BRUTE_FORCE_SITE_CAP} sites"
            )
        super().__init__(rows, cfg)
        self.cfg = cfg
        n = cfg.n_sites
        self.n_subsets = (1 << n) - 1
        self.weights = np.full((rows, self.n_subsets), 1.0 / self.n_subsets)
        self._recorded = RecordedRows(self.n_subsets, rows)  # the rows' cumulative sums, written by each play
        self.learning_rate = math.sqrt(8.0 * math.log(self.n_subsets) / cfg.horizon)
        self.loss_scale = n * cfg.opening_max + cfg.connection_max

    @staticmethod
    def subset_losses(opening: np.ndarray, connection: np.ndarray) -> np.ndarray:
        """Facility loss of every nonempty subset of one trial's sites, (N,)
        or a row per learner row, (rows, N), in bitmask order along the
        last axis: the connection minimum plus the opening sum, each a
        doubling table."""
        losses = _doubling_table(connection, np.minimum, np.inf)
        losses += _doubling_table(opening, np.add, 0.0)
        return losses[..., 1:]

    def play(self, rngs) -> ActionRows:
        self._begin_play(rngs)
        self._recorded.record(self.weights, 1)
        masks = self._recorded.draw(rngs)  # (actions, 1) subset bitmasks
        held = (masks >> np.arange(self.cfg.n_sites)) & 1 == 1
        return ActionRows(np.append(0, held.sum(axis=1).cumsum()), np.nonzero(held)[1] + 1)

    def update(self, costs: CostPair | CostRows) -> list[float]:
        """Exponential step on every row; returns each row's pre-update
        expected loss, a dot product per row."""
        losses = self.subset_losses(*self._begin_update(costs))
        expected = [float(w @ row) for w, row in zip(self.weights, losses)]
        losses *= -self.learning_rate
        losses /= self.loss_scale
        self.weights *= np.exp(losses, out=losses)
        self.weights /= self.weights.sum(axis=1, keepdims=True)
        return expected


def ftl_greedy_play(history: CostRows) -> SiteSet:
    """Follow the leader, with the leader approximated greedily: best
    singleton, then best-improvement additions while the cumulative loss
    strictly drops."""
    return _greedy_leader(history.connection, history.opening.sum(axis=0), history.connection.sum(axis=0))


def _greedy_leader(connection: np.ndarray, cum_open: np.ndarray, cum_conn: np.ndarray) -> SiteSet:
    """ftl_greedy_play on the (T, N) connection costs of a nonempty history
    and the (N,) column sums of its opening and connection costs."""
    totals = cum_open + cum_conn
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
    """Deterministic baseline: one history, whose `leader` ({1} before the
    first trial) it plays for every generator it serves, reading no
    uniforms. It follows one trajectory whatever the source, since even the
    adaptive killer prices the one action it has just played.

    The connection history is a preallocated (T, N) array; each play reads
    its first t trials in place. The opening and connection column sums run
    alongside, one row added per update to zeroed sums: numpy sums axis 0
    of a C-contiguous block row by row, so they equal the history's column
    sums as floats, and a play makes one pass over the history instead of
    three."""

    leader = staticmethod(_greedy_leader)  # the rule a play applies to the history and its sums

    def __init__(self, cfg: GameConfig):
        super().__init__(1, cfg)
        self._connection = np.empty((cfg.horizon, cfg.n_sites))
        self._sums = np.zeros((2, cfg.n_sites))  # opening, connection column sums

    def play(self, rngs) -> ActionRows:
        actions = self._begin_play(rngs)
        t = self.trials_seen
        leader = self.leader(self._connection[:t], *self._sums) if t else SiteSet((1,))
        return ActionRows.repeated(leader, actions)

    def update(self, costs: CostPair | CostRows) -> None:
        (opening,), (connection,) = self._begin_update(costs)
        self._connection[self.trials_seen - 1] = connection
        self._sums[0] += opening
        self._sums[1] += connection


class CheapestSingleton(FollowTheLeaderGreedy):
    """FollowTheLeaderGreedy playing the singleton with the least cumulative
    loss so far, from its running sums."""

    @staticmethod
    def leader(connection: np.ndarray, cum_open: np.ndarray, cum_conn: np.ndarray) -> SiteSet:
        return SiteSet((int(np.argmin(cum_open + cum_conn)) + 1,))


def comparator_cardinalities(n_sites: int, max_card: int | None = None, exact_card: int | None = None):
    """The subset sizes best_fixed_subset scans at this site count and
    restriction; raises, as it would, when it refuses the scan."""
    if max_card is not None and exact_card is not None:
        raise ConfigError("pass at most one of max_card and exact_card")
    if max_card is None and exact_card is None:
        if n_sites > BRUTE_FORCE_SITE_CAP:
            raise CapExceededError(
                f"{n_sites} sites exceeds brute-force cap {BRUTE_FORCE_SITE_CAP}; restrict the cardinality"
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
    history: CostRows, max_card: int | None = None, exact_card: int | None = None
) -> tuple[SiteSet, float]:
    """In-hindsight comparator: the nonempty subset minimizing cumulative
    facility loss, ties broken by smaller cardinality then lexicographic
    members.

    `max_card` / `exact_card` restrict the candidate cardinalities. Up to
    BRUTE_FORCE_SITE_CAP sites every bitmask is priced exactly by one
    superset-sum pass over the history (`_connection_sums`), and the
    restriction masks out the other cardinalities. Above the cap only a
    restricted scan is allowed: `best_fixed_scan` enumerates the candidate
    combinations while their count stays within bounds.
    """
    n = history.n_sites
    candidate_cards = comparator_cardinalities(n, max_card, exact_card)
    if n > BRUTE_FORCE_SITE_CAP:
        members, loss = best_fixed_scan(history, max_card, exact_card)
        return SiteSet(members), loss

    losses = _connection_sums(history.connection)
    losses += _doubling_table(history.opening.sum(axis=0), np.add, 0.0)
    cards = _doubling_table(np.ones(n), np.add, 0.0)  # popcounts
    losses[~np.isin(cards, candidate_cards)] = np.inf
    best_cost = losses.min()
    ties = np.flatnonzero(losses == best_cost)
    ties = ties[cards[ties] == cards[ties].min()]
    mask = min((int(m) for m in ties), key=_subset_members)
    return SiteSet(_subset_members(mask)), float(best_cost)


def comparator(
    history: CostRows, max_card: int | None = None, exact_card: int | None = None
) -> tuple[SiteSet, float, bool]:
    """(subset, loss, approximate) of the in-hindsight comparator an
    experiment reports: best_fixed_subset, except that an unrestricted
    comparator above BRUTE_FORCE_SITE_CAP is approximated by the greedy
    leader, priced trial by trial."""
    if max_card is None and exact_card is None and history.n_sites > BRUTE_FORCE_SITE_CAP:
        greedy = ftl_greedy_play(history)
        losses = action_losses(history, ActionRows.repeated(greedy, len(history)))
        return greedy, float(sum(losses.tolist())), True
    return (*best_fixed_subset(history, max_card, exact_card), False)


def best_fixed_scan(history: CostRows, max_card: int | None = None, exact_card: int | None = None):
    """(members, loss) of the exhaustive comparator scan: every candidate
    combination's cumulative loss from its columns of the history, ties to
    the smaller set, then to the lexicographically first members. It is
    the restricted comparator above the site cap, and below it the
    reference the superset-sum pass is checked against; it refuses what
    best_fixed_subset refuses."""
    connection, n = history.connection, history.n_sites
    cum_open = history.opening.sum(axis=0)
    best_cost, best_members = math.inf, None
    for card in comparator_cardinalities(n, max_card, exact_card):
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
