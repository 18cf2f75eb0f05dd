"""Domain types for the online facility location game.

Each trial an adversary fixes an opening-cost vector c in [0, C]^N and a
connection-cost vector d in [0, D]^N, the learner then commits to a nonempty
set X of sites, and pays

    loss(X) = sum_{i in X} c_i + min_{i in X} d_i.

Everything downstream (surrogate, learners, oracles) speaks these types.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, InvalidActionError, ProtocolError


@dataclass(frozen=True)
class GameConfig:
    """Static game parameters: site count, horizon, and cost ranges."""

    n_sites: int
    horizon: int
    opening_max: float
    connection_max: float

    def __post_init__(self):
        if not isinstance(self.n_sites, int) or self.n_sites < 1:
            raise ConfigError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ConfigError(f"horizon must be a positive integer, got {self.horizon!r}")
        for name in ("opening_max", "connection_max"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")
        if self.opening_max + self.connection_max <= 0:
            raise ConfigError("opening_max + connection_max must be positive")


def refuse_cost_bounds(cfg: GameConfig, derived) -> None:
    """Refuse cfg's cost bounds at the first (what, value, positive) in
    `derived` whose value, derived from them, is not finite, or not > 0
    where `positive` is set: before any trial runs, because Python floats
    overflow to inf and underflow to 0 without a warning."""
    for what, value, positive in derived:
        if not (math.isfinite(value) and (value > 0 or not positive)):
            raise ConfigError(
                f"cost bounds --c-max {cfg.opening_max!r} --d-max {cfg.connection_max!r} give a {what} "
                f"of {value!r}; it must be finite and positive"
            )


def _checked_costs(opening, connection, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two cost arrays as floats, rejected unless both have `ndim` axes,
    one shape with a positive site count, and finite entries >= 0."""
    opening = np.asarray(opening, dtype=float)
    connection = np.asarray(connection, dtype=float)
    if opening.ndim != ndim or connection.ndim != ndim:
        raise ConfigError(f"cost arrays must be {ndim}-D, got {opening.ndim}-D and {connection.ndim}-D")
    if opening.shape != connection.shape or opening.size == 0:
        raise ConfigError(f"cost arrays must share a nonempty shape, got {opening.shape} and {connection.shape}")
    every, least = np.logical_and.reduce, np.minimum.reduce  # the array methods' loops, called directly
    if not (every(np.isfinite(opening), axis=None) and every(np.isfinite(connection), axis=None)):
        raise ConfigError("cost vectors must be finite")
    if least(opening, axis=None) < 0 or least(connection, axis=None) < 0:
        raise ConfigError("cost vectors must be componentwise >= 0")
    return opening, connection


@dataclass(frozen=True)
class CostPair:
    """One trial's cost vectors (opening c, connection d), same length."""

    opening: np.ndarray
    connection: np.ndarray

    def __post_init__(self):
        opening, connection = _checked_costs(self.opening, self.connection, 1)
        object.__setattr__(self, "opening", opening)
        object.__setattr__(self, "connection", connection)

    @property
    def n_sites(self) -> int:
        return self.opening.size


def _unchecked(cls, opening: np.ndarray, connection: np.ndarray):
    """A CostPair or CostRows (`cls`) of float arrays that already hold
    what its constructor checks, not checked again: the rows of a CostRows
    that was checked whole, or arrays their maker filled with finite costs
    >= 0 itself."""
    costs = object.__new__(cls)
    vars(costs).update(opening=opening, connection=connection)
    return costs


@dataclass(frozen=True)
class CostRows:
    """Cost vectors as (rows, N) arrays, checked once for all rows like a
    CostPair: a whole cost sequence with a row per trial, or one trial's
    costs for every row of a learner batch.

    It reads as a sequence of CostPairs: an int index gives row views as a
    CostPair, not checked again, and a slice gives a CostRows. A scenario
    is a cost source of `experiment.trial_loop`: `costs(t, actions)` is its
    row t whatever the actions, and its `realized` history is itself."""

    opening: np.ndarray
    connection: np.ndarray

    def __post_init__(self):
        opening, connection = _checked_costs(self.opening, self.connection, 2)
        object.__setattr__(self, "opening", opening)
        object.__setattr__(self, "connection", connection)

    @property
    def n_sites(self) -> int:
        return self.opening.shape[1]

    def __len__(self) -> int:
        return self.opening.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CostRows(self.opening[index], self.connection[index])
        index = operator.index(index)  # one row, never a fancy index
        return _unchecked(CostPair, self.opening[index], self.connection[index])

    def __iter__(self) -> Iterator[CostPair]:
        return map(partial(_unchecked, CostPair), self.opening, self.connection)

    def __call__(self, trial: int, actions: ActionRows) -> CostPair:
        return self[trial]

    def realized(self, actions: ActionRows) -> CostRows:
        return self


@dataclass(frozen=True)
class SiteSet:
    """Nonempty set of 1-based site indices, stored sorted."""

    members: tuple[int, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise InvalidActionError("site set must be nonempty")
        prev = 0
        for m in self.members:
            if not isinstance(m, int) or m <= prev:
                raise InvalidActionError(
                    f"members must be strictly increasing positive integers, got {self.members!r}"
                )
            prev = m

    @classmethod
    def of(cls, indices: Iterable[int], n_sites: int | None = None) -> "SiteSet":
        """Lenient constructor: deduplicates, sorts, and range-checks."""
        members = tuple(sorted({int(i) for i in indices}))
        if n_sites is not None and members and (members[0] < 1 or members[-1] > n_sites):
            raise InvalidActionError(f"site indices {members} outside 1..{n_sites}")
        return cls(members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members

    def index_array(self) -> np.ndarray:
        """0-based index array for vectorized cost lookups."""
        return np.asarray(self.members, dtype=np.intp) - 1


def facility_loss(costs: CostPair, sites: SiteSet) -> float:
    """Opening costs of every chosen site plus the cheapest chosen connection."""
    if len(sites.members) == 0:
        raise InvalidActionError("site set must be nonempty")
    if sites.members[-1] > costs.n_sites:
        raise InvalidActionError(
            f"site {sites.members[-1]} outside instance with {costs.n_sites} sites"
        )
    idx = sites.index_array()
    return float(costs.opening[idx].sum() + costs.connection[idx].min())


@dataclass(frozen=True, eq=False)
class ActionRows:
    """One action per row as CSR arrays: row r plays the 1-based sites
    `sites[ptr[r]:ptr[r + 1]]`, strictly increasing. A row may be empty only
    where a consumer says so (the killer's "nothing known yet").

    It reads as a sequence of SiteSets, built as they are read, and equals
    any sequence of the same SiteSets. The learner batch plays its actions
    in this form straight from the sorted pass that deduplicates its draws.
    """

    ptr: np.ndarray
    sites: np.ndarray

    def __len__(self) -> int:
        return self.ptr.size - 1

    def __getitem__(self, row: int) -> SiteSet:
        row = range(len(self))[row]
        return SiteSet(tuple(self.sites[self.ptr[row] : self.ptr[row + 1]].tolist()))

    def __iter__(self) -> Iterator[SiteSet]:
        ptr, sites = self.ptr.tolist(), self.sites.tolist()
        return (SiteSet(tuple(sites[a:b])) for a, b in zip(ptr, ptr[1:]))

    def __eq__(self, other) -> bool:
        try:
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        except TypeError:
            return NotImplemented

    __hash__ = None

    @classmethod
    def of(cls, actions) -> "ActionRows":
        """The rows of a sequence of SiteSets (or of sorted index tuples)."""
        lengths = [len(a) for a in actions]
        ptr = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(lengths, out=ptr[1:])
        return cls(ptr, np.fromiter((i for a in actions for i in a), dtype=np.int64, count=int(ptr[-1])))

    @classmethod
    def repeated(cls, action: SiteSet, rows: int) -> "ActionRows":
        """`action` on each of `rows` rows."""
        return cls(np.arange(rows + 1) * len(action), np.tile(np.asarray(action.members), rows))


def action_losses(costs: CostRows, actions: ActionRows, trials: np.ndarray | None = None) -> np.ndarray:
    """facility_loss of each action, bit for bit: row r of `actions` priced
    on row r of `costs`, a CostRows with one row per action, or with
    `trials` on row trials[r] of `costs`, so that every seed of a shared
    scenario is priced in one call on the one scenario.

    Every call groups the rows by member count, and each group is one
    (rows, m) gather of the raveled costs summed and minimized along its
    rows, which sums each row exactly as the one-row sum does.
    """
    ptr, sites = actions.ptr, actions.sites
    rows = ptr.size - 1
    shape = costs.opening.shape
    n = shape[-1]
    if trials is None:
        if shape[:-1] != (rows,):
            raise ConfigError(f"{rows} actions need a CostRows with one row each, got costs of shape {shape}")
        trials = np.arange(rows)
    elif len(shape) != 2 or trials.shape != (rows,) or not 0 <= trials.min() <= trials.max() < shape[0]:
        raise ConfigError(f"{rows} actions need one trial each, in 0..{shape[0] - 1}")
    lengths = ptr[1:] - ptr[:-1]
    by_length = np.bincount(lengths)
    if by_length[0]:
        raise InvalidActionError("site set must be nonempty")
    if sites.max() > n:
        raise InvalidActionError(f"site {sites.max()} outside instance with {n} sites")
    flat = sites - 1 + np.repeat(trials * n, lengths)
    opening, connection = costs.opening.ravel(), costs.connection.ravel()
    losses = np.empty(rows)
    for m in np.flatnonzero(by_length).tolist():
        group = np.flatnonzero(lengths == m)
        idx = flat[ptr[group, None] + np.arange(m)]
        losses[group] = opening[idx].sum(axis=1) + connection[idx].min(axis=1)
    return losses


class LearnerRows:
    """The protocol of every learner: `rows` independent trajectories with
    strict play/update alternation. play(rngs) returns ActionRows, one action
    per generator (or `UniformStreams` row); one row serves any number of
    them, S rows take exactly S. update(costs) takes a CostRows with one row
    per learner row, or a CostPair as the one row of a one-row learner, and
    returns per-row values, or None when the learner reports none."""

    _awaiting_update = False

    def __init__(self, rows: int, n_sites: int):
        if not isinstance(rows, int) or rows < 1:
            raise ConfigError(f"rows must be a positive integer, got {rows!r}")
        self.rows = rows
        self.n_real = n_sites  # the site count of the costs update takes

    def _begin_play(self, rngs, new_trial: bool = True) -> int:
        """The checked generator count; a new trial follows an update and awaits one."""
        if new_trial and self._awaiting_update:
            raise ProtocolError("play called again before update")
        actions = len(rngs)
        if actions < 1 or (actions != self.rows and self.rows != 1):
            raise ConfigError(f"{actions} generators for {self.rows} rows")
        if new_trial:
            self._awaiting_update = True
        return actions

    def _begin_update(self, costs: CostPair | CostRows) -> tuple[np.ndarray, np.ndarray]:
        """The trial's (rows, N) opening and connection arrays: the one place
        that reads a CostPair, as the one row of a one-row learner."""
        if not self._awaiting_update:
            raise ProtocolError("update called before play")
        self._awaiting_update = False
        if isinstance(costs, CostPair):
            opening, connection = costs.opening[None], costs.connection[None]
        elif isinstance(costs, CostRows):
            opening, connection = costs.opening, costs.connection
        else:
            raise ConfigError(f"costs must be a CostPair or CostRows, got {type(costs).__name__}")
        rows, n = opening.shape
        if rows != self.rows:
            raise ConfigError(f"{rows} cost rows for {self.rows} rows")
        if n != self.n_real:
            raise ConfigError(f"costs for {n} sites, expected {self.n_real}")
        return opening, connection

    def state_rows(self) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """The per-row (scale, cardinality, segment) arrays, or None: live
        arrays that the learner changes in place, so one call serves a run."""
        return None, None, None


PACKED_SORT_MIN = 2048  # site count from which connection_order sorts packed keys
_KEY_TOP = 0x7FEFFFFFFFFFFFFF  # the bits of the largest finite double


def connection_order(connection: np.ndarray) -> np.ndarray:
    """0-based permutations that sort `connection` in descending order along
    its last axis, as every learner, surrogate and comparator sorts: bit for
    bit `(-connection).argsort(axis=-1)`, numpy's unstable default. The
    surrogate and the comparator do not depend on how tied connection costs
    are ordered, because the step between two tied costs is zero.

    From PACKED_SORT_MIN sites, a float64 row sorts one packed key per
    site: 0x7FEFFFFFFFFFFFFF, the bits of the largest finite double, minus
    the cost's bits, which for a finite cost >= +0.0 are the bits of a
    finite double >= 0 that grows as the cost falls, with the site index in
    the low b = (n - 1).bit_length() bits. The keys sort as floats, and the
    indices are read back from the low bits. Where the sorted keys' high
    parts strictly increase, the costs strictly decrease, so the permutation
    is the one argsort returns. A row is sorted again by argsort if it holds
    a tie, two costs apart only in their low b bits, or a cost whose key is
    not a finite double >= 0 (-0.0, a negative, infinite or NaN cost), so
    a tied row pays both sorts. At 16384 sites the packed sort of a row
    without ties takes about half of argsort's time; on a 2-core x86-64
    (numpy 2.4.6) the two cost the same between 1024 and 1536 sites, below
    which the packed sort's dozen numpy calls cost more than they save.
    """
    n = connection.shape[-1]
    if n < PACKED_SORT_MIN or connection.dtype != np.float64:
        return (-connection).argsort(axis=-1)
    rows = connection.reshape(-1, n)
    b = (n - 1).bit_length()
    low = (1 << b) - 1
    # (top - bits) with the index in its low bits, as (top's high part + index) - bits' high part
    keys = np.bitwise_and(rows.view(np.int64), ~low)
    np.subtract(np.arange(_KEY_TOP - low, _KEY_TOP - low + n), keys, out=keys)
    keys.view(np.float64).sort(axis=1)
    # neighbours that share a high part; then each row's first and last key,
    # where negative keys and inf or NaN ones sort
    shared = np.logical_or.reduce(np.bitwise_xor(keys[:, 1:], keys[:, :-1]) <= low, axis=1).tolist()
    ends = keys[:, :: n - 1].tolist()
    exact = [tie or not 0 <= first <= last <= _KEY_TOP for tie, (first, last) in zip(shared, ends)]
    order = np.bitwise_and(keys, low, out=keys)
    if any(exact):
        order[exact] = (-rows[exact]).argsort(axis=1)
    return order.reshape(connection.shape)


def sort_by_connection_desc(connection) -> np.ndarray:
    """Stable permutation v (1-based) with d_v(1) >= d_v(2) >= ... >= d_v(N).

    Ties keep original order, so the permutation is deterministic.
    """
    d = np.asarray(connection, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ConfigError("connection vector must be 1-D and nonempty")
    return np.argsort(-d, kind="stable").astype(np.int64) + 1
