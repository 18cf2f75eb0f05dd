"""Domain types for the online facility location game.

Each trial an adversary fixes an opening-cost vector c in [0, C]^N and a
connection-cost vector d in [0, D]^N, the learner then commits to a nonempty
set X of sites, and pays

    loss(X) = sum_{i in X} c_i + min_{i in X} d_i.

Everything downstream (surrogate, learners, oracles) speaks these types.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
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


def _checked_costs(opening, connection, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two cost arrays as floats, rejected unless both have `ndim` axes,
    one shape with a positive site count, and finite entries >= 0."""
    opening = np.asarray(opening, dtype=float)
    connection = np.asarray(connection, dtype=float)
    if opening.ndim != ndim or connection.ndim != ndim:
        raise ConfigError(f"cost arrays must be {ndim}-D, got {opening.ndim}-D and {connection.ndim}-D")
    if opening.shape != connection.shape or opening.size == 0:
        raise ConfigError(f"cost arrays must share a nonempty shape, got {opening.shape} and {connection.shape}")
    if not (np.isfinite(opening).all() and np.isfinite(connection).all()):
        raise ConfigError("cost vectors must be finite")
    if opening.min() < 0 or connection.min() < 0:
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


def _row_pair(opening: np.ndarray, connection: np.ndarray) -> CostPair:
    """A CostPair of one row of a CostRows, which was checked whole."""
    pair = object.__new__(CostPair)
    vars(pair).update(opening=opening, connection=connection)
    return pair


@dataclass(frozen=True)
class CostRows:
    """Cost vectors as (rows, N) arrays, checked once for all rows like a
    CostPair: a whole cost sequence with a row per trial, or one trial's
    costs for every row of a learner batch.

    It reads as a sequence of CostPairs: an int index gives row views as a
    CostPair, not checked again, and a slice gives a CostRows."""

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
        return _row_pair(self.opening[index], self.connection[index])

    def __iter__(self) -> Iterator[CostPair]:
        return map(_row_pair, self.opening, self.connection)


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


def action_losses(costs: CostPair | CostRows, actions: ActionRows) -> np.ndarray:
    """facility_loss of each action, bit for bit: row r of `actions` priced
    on row r of CostRows, or every row on one shared CostPair.

    Rows are grouped by member count, and each group is one (rows, m)
    gather summed and minimized along its rows, which sums each row exactly
    as the one-row sum does.
    """
    n = costs.n_sites
    ptr, sites = actions.ptr, actions.sites
    rows = ptr.size - 1
    shared = isinstance(costs, CostPair)
    if not shared and len(costs) != rows:
        raise ConfigError(f"{len(costs)} cost rows for {rows} actions")
    if not rows:
        return np.empty(0)
    lengths = ptr[1:] - ptr[:-1]
    by_length = np.bincount(lengths)
    if by_length[0]:
        raise InvalidActionError("site set must be nonempty")
    if sites.max() > n:
        raise InvalidActionError(f"site {sites.max()} outside instance with {n} sites")
    flat = sites - 1
    if not shared:  # index the raveled (rows, N) arrays
        flat += np.repeat(np.arange(0, rows * n, n), lengths)
    opening, connection = costs.opening.ravel(), costs.connection.ravel()
    distinct = np.flatnonzero(by_length).tolist()
    if len(distinct) == 1:
        idx = flat.reshape(rows, distinct[0])
        return opening[idx].sum(axis=1) + connection[idx].min(axis=1)
    losses = np.empty(rows)
    for m in distinct:
        group = np.flatnonzero(lengths == m)
        idx = flat[ptr[group, None] + np.arange(m)]
        losses[group] = opening[idx].sum(axis=1) + connection[idx].min(axis=1)
    return losses


class LearnerRows:
    """The protocol of every learner: `rows` independent trajectories with
    strict play/update alternation. play(rngs) returns ActionRows, one action
    per generator (or `UniformStreams` row); one row serves any number of
    them, S rows take exactly S. update(costs) takes a CostPair shared by
    every row or a CostRows with one row per learner row, and returns
    per-row values, or None when the learner reports none."""

    _awaiting_update = False

    def __init__(self, rows: int, n_sites: int):
        if not isinstance(rows, int) or rows < 1:
            raise ConfigError(f"rows must be a positive integer, got {rows!r}")
        self.rows = rows
        self.n_real = n_sites  # the site count of the costs update takes

    def _begin_play(self, rngs) -> int:
        if self._awaiting_update:
            raise ProtocolError("play called again before update")
        actions = len(rngs)
        if actions < 1 or (actions != self.rows and self.rows != 1):
            raise ConfigError(f"{actions} generators for {self.rows} rows")
        self._awaiting_update = True
        return actions

    def _begin_update(self, costs: CostPair | CostRows) -> None:
        if not self._awaiting_update:
            raise ProtocolError("update called before play")
        self._awaiting_update = False
        if not isinstance(costs, (CostPair, CostRows)):
            raise ConfigError(f"costs must be a CostPair or CostRows, got {type(costs).__name__}")
        if isinstance(costs, CostRows) and len(costs) != self.rows:
            raise ConfigError(f"{len(costs)} cost rows for {self.rows} rows")
        if costs.n_sites != self.n_real:
            raise ConfigError(f"costs for {costs.n_sites} sites, expected {self.n_real}")

    def state_rows(self) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """The per-row (scale, cardinality, segment) arrays, live, or None."""
        return None, None, None


def sort_by_connection_desc(connection) -> np.ndarray:
    """Stable permutation v (1-based) with d_v(1) >= d_v(2) >= ... >= d_v(N).

    Ties keep original order, so the permutation is deterministic.
    """
    d = np.asarray(connection, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ConfigError("connection vector must be 1-D and nonempty")
    return np.argsort(-d, kind="stable").astype(np.int64) + 1
