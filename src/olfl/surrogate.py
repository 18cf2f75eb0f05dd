"""Convex surrogate for the expected facility loss under repeated site draws.

When an action is formed by drawing `num_draws` sites independently from w
and keeping the distinct ones, the expected facility loss is upper-bounded by

    f(w) = Ups * c.w + d_v(N) + sum_{i=1}^{N-1} (d_v(i) - d_v(i+1)) * (sum_{j<=i} w_v(j))^Ups

with Ups = num_draws and v sorting connection costs in descending order.
f is convex in w and coincides with the expected loss at Ups = 1.

`value_and_gradient` evaluates f and its gradient in O(N) after the sort,
via one prefix-sum pass for the value and one suffix-sum pass for the
gradient:

    g_v(i) = Ups * c_v(i) + Ups * s'_i,   s'_i = sum_{k=i}^{N-1} (d_v(k) - d_v(k+1)) * s_k^(Ups-1)

with s'_N = 0. Gradients live in [0, Ups * (C + D)].

The computation is split in two, and neither side checks anything:

- the cost side, `prepare_costs`, depends on the costs alone: it extends
  cost rows by the aggregate dummy site, sorts them with
  `game.connection_order` and takes the sorted connection's steps
  d_v(i) - d_v(i+1) and last entry d_v(N). It runs on one trial's rows, or
  on a block of trials of a shared scenario at once;
- the weight side, `surrogate_rows`, evaluates f and its gradient at
  weight rows from their cost side: one row as (n,) views, or S rows at
  once, each with its own Ups and its own cost row.

Both work in a `Workspace` the caller keeps. The learners call them on
their own arrays and weights; the public `SurrogateInstance` validates one
trial's costs and sort order, and `value_and_gradient`, the one-row call,
checks that w is a point of the simplex.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolationError
from .game import CostPair, connection_order

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class SurrogateInstance:
    """One trial's costs with the descending-connection permutation attached."""

    opening: np.ndarray
    connection: np.ndarray
    order: np.ndarray  # 1-based site indices, connection descending
    num_draws: int

    def __post_init__(self):
        if not isinstance(self.num_draws, int) or self.num_draws < 1:
            raise ConfigError(f"num_draws must be a positive integer, got {self.num_draws!r}")
        opening = np.asarray(self.opening, dtype=float)
        connection = np.asarray(self.connection, dtype=float)
        order = np.asarray(self.order, dtype=np.int64)
        n = opening.size
        if connection.size != n or order.size != n or n == 0:
            raise ConfigError("opening, connection, and order must share a positive length")
        if not np.array_equal(np.sort(order), np.arange(1, n + 1)):
            raise ConfigError("order must be a permutation of 1..N")
        sorted_conn = connection[order - 1]
        if n > 1 and np.any(np.diff(sorted_conn) > 0):
            raise ConfigError("order must sort connection costs in descending order")
        object.__setattr__(self, "opening", opening)
        object.__setattr__(self, "connection", connection)
        object.__setattr__(self, "order", order)

    @classmethod
    def from_costs(cls, costs: CostPair, num_draws: int) -> "SurrogateInstance":
        return cls(costs.opening, costs.connection, connection_order(costs.connection) + 1, num_draws)

    @property
    def n_sites(self) -> int:
        return self.opening.size


class Workspace:
    """The surrogate's work space for weight rows of one shape, built once
    per shape: (n,) for the row views of a one-row batch, (S, n) for S
    rows. A (4, *shape) float scratch is cut into the views each pass
    writes; for S rows, the offsets shift row-wise permutations into the
    flattened rows. A call given one allocates no arrays of the rows' shape
    while its rows draw alike.

    With a `dummy` connection cost, the last site of every row is the
    aggregate dummy (opening 0, connection `dummy`), and two more arrays
    hold the rows' extended costs, whose last column is written here once.

    The cost side (`prepare_costs`) gathers the sorted connection into
    `w_sorted` and leaves its steps and last value in `conn`; the weight
    side (`surrogate_rows`) reuses `w_sorted` for the sorted weights. The
    last column of `work` holds s'_N = 0; no pass writes it, so it is
    zeroed here once."""

    def __init__(self, shape: tuple[int, ...], dummy: float | None = None):
        *rows, n = shape
        arrays = np.empty((4 if dummy is None else 6, *shape))
        self.conn, self.w_sorted, self.work, self.grad = arrays[:4]
        self.offsets = np.arange(0, rows[0] * n, n)[:, None] if rows else None
        self.grad_flat = self.grad.reshape(-1)
        # the sorted connection's head and tail, gathered into the sorted
        # weights' buffer; its steps and last value, kept in `conn`
        self.w_head, self.tail = self.w_sorted[..., :-1], self.w_sorted[..., 1:]
        self.steps, self.last = self.conn[..., :-1], self.conn[..., -1]
        self.prefix, self.prefix_rev = self.grad[..., :-1], self.grad[..., -2::-1]
        self.full, self.suffix_rev = self.work[..., :-1], self.work[..., -2::-1]
        self.work[..., -1] = 0.0
        self.extended = self.real = None
        if dummy is not None:
            self.extended = arrays[4:]
            self.extended[0, ..., -1] = 0.0
            self.extended[1, ..., -1] = dummy
            self.real = self.extended[..., :-1]  # opening and connection of the real sites


def prepare_costs(opening, connection, space: Workspace, order=None) -> tuple:
    """The surrogate's cost side of real cost rows, in `space`, a Workspace
    of the prepared rows' shape (one site wider than the real costs when it
    has a dummy): one trial's costs, (n,) for a one-row batch or (S, n) for
    S rows, or a block of trials of a shared scenario, one row a trial.
    Returns (opening, order, steps, last), the four cost arguments of
    `surrogate_rows`:

    - the rows, extended by the aggregate dummy when `space` has one;
    - their 0-based permutations, connection descending:
      `game.connection_order`'s, or `order` if given;
    - the sorted connection's steps d_v(i) - d_v(i+1), and its last entry
      d_v(N), views of `space` valid until its next use.

    None of it depends on weights, so a shared scenario's block of trials
    is prepared at once and stepped one trial's row at a time. Nothing is
    checked: the costs are rows of a checked CostPair or CostRows."""
    if space.extended is not None:
        space.real[0][...] = opening
        space.real[1][...] = connection
        opening, connection = space.extended
    if order is None:
        order = connection_order(connection)
    # the permutations are valid indices, so "clip" never acts, and unlike
    # the default mode it writes straight into `out`
    connection.take(order if space.offsets is None else order + space.offsets, out=space.w_sorted, mode="clip")
    np.subtract(space.w_head, space.tail, out=space.steps)  # nonnegative by construction
    last = space.last
    last[...] = space.w_sorted[..., -1]
    return opening, order, space.steps, last


def _powers(x: np.ndarray, ups, full: np.ndarray, less: np.ndarray) -> None:
    """Write x ** ups into `full`, then x ** (ups - 1) into `less` (which may
    be x itself): ups is one int for every row, or (S,) with row r raised by
    ups[r].

    Each distinct exponent is applied as one scalar power: numpy squares by a
    scalar 2 as x * x but goes through pow for an array of exponents, so this
    keeps a row's bits independent of the rows that share its batch.
    """
    if isinstance(ups, int):
        np.power(x, ups, out=full)
        np.power(x, ups - 1, out=less)
        return
    for u in np.unique(ups).tolist():
        rows = ups == u
        full[rows] = np.power(x[rows], u)
        less[rows] = np.power(x[rows], u - 1)


def surrogate_rows(opening, order, steps, last, w, ups, space: Workspace):
    """The surrogate's weight side: values and gradients at the rows of w,
    (n,) for one row or (S, n) for S rows, with ups draws: one int for
    every row, or (S,) with ups[r] for row r. `opening`, `order`, `steps`
    and `last` are the rows' cost side, as `prepare_costs` returns it.
    Every reduction runs along the last axis, so one row is a value and an
    (n,) gradient, and S rows (S,) values and (S, n) gradients.

    The work runs in `space`, a `Workspace` of w's shape. The gradients
    returned are a view of it, valid until its next use. Every numpy call
    goes straight to the ufunc loop or array method that numpy's function
    wrappers would reach.

    Nothing here is checked: the rows of w are the caller's own simplex
    points (a learner's weights, which its draw checked this trial), and
    the cost side is what `prepare_costs` built from a checked CostPair or
    CostRows. `value_and_gradient` is the checked entry.
    """
    add = np.add
    grad = space.grad
    if space.offsets is not None:  # row r's permutation, shifted into the flattened rows
        order = order + space.offsets
    w.take(order, out=space.w_sorted, mode="clip")  # sorted coordinates
    # row dots as products summed along the row: a row's bits then never
    # depend on where the row sits in memory, as a BLAS dot's can
    value = ups * add.reduce(np.multiply(opening, w, out=grad), axis=-1) + last
    if w.shape[-1] > 1:
        prefix = add.accumulate(space.w_head, axis=-1, out=space.prefix)  # s_1 .. s_{N-1}
        # np.power keeps the 0-mass conventions: 0^Ups = 0, and 0^(Ups-1)
        # is 0 for Ups >= 2 but 1 for Ups = 1 (0**0 == 1).
        full = space.full
        _powers(prefix, ups, full=full, less=prefix)
        full *= steps
        value += add.reduce(full, axis=-1)
        prefix *= steps  # the tail terms (d_v(k) - d_v(k+1)) * s_k^(Ups-1)
        add.accumulate(space.prefix_rev, axis=-1, out=space.suffix_rev)  # s'_i; s'_N = 0
    # back to site order: g = Ups * (c + s')
    space.grad_flat[order] = space.work
    add(opening, grad, out=grad)
    grad *= ups if isinstance(ups, int) else ups[:, None]
    return value, grad


def value_and_gradient(inst: SurrogateInstance, w) -> tuple[float, np.ndarray]:
    """Evaluate the surrogate and its gradient at simplex point w, in O(N).
    A w whose sum overflows or meets inf - inf is refused as any other,
    without a numpy warning first."""
    w = np.asarray(w, dtype=float)
    n = inst.n_sites
    if w.shape != (n,):
        raise ContractViolationError(f"w shape {w.shape} != ({n},)")
    with np.errstate(over="ignore", invalid="ignore"):
        total = w.sum()
    if not (abs(total - 1.0) <= SIMPLEX_TOL and w.min() >= -SIMPLEX_TOL):  # false on NaN too
        raise ContractViolationError("w must lie on the probability simplex (within 1e-9)")
    space = Workspace((n,))
    costs = prepare_costs(inst.opening, inst.connection, space, inst.order - 1)
    value, grad = surrogate_rows(*costs, w, inst.num_draws, space)
    return float(value), grad
