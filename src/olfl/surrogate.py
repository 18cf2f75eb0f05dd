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

`surrogate_rows` is the one entry for that computation: S weight vectors
at once, one per row, each with its own Ups and its own cost row, in a
`Workspace` the caller keeps. It checks nothing, and every caller sorts
with `game.connection_order`. The learners call it on their own arrays and
weights; the public `SurrogateInstance` validates one trial's costs and
sort order, and `value_and_gradient`, the one-row call, checks that w is a
point of the simplex.
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
    """`surrogate_rows`' work space for (S, n) weight rows, built once per
    shape: a (4, S, n) float scratch cut into the views each pass writes,
    and the offsets that shift row-wise permutations into the flattened
    rows. A call given one allocates no S x n float arrays while its rows
    draw alike.

    The last column of `work` holds s'_N = 0 for every row; no pass writes
    it, so it is zeroed here once."""

    def __init__(self, rows: int, n: int):
        self.conn, self.w_sorted, self.work, self.grad = np.empty((4, rows, n))
        self.offsets = np.arange(0, rows * n, n)[:, None]
        # the sorted connection's head, tail and last entry, and the steps
        # between neighbours, written over the sorted weights' head
        self.head, self.tail, self.last = self.conn[:, :-1], self.conn[:, 1:], self.conn[:, -1]
        self.w_head = self.steps = self.w_sorted[:, :-1]
        self.prefix, self.prefix_rev = self.grad[:, :-1], self.grad[:, -2::-1]
        self.full, self.suffix_rev = self.work[:, :-1], self.work[:, -2::-1]
        self.work[:, -1] = 0.0


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


def surrogate_rows(opening, connection, order, w, ups, space: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Surrogate values (S,) and gradients (S, n) at the rows of w (S, n),
    with ups draws: one int for every row, or (S,) with ups[r] for row r.
    `opening`, `connection` and `order` (0-based, connection descending) are
    (S, n), row r's costs and permutation.

    The work runs in `space`, a `Workspace` of w's shape. The gradients
    returned are a view of it, valid until its next use. Every numpy call
    goes straight to the ufunc loop or array method that numpy's function
    wrappers would reach.

    Nothing here is checked: the rows of w are the caller's own simplex
    points (a learner's weights, which its draw checked this trial), and
    the costs and permutations are what the caller built from a checked
    CostRows. `value_and_gradient` is the checked entry.
    """
    s, n = w.shape
    add = np.add
    grad = space.grad
    # sorted coordinates; the permutations are valid indices, so "clip" never
    # acts, and unlike the default mode it writes straight into `out`
    if s == 1:  # along the row's own permutation, on 1-D row views
        order = order[0]
        w[0].take(order, out=space.w_sorted[0], mode="clip")
        connection[0].take(order, out=space.conn[0], mode="clip")
    else:  # row r's permutation, shifted into the flattened rows
        order = order + space.offsets
        w.take(order, out=space.w_sorted, mode="clip")
        connection.take(order, out=space.conn, mode="clip")
    # row dots as products summed along the row: a row's bits then never
    # depend on where the row sits in memory, as a BLAS dot's can
    value = ups * add.reduce(np.multiply(opening, w, out=grad), axis=1) + space.last
    if n > 1:
        prefix = add.accumulate(space.w_head, axis=1, out=space.prefix)  # s_1 .. s_{N-1}
        steps = np.subtract(space.head, space.tail, out=space.steps)  # nonnegative by construction
        # np.power keeps the 0-mass conventions: 0^Ups = 0, and 0^(Ups-1)
        # is 0 for Ups >= 2 but 1 for Ups = 1 (0**0 == 1).
        full = space.full
        _powers(prefix, ups, full=full, less=prefix)
        full *= steps
        value += add.reduce(full, axis=1)
        prefix *= steps  # the tail terms (d_v(k) - d_v(k+1)) * s_k^(Ups-1)
        add.accumulate(space.prefix_rev, axis=1, out=space.suffix_rev)  # s'_i; s'_N = 0
    # back to site order: g = Ups * (c + s')
    if s == 1:
        grad[0][order] = space.work[0]
    else:
        grad.put(order, space.work)
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
    value, grad = surrogate_rows(
        inst.opening[None], inst.connection[None], (inst.order - 1)[None], w[None], inst.num_draws, Workspace(1, n)
    )
    return float(value[0]), grad[0]
