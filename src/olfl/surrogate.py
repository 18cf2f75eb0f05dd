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

`surrogate_rows` is that computation for S weight vectors at once, one per
row, each with its own Ups, on costs that all rows share or that differ by
row; the learners call it directly on their own sorted arrays. The public
`SurrogateInstance` validates one trial's costs and sort order, and
`value_and_gradient` is the one-row call of the same kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolationError
from .game import CostPair

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
        # f does not depend on how tied connection costs are ordered, so the
        # faster unstable sort serves here.
        return cls(costs.opening, costs.connection, np.argsort(-costs.connection) + 1, num_draws)

    @property
    def n_sites(self) -> int:
        return self.opening.size


def _powers(x: np.ndarray, ups: np.ndarray, full: np.ndarray, less: np.ndarray) -> None:
    """Write x ** ups into `full`, then x ** (ups - 1) into `less` (which may
    be x itself), row r raised by ups[r].

    Each distinct exponent is applied as one scalar power: numpy squares by a
    scalar 2 as x * x but goes through pow for an array of exponents, so this
    keeps a row's bits independent of the rows that share its batch.
    """
    exps = np.unique(ups)
    if exps.size == 1:
        u = int(exps[0])
        np.power(x, u, out=full)
        np.power(x, u - 1, out=less)
        return
    for u in exps.tolist():
        rows = ups == u
        full[rows] = np.power(x[rows], u)
        less[rows] = np.power(x[rows], u - 1)


def surrogate_rows(opening, connection, order, w, ups, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """Surrogate values (S,) and gradients (S, n) at the rows of w (S, n),
    row r with ups[r] draws. `opening`, `connection` and `order` (0-based,
    connection descending) are (n,) when every row sees the same costs and
    (S, n) when each row has its own.

    The work runs in `scratch`, a (4, S, n) float array allocated when not
    given. A caller that passes the same one to every call allocates no
    S x n arrays per call; the gradients returned are then a view of it,
    valid until the next call.
    """
    s, n = w.shape
    if np.any(np.abs(w.sum(axis=1) - 1.0) > SIMPLEX_TOL) or w.min() < -SIMPLEX_TOL:
        raise ContractViolationError("w must lie on the probability simplex (within 1e-9)")
    if scratch is None:
        scratch = np.empty((4, s, n))
    conn_sorted, w_sorted, work, grad = scratch
    # sorted coordinates; the permutations are valid indices, so "clip" never
    # acts, and unlike the default mode it writes straight into `out`
    if order.ndim == 1:  # one permutation serves every row
        lead = 0
        np.take(w, order, axis=1, out=w_sorted, mode="clip")
    else:  # row r's permutation, shifted into the flattened rows
        lead = slice(None)
        order = order + np.arange(0, s * n, n)[:, None]
        np.take(w, order, out=w_sorted, mode="clip")
    conn_sorted = np.take(connection, order, out=conn_sorted[lead], mode="clip")
    # row dots as products summed along the row: a row's bits then never
    # depend on where the row sits in memory, as a BLAS dot's can
    value = ups * np.multiply(opening, w, out=work).sum(axis=1) + conn_sorted[..., -1]
    suffix = work  # s'_i in sorted coordinates; s'_N = 0
    if n > 1:
        prefix = np.cumsum(w_sorted[:, :-1], axis=1, out=grad[:, :-1])  # s_1 .. s_{N-1}
        # nonnegative by construction
        steps = np.subtract(conn_sorted[..., :-1], conn_sorted[..., 1:], out=w_sorted[lead, :-1])
        # np.power keeps the 0-mass conventions: 0^Ups = 0, and 0^(Ups-1)
        # is 0 for Ups >= 2 but 1 for Ups = 1 (0**0 == 1).
        full = work[:, :-1]
        _powers(prefix, ups, full=full, less=prefix)
        full *= steps
        value += full.sum(axis=1)
        prefix *= steps  # the tail terms (d_v(k) - d_v(k+1)) * s_k^(Ups-1)
        np.cumsum(prefix[:, ::-1], axis=1, out=suffix[:, -2::-1])
    suffix[:, -1] = 0.0
    # back to site order: g = Ups * (c + s')
    if order.ndim == 1:
        grad[:, order] = suffix
    else:
        np.put(grad, order, suffix)
    np.add(opening, grad, out=grad)
    grad *= ups[:, None]
    return value, grad


def value_and_gradient(inst: SurrogateInstance, w) -> tuple[float, np.ndarray]:
    """Evaluate the surrogate and its gradient at simplex point w, in O(N)."""
    w = np.asarray(w, dtype=float)
    n = inst.n_sites
    if w.shape != (n,):
        raise ContractViolationError(f"w shape {w.shape} != ({n},)")
    value, grad = surrogate_rows(
        inst.opening, inst.connection, inst.order - 1, w[None, :], np.array([inst.num_draws])
    )
    return float(value[0]), grad[0]
