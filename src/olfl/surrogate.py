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


def value_and_gradient(inst: SurrogateInstance, w) -> tuple[float, np.ndarray]:
    """Evaluate the surrogate and its gradient at simplex point w, in O(N)."""
    w = np.asarray(w, dtype=float)
    n = inst.n_sites
    if w.shape != (n,):
        raise ContractViolationError(f"w shape {w.shape} != ({n},)")
    if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL or float(w.min()) < -SIMPLEX_TOL:
        raise ContractViolationError("w must lie on the probability simplex (within 1e-9)")

    ups = inst.num_draws
    idx = inst.order - 1
    conn_sorted = inst.connection[idx]
    value = ups * float(inst.opening @ w) + float(conn_sorted[-1])
    suffix = np.zeros(n)  # s'_i in sorted coordinates; s'_N = 0
    if n > 1:
        prefix = np.cumsum(w[idx][:-1])  # s_1 .. s_{N-1}
        steps = conn_sorted[:-1] - conn_sorted[1:]  # nonnegative by construction
        value += float(steps @ np.power(prefix, ups))
        # np.power keeps the 0-mass conventions: 0^Ups = 0, and 0^(Ups-1)
        # is 0 for Ups >= 2 but 1 for Ups = 1 (0**0 == 1).
        tail = steps * np.power(prefix, ups - 1)
        suffix[:-1] = np.cumsum(tail[::-1])[::-1]
    grad = np.empty(n)
    grad[idx] = ups * (inst.opening[idx] + suffix)
    return value, grad
