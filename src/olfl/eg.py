"""Exponentiated gradient on the probability simplex.

The core no-regret step shared by every learner here: maintain weights w on
the simplex and respond to a gradient g with

    w_i  <-  w_i * exp(-lr * g_i) / Z.

The learning rate is fixed up front from the horizon and the gradient range,
lr = sqrt(ln(n) / horizon) / grad_bound, which gives average regret at most
grad_bound * sqrt(2 ln(n) / horizon) against any fixed simplex point for
convex losses whose gradients stay in [-grad_bound, grad_bound].

A coordinate may stand for several identical experts, which always share a
gradient: `multiplicity` gives the count per coordinate (all ones by
default). The weights then start proportional to it and n in the learning
rate is the total expert count, so the run equals exponentiated gradient over
the expanded expert list with each group's weights summed.

This class never evaluates a loss function itself; callers hand it the loss
value at the current weights (echoed back, for bookkeeping) and the gradient.

`eg_rows` is the step for S independent weight vectors at once, one per row,
each with its own learning rate and gradient bound; the learners call it
directly, and `ExponentiatedGradient.update` is its one-row call.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractViolationError, NumericError

# relative slack on the gradient-range precondition, for float-dust overshoot
GRAD_RANGE_SLACK = 1e-9


def eg_rows(w: np.ndarray, g: np.ndarray, lr: np.ndarray, grad_bound: np.ndarray) -> np.ndarray:
    """One multiplicative step per row: the new (S, n) weights from weights
    w and gradients g, row r stepping at rate lr[r] under bound grad_bound[r]."""
    if not np.all(np.isfinite(g)):
        raise ContractViolationError("gradient must be finite")
    magnitude = np.maximum(g.max(axis=1), -g.min(axis=1))
    over = magnitude > grad_bound * (1.0 + GRAD_RANGE_SLACK)
    if over.any():
        r = int(np.argmax(over))
        raise ContractViolationError(
            f"gradient magnitude {magnitude[r]} exceeds bound {grad_bound[r]}"
        )
    # one new array, stepped in place into the new weights
    u = -lr[:, None] * g
    u -= u.max(axis=1, keepdims=True)  # shift largest exponent to 0; normalization cancels it
    np.exp(u, out=u)
    u *= w
    z = u.sum(axis=1)
    degenerate = ~np.isfinite(z) | (z <= 0.0)
    if degenerate.any():
        raise NumericError(f"weight normalizer degenerate: {z[int(np.argmax(degenerate))]!r}")
    u /= z[:, None]
    return u


def starting_point(n: int, horizon: int, multiplicity=None) -> tuple[np.ndarray, float]:
    """Starting weights, proportional to `multiplicity` (all ones by
    default), and sqrt(ln(experts) / horizon), which divided by the gradient
    bound gives the learning rate."""
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {n!r}")
    if not isinstance(horizon, int) or horizon < 1:
        raise ConfigError(f"horizon must be a positive integer, got {horizon!r}")
    counts = np.ones(n) if multiplicity is None else np.asarray(multiplicity, dtype=float)
    if counts.shape != (n,) or not np.all(np.isfinite(counts)) or counts.min() < 1:
        raise ConfigError(f"multiplicity must be {n} finite counts >= 1, got {multiplicity!r}")
    experts = float(counts.sum())
    return counts / experts, math.sqrt(math.log(experts) / horizon)


class ExponentiatedGradient:
    def __init__(self, n: int, grad_bound: float, horizon: int, multiplicity=None):
        w, rate = starting_point(n, horizon, multiplicity)
        if not (grad_bound > 0 and np.isfinite(grad_bound)):
            raise ConfigError(f"grad_bound must be positive and finite, got {grad_bound!r}")
        self.n = n
        self.grad_bound = float(grad_bound)
        self.horizon = horizon
        self.lr = rate / self.grad_bound
        self.w = w

    def play(self) -> np.ndarray:
        """Current weights. Do not mutate; update() replaces the array."""
        return self.w

    def update(self, value: float, grad) -> float:
        """Apply one multiplicative step; returns `value` unchanged.

        `value` is the caller's loss at the current (pre-update) weights and
        rides along so wrappers can account for it without recomputing.
        """
        g = np.asarray(grad, dtype=float)
        if g.shape != (self.n,):
            raise ContractViolationError(f"gradient shape {g.shape} != ({self.n},)")
        self.w = eg_rows(self.w[None, :], g[None, :], np.array([self.lr]), np.array([self.grad_bound]))[0]
        return value

    @property
    def state_nbytes(self) -> int:
        return self.w.nbytes
