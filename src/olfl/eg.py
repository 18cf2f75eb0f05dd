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

Nothing here evaluates a loss function: callers hand over the gradient,
and `ExponentiatedGradient.update` also the loss value at the current
weights, which it echoes back for bookkeeping.

`Step` is the one entry for the step: S independent weight vectors at
once, one per row, each with its own learning rate and gradient bound, with
the constants those give built once. The learners build one per tuning and
call it every trial, `olfl verify`'s EG checks step through one from
`starting_point`, and `ExponentiatedGradient.update` is a one-row `Step`
built from the rate it holds at that call.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractViolationError, NumericError

# relative slack on the gradient-range precondition, for float-dust overshoot
GRAD_RANGE_SLACK = 1e-9


class Step:
    """The multiplicative step at per-row rates lr and gradient bounds
    grad_bound, with its constants built once: the negated rates and the
    gate grad_bound * (1 + GRAD_RANGE_SLACK) that no gradient magnitude of
    a row may pass. Both are one float when every row shares them, as the
    one row of a one-row batch does, and (S, 1) columns otherwise, as
    `LearnerBatch` keeps one draw count while its rows draw alike. A
    learner builds one whenever its rates change and calls it every trial.

    The step checks the gradients it is given against the gate, and the
    normalizer it makes; it does not check w, which a learner's draw
    checked earlier in the same trial."""

    def __init__(self, lr: np.ndarray, grad_bound: np.ndarray):
        self.grad_bound = grad_bound
        self.neg_lr = -lr[:, None]
        self.gate = (grad_bound * (1.0 + GRAD_RANGE_SLACK))[:, None]
        if (lr == lr[0]).all() and (grad_bound == grad_bound[0]).all():
            self.neg_lr, self.gate = float(self.neg_lr[0, 0]), float(self.gate[0, 0])

    def __call__(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The new weights from weights w and gradients g, along the last
        axis: (n,) for one row, (S, n) for S rows.

        Each precondition is one comparison that NaN fails; only a failed
        one looks for the complaint to raise. The reductions call their
        ufunc loops directly, as the array methods would, and the
        normalizers are read as one list."""
        if not np.logical_and.reduce(np.abs(g) <= self.gate, axis=None):
            self._refuse_gradient(g)
        # one new array, stepped in place into the new weights
        u = self.neg_lr * g
        u -= np.maximum.reduce(u, axis=-1, keepdims=True)  # shift largest exponent to 0; normalization cancels it
        np.exp(u, out=u)
        u *= w
        z = np.add.reduce(u, axis=-1, keepdims=True)
        for total in z.ravel().tolist():
            if not 0.0 < total < math.inf:  # false on NaN too
                z = z.ravel()
                degenerate = ~np.isfinite(z) | (z <= 0.0)
                raise NumericError(f"weight normalizer degenerate: {z[int(np.argmax(degenerate))]!r}")
        u /= z
        return u

    def _refuse_gradient(self, g: np.ndarray) -> None:
        """Raise the complaint about the first thing wrong with the gradients."""
        if not np.all(np.isfinite(g)):
            raise ContractViolationError("gradient must be finite")
        g = np.atleast_2d(g)
        magnitude = np.maximum(g.max(axis=1), -g.min(axis=1))
        r = int(np.argmax(np.logical_or.reduce(np.abs(g) > self.gate, axis=1)))
        raise ContractViolationError(f"gradient magnitude {magnitude[r]} exceeds bound {self.grad_bound[r]}")


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
        self.w = Step(np.array([self.lr]), np.array([self.grad_bound]))(self.w, g)
        return value

    @property
    def state_nbytes(self) -> int:
        return self.w.nbytes
