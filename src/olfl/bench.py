"""Per-trial cost measurement for the full learner stack.

Runs the doubling learner through `experiment.trial_loop`, the loop every
experiment runs, against freshly drawn uniform costs; the loop times only
play() + update(), so cost generation and loss bookkeeping happen off the
clock. The per-trial work is O(N log N) (the connection sort dominates), so
doubling N should raise the median per-trial time by a factor comfortably
under 2.6, and persistent learner state is a few arrays of length O(N).
Each trial's costs are drawn when the loop asks for them, so memory stays
O(N) at any horizon.
"""
from __future__ import annotations

import numpy as np

from .experiment import trial_loop
from .game import CostPair, GameConfig
from .learners import LearnerBatch


def bench_per_trial(n_values, horizon: int, seed: int = 0) -> list[dict]:
    """One row per site count: median/p90 per-trial milliseconds and
    persistent state size in bytes."""
    rows = []
    for n in n_values:
        n = int(n)
        cfg = GameConfig(n, int(horizon), 1.0, 1.0)
        learner = LearnerBatch(cfg, "fl", 1)
        cost_rng = np.random.default_rng(seed + 1)

        def costs_for(t, actions):
            return CostPair(cost_rng.uniform(0.0, 1.0, n), cost_rng.uniform(0.0, 1.0, n))

        per_trial = trial_loop(learner, (np.random.default_rng(seed),), cfg.horizon, costs_for)[0]
        rows.append(
            {
                "n_sites": n,
                "median_ms": float(np.median(per_trial) * 1e3),
                "p90_ms": float(np.percentile(per_trial, 90) * 1e3),
                "state_bytes": int(learner.state_nbytes),
            }
        )
    return rows


def ratio_report(rows: list[dict]) -> list[dict]:
    """Consecutive-row ratios (time and state) for doubling-N sweeps."""
    out = []
    for prev, cur in zip(rows, rows[1:]):
        out.append(
            {
                "n_from": prev["n_sites"],
                "n_to": cur["n_sites"],
                "median_time_ratio": cur["median_ms"] / prev["median_ms"],
                "state_ratio": cur["state_bytes"] / prev["state_bytes"],
            }
        )
    return out
