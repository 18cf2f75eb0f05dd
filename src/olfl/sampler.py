"""Proportional sampling from a finite distribution by inverse CDF.

A draw scales a fresh uniform u in [0, 1) by the total mass and returns the
first site whose cumulative mass exceeds it. Scaling by the computed total,
not 1, keeps every draw strictly below the last cumulative value, so a draw
never lands past the last positive-mass site; a zero-mass site adds nothing
to the cumulative sum, so no draw lands on one. A call costs one O(n)
cumulative sum plus a binary search per draw, and each draw consumes exactly
one uniform.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidDistributionError
from .game import SiteSet

MASS_TOL = 1e-9


def draw_sites(p, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent draws from p, as 1-based site indices."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("p must be a nonempty 1-D vector")
    if not np.all(np.isfinite(p)):
        raise InvalidDistributionError("p must be finite")
    if p.min() < 0:
        i = int(np.argmin(p))
        raise InvalidDistributionError(f"negative mass p_{i + 1} = {p[i]}")
    cdf = np.cumsum(p)
    if abs(cdf[-1] - 1.0) > MASS_TOL:
        raise InvalidDistributionError(f"total mass {cdf[-1]} not 1 within {MASS_TOL}")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count!r}")
    return np.searchsorted(cdf, rng.random(count) * cdf[-1], side="right") + 1


def sample_site_multiset(p, count: int, rng: np.random.Generator) -> SiteSet:
    """Draw `count` sites with replacement from p and keep the distinct ones."""
    return SiteSet(tuple(np.unique(draw_sites(p, count, rng)).tolist()))
