"""Proportional sampling from finite distributions by inverse CDF.

A draw scales a fresh uniform u in [0, 1) by the total mass and returns the
first site whose cumulative mass exceeds it. Scaling by the computed total,
not 1, keeps every draw strictly below the last cumulative value, so a draw
never lands past the last positive-mass site; a zero-mass site adds nothing
to the cumulative sum, so no draw lands on one. A call costs one O(n)
cumulative sum plus a binary search per draw, and each draw consumes exactly
one uniform.

`draw_rows` samples every row of an (S, n) array of distributions, each
row from its own generator: the checks and the cumulative sums run row-wise
at once, and each row then searches its own cumulative sums. `draw_sites`
is its one-row case.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidDistributionError
from .game import SiteSet

MASS_TOL = 1e-9


def _in_row(p: np.ndarray, r: int) -> str:
    return f" in row {r + 1}" if len(p) > 1 else ""


def draw_rows(p: np.ndarray, counts, rngs) -> list[np.ndarray]:
    """`counts[r]` independent draws from row r of the (S, n) array p with
    generator `rngs[r]`, as 1-based site indices, one array per row."""
    if not np.all(np.isfinite(p)):
        r = int(np.argmin(np.isfinite(p).all(axis=1)))
        raise InvalidDistributionError(f"p must be finite{_in_row(p, r)}")
    if p.min() < 0:
        r, i = np.unravel_index(int(np.argmin(p)), p.shape)
        raise InvalidDistributionError(f"negative mass p_{i + 1} = {p[r, i]}{_in_row(p, r)}")
    cdf = np.cumsum(p, axis=1)
    off = np.abs(cdf[:, -1] - 1.0) > MASS_TOL
    if off.any():
        r = int(np.argmax(off))
        raise InvalidDistributionError(f"total mass {cdf[r, -1]} not 1 within {MASS_TOL}{_in_row(p, r)}")
    if np.min(counts) < 1:
        raise ConfigError(f"count must be >= 1, got {np.min(counts)!r}")
    return [
        row.searchsorted(rng.random(count) * row[-1], side="right") + 1
        for row, count, rng in zip(cdf, counts, rngs)
    ]


def draw_sites(p, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent draws from p, as 1-based site indices."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("p must be a nonempty 1-D vector")
    return draw_rows(p[None, :], (count,), (rng,))[0]


def sample_site_multiset(p, count: int, rng: np.random.Generator) -> SiteSet:
    """Draw `count` sites with replacement from p and keep the distinct ones."""
    return SiteSet(tuple(np.unique(draw_sites(p, count, rng)).tolist()))
