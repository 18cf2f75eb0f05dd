"""Proportional sampling from finite distributions by inverse CDF.

A draw scales a fresh uniform u in [0, 1) by the total mass and returns the
first site whose cumulative mass exceeds it. Scaling by the computed total,
not 1, keeps every draw strictly below the last cumulative value, so a draw
never lands past the last positive-mass site; a zero-mass site adds nothing
to the cumulative sum, so no draw lands on one. A call costs one O(n)
cumulative sum plus a binary search per draw, and each draw consumes exactly
one uniform.

`draw_flat` samples every row of an (S, n) array of distributions at once:
the checks and the cumulative sums run row-wise, and one search serves
every row. With S > 1 the search runs over complex keys r + i*cdf[r, j]:
numpy orders complex numbers by real part, then imaginary part, so the row
index and the cumulative mass are compared exactly and nothing is added to
any cumulative sum. One row searches its own cumulative sums directly.
`draw_sites` is the one-row case.

Uniforms come from one generator per row, read in order: `rngs[r].random`
gives row r its draws on every call. `UniformStreams` instead owns each
row's generator `default_rng(seed)` and prefetches a buffer of about
`PREFETCH_TRIALS` calls' worth of uniforms per row, so a call reads every
row's uniforms with one gather. That yields the same uniforms as per-call
draws, because `rng.random(a + b)` equals `rng.random(a)` followed by
`rng.random(b)`; but it leaves each generator ahead of the reads, so it is
for generators private to one run only. A caller's own generator is read
one call at a time and advances by exactly the draws made.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidDistributionError
from .game import SiteSet

MASS_TOL = 1e-9
PREFETCH_TRIALS = 64  # calls' worth of uniforms a stream refill reads ahead
PREFETCH_CAP = 1 << 16  # the most uniforms a refill prefetches per row, beyond one call's


def _in_row(p: np.ndarray, r: int) -> str:
    return f" in row {r + 1}" if len(p) > 1 else ""


class UniformStreams:
    """One private generator `default_rng(seed)` per row, read through a
    prefetched (S, width) buffer with a read cursor per row."""

    def __init__(self, seeds):
        self.generators = [np.random.default_rng(seed) for seed in seeds]
        self._buffer = np.empty((len(self.generators), 0))
        self._cursor = np.zeros(len(self.generators), dtype=np.intp)
        self._shared = 0  # the cursor every row is at, or None once they differ

    def __len__(self) -> int:
        return len(self.generators)

    def take(self, counts) -> np.ndarray:
        """The next counts[r] uniforms of every row r, flat in row order;
        an int count is every row's."""
        width = self._buffer.shape[1]
        if isinstance(counts, int) and self._shared is not None:
            start = self._shared
            if start + counts > width:
                self._refill(counts)
                start, width = 0, self._buffer.shape[1]
            self._shared = start + counts
            return self._buffer[:, start : self._shared].ravel()
        counts = np.broadcast_to(counts, self._cursor.shape)
        if self._shared is not None:
            self._cursor[:] = self._shared
        end = self._cursor + counts
        if end.max() > width:
            self._refill(int(counts.max()))
            width, end = self._buffer.shape[1], counts.copy()
        first = np.cumsum(counts) - counts  # where each row's reads start in the output
        base = np.arange(0, len(counts) * width, width) + self._cursor - first
        self._cursor, self._shared = end, None
        return self._buffer.ravel()[np.repeat(base, counts) + np.arange(first[-1] + counts[-1])]

    def _refill(self, count: int) -> None:
        """Every row's unread tail followed by fresh uniforms from its own
        generator, up to a common width that holds at least one more call
        of `count` draws per row; every cursor then reads 0."""
        cursors = [self._shared] * len(self) if self._shared is not None else self._cursor.tolist()
        width = max(count * max(1, min(PREFETCH_TRIALS, PREFETCH_CAP // count)), self._buffer.shape[1])
        self._buffer = np.stack(
            [
                np.concatenate([row[cursor:], rng.random(width - row.size + cursor)])
                for row, cursor, rng in zip(self._buffer, cursors, self.generators)
            ]
        )
        self._cursor[:] = 0
        self._shared = 0


def _refuse(p: np.ndarray, cdf: np.ndarray) -> None:
    """Raise the complaint about the first thing wrong with p."""
    if not np.isfinite(p).all():
        r = int(np.argmin(np.isfinite(p).all(axis=1)))
        raise InvalidDistributionError(f"p must be finite{_in_row(p, r)}")
    if p.min() < 0:
        r, i = np.unravel_index(int(np.argmin(p)), p.shape)
        raise InvalidDistributionError(f"negative mass p_{i + 1} = {p[r, i]}{_in_row(p, r)}")
    r = int(np.argmax(np.abs(cdf[:, -1] - 1.0) > MASS_TOL))
    raise InvalidDistributionError(f"total mass {cdf[r, -1]} not 1 within {MASS_TOL}{_in_row(p, r)}")


def search_rows(cdf: np.ndarray, counts, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for the flat uniforms u: counts[r] draws from row r
    of the (S, n) cumulative sums, in row order, as 1-based site indices;
    an int count is every row's."""
    rows, n = cdf.shape
    if rows == 1:
        return cdf[0].searchsorted(u * cdf[0, -1], side="right") + 1
    row = np.repeat(np.arange(rows), counts)
    keys = cdf * 1j  # exactly 0 + i*cdf
    keys.real = np.arange(rows)[:, None]
    needles = u * 1j
    needles.imag *= np.repeat(cdf[:, -1], counts)  # the uniform scaled by its row's total
    needles.real = row
    return keys.ravel().searchsorted(needles, side="right") - row * n + 1


def draw_flat(p: np.ndarray, counts, rngs) -> np.ndarray:
    """`counts[r]` independent draws from row r of the (S, n) array p, flat
    in row order as 1-based site indices; an int count is every row's.
    `rngs` is one generator per row or a `UniformStreams`."""
    cdf = np.cumsum(p, axis=1)
    if not (p.min() >= 0 and (np.abs(cdf[:, -1] - 1.0) <= MASS_TOL).all()):  # false on NaN too
        _refuse(p, cdf)
    fewest = counts if isinstance(counts, int) else np.min(counts)
    if fewest < 1:
        raise ConfigError(f"count must be >= 1, got {fewest!r}")
    if isinstance(rngs, UniformStreams):
        u = rngs.take(counts)
    elif len(p) == 1:
        u = rngs[0].random(counts if isinstance(counts, int) else counts[0])
    else:
        counts = np.broadcast_to(counts, len(p))
        u = np.concatenate([rng.random(count) for rng, count in zip(rngs, counts.tolist())])
    return search_rows(cdf, counts, u)


def draw_sites(p, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent draws from p, as 1-based site indices."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("p must be a nonempty 1-D vector")
    return draw_flat(p[None, :], (count,), (rng,))


def sample_site_multiset(p, count: int, rng: np.random.Generator) -> SiteSet:
    """Draw `count` sites with replacement from p and keep the distinct ones."""
    return SiteSet(tuple(np.unique(draw_sites(p, count, rng)).tolist()))
