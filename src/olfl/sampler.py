"""Proportional sampling from finite distributions by inverse CDF.

A draw scales a fresh uniform u in [0, 1) by the total mass and returns the
first site whose cumulative mass exceeds it. Scaling by the computed total,
not 1, keeps every draw strictly below the last cumulative value, so a draw
never lands past the last positive-mass site; a zero-mass site adds nothing
to the cumulative sum, so no draw lands on one. A call costs one O(n)
cumulative sum plus a binary search per draw, and each draw consumes exactly
one uniform.

`DrawPlan` is the one entry for drawing: it samples every row of an
(S, n) array of distributions at once. The checks and the cumulative sums
run row-wise, and one search serves every row. With S > 1 the search runs
over complex keys r + i*cdf[r, j]: numpy orders complex numbers by real
part, then imaginary part, so the row index and the cumulative mass are
compared exactly and nothing is added to any cumulative sum. The plan holds
the keys and every other array that depends only on the shape and the draw
counts: the keys' real part and each draw's row index are written once, and
each draw accumulates the cumulative sums straight into the keys' imaginary
view. A learner drawing at one shape and counts every trial builds one when
its counts change and draws through it. The distributions are checked on
every draw, and the counts when the plan is built. One row searches its own
cumulative sums directly, and serves any number of generators: every
generator's draws search the one row, exactly as they would search a copy
of it of their own. `draw_sites` builds a one-row, one-generator plan per
call.

`RecordedRows` draws one row's distributions trial by trial after the
fact: a one-row learner on a shared scenario records each trial's
cumulative sums (checked as `DrawPlan.draw` checks them) and later draws
every generator's actions for a block of recorded trials with one read of
the uniforms, searching each recorded row on its own cumulative sums. Each
generator reads its uniforms in trial order, so it gets exactly the draws
that per-trial draws from the same rows would give. A block holds at most
`PREFETCH_TRIALS` rows and at most `PREFETCH_CAP` cumulative sums, so its
memory does not grow with the horizon.

Uniforms come from one generator per row, read in order: `rngs[r].random`
gives row r its draws on every call. `UniformStreams` instead owns each
row's generator `default_rng(seed)` and prefetches a buffer of about
`PREFETCH_TRIALS` calls' worth of uniforms per row, so a call reads every
row's uniforms with one gather; a block's read, already a block of trials,
prefetches nothing beyond itself. That yields the same uniforms as per-call
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
# the most uniforms a refill prefetches per row beyond one call's, and the
# most cumulative sums a block of recorded rows holds
PREFETCH_CAP = 1 << 16


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

    def take(self, counts, ahead: int = PREFETCH_TRIALS) -> np.ndarray:
        """The next counts[r] uniforms of every row r, flat in row order;
        an int count is every row's. A refill reads about `ahead` such
        calls' worth."""
        width = self._buffer.shape[1]
        if isinstance(counts, int) and self._shared is not None:
            start = self._shared
            if start + counts > width:
                self._refill(counts, ahead)
                start, width = 0, self._buffer.shape[1]
            self._shared = start + counts
            return self._buffer[:, start : self._shared].ravel()
        counts = np.broadcast_to(counts, self._cursor.shape)
        if self._shared is not None:
            self._cursor[:] = self._shared
        end = self._cursor + counts
        if np.maximum.reduce(end) > width:
            self._refill(int(np.maximum.reduce(counts)), ahead)
            width, end = self._buffer.shape[1], counts.copy()
        first = np.add.accumulate(counts) - counts  # where each row's reads start in the output
        base = np.arange(0, counts.size * width, width) + self._cursor - first
        self._cursor, self._shared = end, None
        return self._buffer.ravel()[base.repeat(counts) + np.arange(first[-1] + counts[-1])]

    def _refill(self, count: int, ahead: int) -> None:
        """Every row's unread tail followed by fresh uniforms from its own
        generator, up to a common width that holds at least one more call
        of `count` draws per row, and about `ahead` of them; every cursor
        then reads 0. Each generator writes straight into its new row."""
        cursors = [self._shared] * len(self) if self._shared is not None else self._cursor.tolist()
        width = max(count * max(1, min(ahead, PREFETCH_CAP // count)), self._buffer.shape[1])
        buffer = np.empty((len(self), width))
        for new, row, cursor, rng in zip(buffer, self._buffer, cursors, self.generators):
            unread = row.size - cursor
            new[:unread] = row[cursor:]
            rng.random(out=new[unread:])
        self._buffer = buffer
        self._cursor[:] = 0
        self._shared = 0


def _refuse(p: np.ndarray, cdf: np.ndarray, where: str = "") -> None:
    """Raise the complaint about the first thing wrong with p, ending in
    `where`."""
    if not np.isfinite(p).all():
        r = int(np.argmin(np.isfinite(p).all(axis=1)))
        raise InvalidDistributionError(f"p must be finite{_in_row(p, r)}{where}")
    if p.min() < 0:
        r, i = np.unravel_index(int(np.argmin(p)), p.shape)
        raise InvalidDistributionError(f"negative mass p_{i + 1} = {p[r, i]}{_in_row(p, r)}{where}")
    r = int(np.argmax(np.abs(cdf[:, -1] - 1.0) > MASS_TOL))
    raise InvalidDistributionError(f"total mass {cdf[r, -1]} not 1 within {MASS_TOL}{_in_row(p, r)}{where}")


class DrawPlan:
    """What draws from (rows, n) distributions at fixed draw counts need
    beyond the distributions, built once per shape and counts: counts[r]
    draws from row r, an int count being every row's (a one-row plan
    serves any number of generators, and a sequence of counts then has one
    count per generator).

    `cdf` is the buffer `draw` accumulates each row's cumulative sums into:
    (1, n) floats for one row, else the imaginary part of the (rows, n)
    complex keys r + i*cdf[r, j], whose real part is written here. Rows > 1
    also keep, per draw, its row index, a needle buffer whose real part
    holds that index, and the shift row * n - 1 that turns a position in
    the flattened keys into a 1-based site.

    The counts are checked here, once; `draw` checks the distributions it
    is given on every call."""

    def __init__(self, rows: int, n: int, counts):
        fewest = counts if isinstance(counts, int) else np.minimum.reduce(counts)
        if fewest < 1:
            raise ConfigError(f"count must be >= 1, got {fewest!r}")
        self.counts = counts
        if rows == 1:
            self.keys = self.cdf = np.empty((1, n))
            self._flat, self._shift = self.keys[0], None
        else:
            self.keys = np.empty((rows, n), dtype=complex)
            self.keys.real = np.arange(rows)[:, None]
            self.cdf, self._flat = self.keys.imag, self.keys.ravel()
            self._row = np.arange(rows).repeat(counts)
            self._needles = np.empty(self._row.size, dtype=complex)
            self._needles.real = self._row
            self._shift = self._row * n - 1
        self._totals = self.cdf[:, -1]

    def draw(self, p: np.ndarray, rngs) -> np.ndarray:
        """The plan's draws from the rows of p, of the plan's shape, flat in
        row order as 1-based site indices. `rngs` is one generator per row
        or a `UniformStreams`, and for one row any number of them.

        p is refused unless every entry is >= 0 and every row's total mass
        is 1 within MASS_TOL: the check reads the cumulative sums the search
        needs anyway."""
        np.add.accumulate(p, axis=1, out=self.cdf)
        # false on NaN too
        if not (
            np.minimum.reduce(p, axis=None) >= 0
            and np.logical_and.reduce(np.abs(self._totals - 1.0) <= MASS_TOL)
        ):
            _refuse(p, self.cdf)
        return self.search(uniforms(rngs, self.counts))

    def search(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draws for the flat uniforms u from the cumulative
        sums in `cdf`: counts[r] draws from row r, in row order, as 1-based
        site indices."""
        if self._shift is None:
            return self._flat.searchsorted(u * self._flat[-1], side="right") + 1
        # each uniform scaled by its row's total, as the needle's imaginary part
        np.multiply(u, self._totals.take(self._row), out=self._needles.imag)
        return self._flat.searchsorted(self._needles, side="right") - self._shift


class RecordedRows:
    """The cumulative sums of one-row distributions recorded one per trial
    at one draw count, drawn later for every generator at once: at most
    `PREFETCH_TRIALS` rows, and at most `PREFETCH_CAP` sums (one row at
    least), in a buffer built once.

    `record` checks each row as `DrawPlan.draw` does, before anything
    reads it, so no arithmetic on a bad row can warn first."""

    def __init__(self, n: int):
        self.cdf = np.empty((max(1, min(PREFETCH_TRIALS, PREFETCH_CAP // n)), n))
        self.size = 0
        self.count = 0

    def record(self, p: np.ndarray, count: int, trial: int) -> bool:
        """Record the (1, n) distribution p of trial `trial` for `count`
        draws per generator; if the buffer is full or holds rows of another
        count, record nothing and return False. p is refused unless it is
        >= 0 and sums to 1 within MASS_TOL: no entry past 1 + MASS_TOL gets
        as far as the cumulative sums, so they cannot overflow."""
        size = self.size
        if size and (size == self.cdf.shape[0] or count != self.count):
            return False
        row, cdf = p[0], self.cdf[size]
        # false on NaN too
        if not (np.minimum.reduce(row) >= 0 and np.maximum.reduce(row) <= 1.0 + MASS_TOL):
            with np.errstate(over="ignore", invalid="ignore"):
                _refuse(p, np.add.accumulate(p, axis=1), f" at trial {trial}")
        np.add.accumulate(row, out=cdf)
        if not abs(cdf[-1] - 1.0) <= MASS_TOL:
            _refuse(p, cdf[None], f" at trial {trial}")
        self.size, self.count = size + 1, count
        return True

    def draw(self, rngs) -> np.ndarray:
        """Every generator's draws from each recorded row, as (rows,
        generators, count) 1-based site indices, and empty the buffer.
        `rngs` is a sequence of generators or a `UniformStreams`; each
        generator's uniforms are read in trial order with one read, and
        each row is searched on its own cumulative sums, exactly as
        `DrawPlan.draw` searches one row."""
        size, count, generators = self.size, self.count, len(rngs)
        cdf = self.cdf[:size]
        u = uniforms(rngs, size * count, ahead=1).reshape(generators, size, count)
        # each uniform scaled by its trial's total, trial-major
        needles = np.multiply(u.transpose(1, 0, 2), cdf[:, -1:, None], out=np.empty((size, generators, count)))
        sites = np.empty(needles.shape, dtype=np.intp)
        for trial in range(size):
            sites[trial] = cdf[trial].searchsorted(needles[trial], side="right")
        sites += 1
        self.size = 0
        return sites


def uniforms(rngs, counts, ahead: int = PREFETCH_TRIALS) -> np.ndarray:
    """The next counts[r] uniforms of generator rngs[r], or of row r of a
    `UniformStreams` (whose refill reads about `ahead` calls' worth), flat
    in row order; an int count is every row's."""
    if isinstance(rngs, UniformStreams):
        return rngs.take(counts, ahead)
    if len(rngs) == 1:
        return rngs[0].random(counts if isinstance(counts, int) else counts[0])
    counts = np.broadcast_to(counts, len(rngs)).tolist()
    return np.concatenate([rng.random(count) for rng, count in zip(rngs, counts)])


def draw_sites(p, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent draws from p, as 1-based site indices. A p
    whose cumulative sums overflow or meet inf - inf is refused as any
    other, without a numpy warning first."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("p must be a nonempty 1-D vector")
    plan = DrawPlan(1, p.size, (count,))
    with np.errstate(over="ignore", invalid="ignore"):
        return plan.draw(p[None, :], (rng,))


def sample_site_multiset(p, count: int, rng: np.random.Generator) -> SiteSet:
    """Draw `count` sites with replacement from p and keep the distinct ones."""
    return SiteSet(tuple(np.unique(draw_sites(p, count, rng)).tolist()))
