"""Proportional sampling from finite distributions by inverse CDF.

A draw scales a fresh uniform u in [0, 1) by the total mass and returns the
first site whose cumulative mass exceeds it. Scaling by the computed total,
not 1, keeps every draw strictly below the last cumulative value, so a draw
never lands past the last positive-mass site; a zero-mass site adds nothing
to the cumulative sum, so no draw lands on one. A call costs one O(n)
cumulative sum per distribution plus a binary search per draw (or, for
several narrow rows, one pass over each row's sums), and each draw consumes
exactly one uniform.

Every draw checks its distributions once, in `accumulate_checked`, which
also writes the cumulative sums the search needs: every entry must lie in
[0, 1 + MASS_TOL] before anything sums it, so no sum can overflow or meet
inf - inf, and every row's total mass must be 1 within MASS_TOL. Every
randomized learner's weight rows pass it before a draw.

One class, `RecordedRows`, draws every learner row: the fl learners' and
`oracles.ExactHedge`'s, whose sites are its subsets. `record` checks k rows
at a time into a buffer of cumulative sums, held as the imaginary part of
complex keys r + i*cdf[r, j]: numpy orders complex numbers by real part,
then imaginary part, so one search of the flattened keys compares the row
index and the cumulative mass exactly, and nothing is added to any
cumulative sum. `search` turns each recorded row's uniforms into sites.
Several rows of at most `COUNTED_DRAW_MAX` sites, each with at least as
many uniforms as sites, are counted, all at once: the cumulative sums at or
below each scaled uniform, which is exactly the search's answer, since a
row's sums never decrease (they add checked non-negative masses), zero-mass
sites included. Otherwise, one row or rows wider than that take one search
of the flattened keys.

S learner rows record one trial's S rows, and `draw` draws row r from
generator r, for the fl learners and `oracles.ExactHedge` alike. One row
serving any number of generators records one row per trial, and `draw`
draws every generator's actions for a block of recorded trials with one
read of the uniforms. Each generator reads its uniforms in trial order, so
it gets exactly the draws that per-trial draws would give, from the one row
exactly as from a copy of its own. A per-trial draw is a block of one
trial, and `sample_site_multiset` one such draw for one generator. A block
holds at most `PREFETCH_TRIALS` rows and `PREFETCH_CAP` cumulative sums, so
its memory does not grow with the horizon.

Uniforms come from one generator per row, read in order: `rngs[r].random`
gives row r its draws on every call, and is all that is read of a caller's
generator. This module alone lays them out: `uniforms` gives row r of a
(rows, most counts) array its generator's counts[r] uniforms, then repeats
of the last of them, whose draws repeat row r's last draw, which a
learner's dedup drops. `UniformStreams` instead owns each row's generator
`default_rng(seed)` and prefetches about `PREFETCH_TRIALS` trials' worth of
uniforms per row (a block of b trials, about `PREFETCH_TRIALS` // b
blocks), so a call reads every row's uniforms with one gather. That yields
the same uniforms as per-call draws, because `rng.random(a + b)` equals
`rng.random(a)` followed by `rng.random(b)`; but it leaves each generator
ahead of the reads, so it is for generators private to one run only. A
caller's own generator is read one call at a time and advances by exactly
the draws made.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidDistributionError
from .game import SiteSet

MASS_TOL = 1e-9
PREFETCH_TRIALS = 64  # trials' worth of uniforms a stream refill reads ahead
# the most uniforms a refill prefetches per row beyond one call's, and the
# most cumulative sums a block of recorded rows holds
PREFETCH_CAP = 1 << 16
# the widest rows that several rows' draws count, not search, when each row
# has at least as many uniforms as sites. Counting took, of one search of
# the flattened keys' time, on 7 / 17 / 24 / 33 sites: 0.25 / 0.41 / 0.51 /
# 0.63 in 64-trial blocks of 160 uniforms a trial (0.20-0.59 at 1600);
# 0.30 / 0.51 / 0.69 / 0.85 on 200 rows of 32 uniforms, but 0.76 / 1.17 /
# 1.53 / 1.69 on 20 such rows; on rows of 4 or 8 uniforms 0.86-1.64 on 2
# rows and 1.02-4.79 on 20, 64 and 200 rows (timeit, 2-core x86-64, numpy
# 2.4.6)
COUNTED_DRAW_MAX = 24


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
        """The next counts[r] uniforms of every row r, as row r of a (rows,
        most counts) array padded with repeats of its last one; an int
        count is every row's. A refill reads about `ahead` such calls'
        worth."""
        width = self._buffer.shape[1]
        if type(counts) is int and self._shared is not None:
            start = self._shared
            if start + counts > width:
                self._refill(counts, ahead)
                start, width = 0, self._buffer.shape[1]
            self._shared = start + counts
            return self._buffer[:, start : self._shared]
        counts = np.broadcast_to(counts, self._cursor.shape)
        most = int(np.maximum.reduce(counts))
        if self._shared is not None:
            self._cursor[:] = self._shared
        end = self._cursor + counts
        if np.maximum.reduce(end) > width:
            self._refill(most, ahead)
            width, end = self._buffer.shape[1], counts.copy()
        base = np.arange(0, counts.size * width, width) + self._cursor  # where each row's reads start
        self._cursor, self._shared = end, None
        return self._buffer.ravel()[base[:, None] + np.minimum(np.arange(most), counts[:, None] - 1)]

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


def accumulate_checked(p: np.ndarray, cdf: np.ndarray, trial: int | None = None) -> None:
    """Accumulate the (n,) distribution p, or the rows of the (rows, n)
    distributions p, along the last axis into `cdf`, or refuse p, naming
    the row and the trial if given: every entry must lie in
    [0, 1 + MASS_TOL] before anything sums it, so no sum can warn first,
    and every row's total mass must be 1 within MASS_TOL."""
    # false on NaN too
    if not (np.minimum.reduce(p, axis=None) >= 0 and np.maximum.reduce(p, axis=None) <= 1.0 + MASS_TOL):
        _refuse(p, trial)
    np.add.accumulate(p, axis=-1, out=cdf)
    for total in cdf[..., -1:].flat:  # exactly |total - 1| <= MASS_TOL, cheaper on few rows
        if not -MASS_TOL <= total - 1.0 <= MASS_TOL:
            _refuse(p, trial)


def _refuse(p: np.ndarray, trial: int | None) -> None:
    """Raise the complaint about the first thing wrong with p, one
    distribution or rows of them."""
    where = "" if trial is None else f" at trial {trial}"
    p = p.reshape(-1, p.shape[-1])
    if not np.isfinite(p).all():
        r = int(np.argmin(np.isfinite(p).all(axis=1)))
        raise InvalidDistributionError(f"p must be finite{_in_row(p, r)}{where}")
    if p.min() < 0:
        r, i = np.unravel_index(int(np.argmin(p)), p.shape)
        raise InvalidDistributionError(f"negative mass p_{i + 1} = {p[r, i]}{_in_row(p, r)}{where}")
    with np.errstate(over="ignore"):  # an entry past 1 + MASS_TOL may overflow the sum
        totals = np.add.accumulate(p, axis=1)[:, -1]
    r = int(np.argmax(np.abs(totals - 1.0) > MASS_TOL))
    raise InvalidDistributionError(f"total mass {totals[r]} not 1 within {MASS_TOL}{_in_row(p, r)}{where}")


class RecordedRows:
    """Distributions over n sites recorded k rows at a time, in a buffer of
    `rows` rows, by default `capacity`, a block's: at most
    `PREFETCH_TRIALS` rows and `PREFETCH_CAP` sums, one row at least.
    `cdf` is the imaginary part of the (rows, n) search keys
    r + i*cdf[r, j], whose real parts are written once. A buffer of
    several `rows` holds learner rows, one trial's, each drawn from a
    generator of its own; any other holds one row's trials, which every
    generator draws from."""

    def __init__(self, n: int, rows: int | None = None):
        self.capacity = max(1, min(PREFETCH_TRIALS, PREFETCH_CAP // n))
        self._per_generator = (rows or 1) > 1  # several learner rows, row r drawn from generator r
        index = np.arange(rows or self.capacity)[:, None]
        self.keys = index + np.zeros(n, dtype=complex)  # each row's index as its real part
        self.cdf, self._flat = self.keys.imag, self.keys.ravel()
        self._shift = index * n - 1  # turns a position in the flat keys into a 1-based site
        self._needles = self.keys[:0]  # the key search's, per shape of its uniforms
        self.size, self.count = 0, None

    def record(self, p: np.ndarray, count, trial: int | None = None) -> bool:
        """Record the (k, n) distributions p, each for `count` draws, an int
        or one count per row, after the rows already recorded; if they do
        not fit, or those rows were recorded at another count, record
        nothing and return False. A count below 1 is refused, and p passes
        `accumulate_checked`, a refusal naming the trial if given."""
        size, end = self.size, self.size + p.shape[0]
        if size and (end > self.cdf.shape[0] or count != self.count):
            return False
        if count is not self.count and (count if type(count) is int else np.minimum.reduce(count, axis=None)) < 1:
            raise ConfigError(f"count must be >= 1, got {count!r}")
        accumulate_checked(p, self.cdf[size:end], trial)
        self.size, self.count = end, count
        return True

    def search(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draws for the uniforms u, (rows, m), row r's from
        recorded row r, as (rows, m) 1-based sites; the buffer is emptied.
        Several rows of at most `COUNTED_DRAW_MAX` sites, and of at most m,
        are counted: a row's sums never decrease, since they add checked
        non-negative masses, so the count of its sums at or below a scaled
        uniform is exactly the search's answer, zero-mass sites included.
        Otherwise the flattened keys are searched once."""
        rows, n, self.size = u.shape[0], self.cdf.shape[1], 0
        if rows > 1 and n <= COUNTED_DRAW_MAX and n <= u.shape[1]:  # each uniform scaled by its row's total
            below = np.less_equal(self.cdf[:rows, :, None], np.multiply(u, self.cdf[:rows, -1:])[:, None])
            return np.add.reduce(below, axis=1, dtype=np.intp) + 1
        if self._needles.shape != u.shape:  # per shape of u: row r's needles r + i*scaled, and views
            self._needles = np.empty(u.shape, dtype=complex)
            self._needles.real = self.keys.real[:rows, :1]
            self._views = (self._needles.imag, self.cdf[:rows, -1:], self._flat[: rows * n], self._shift[:rows])
        scaled, totals, keys, shift = self._views
        np.multiply(u, totals, out=scaled)
        return keys.searchsorted(self._needles, side="right") - shift

    def draw(self, rngs) -> np.ndarray:
        """The actions' draws, one row of 1-based sites per action. Rows
        built for several learner rows draw row r from generator rngs[r],
        its `count` draws padded to the most counts with repeats of its
        last. Otherwise every generator draws `count` sites from each
        recorded row, trial-major: trial j's draws for generator a are row
        j * len(rngs) + a. `rngs` is a sequence of generators or a
        `UniformStreams`, whose refill reads about `PREFETCH_TRIALS`
        trials' worth; each generator's uniforms are read in trial order
        with one read."""
        size, count = self.size, self.count
        if self._per_generator:
            return self.search(uniforms(rngs, count))
        u = uniforms(rngs, size * count, PREFETCH_TRIALS // size).reshape(1, -1)  # as one trial's
        if size > 1:  # trial-major: each trial's uniforms in generator order
            u = u.reshape(-1, size, count).transpose(1, 0, 2).reshape(size, -1)
        return self.search(u).reshape(-1, count)


def uniforms(rngs, counts, ahead: int = PREFETCH_TRIALS) -> np.ndarray:
    """The next counts[r] uniforms of generator rngs[r], or of row r of a
    `UniformStreams` (whose refill reads about `ahead` calls' worth), as
    row r of a (rows, most counts) array, padded with repeats of its last
    uniform, whose draws repeat its last draw; an int count is every
    row's."""
    if isinstance(rngs, UniformStreams):
        return rngs.take(counts, ahead)
    if len(rngs) == 1:
        return rngs[0].random(counts)[None]
    counts = np.broadcast_to(counts, len(rngs)).tolist()
    u = np.empty((len(rngs), max(counts)))
    for row, rng, count in zip(u, rngs, counts):
        row[:count] = rng.random(count)
        row[count:] = row[count - 1]
    return u


def sample_site_multiset(p, count: int, rng: np.random.Generator) -> SiteSet:
    """Draw `count` sites with replacement from p, as a recorded block of
    one trial for one generator, and keep the distinct ones."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("p must be a nonempty 1-D vector")
    recorded = RecordedRows(p.size, 1)
    recorded.record(p[None, :], count)
    return SiteSet(tuple(np.unique(recorded.draw((rng,))).tolist()))
