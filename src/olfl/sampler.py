"""Proportional sampling from finite distributions by inverse CDF.

A draw scales a fresh uniform u in [0, 1) by the total mass and returns the
first site whose cumulative mass exceeds it. Scaling by the computed total,
not 1, keeps every draw strictly below the last cumulative value, so a draw
never lands past the last positive-mass site; a zero-mass site adds nothing
to the cumulative sum, so no draw lands on one. A call costs one O(n)
cumulative sum plus a binary search per draw (or, for a block of narrow
recorded rows, one pass over the row's sums), and each draw consumes
exactly one uniform.

Every draw checks its distributions once, in `accumulate_checked`, which
also writes the cumulative sums the search needs: every entry must lie in
[0, 1 + MASS_TOL] before anything sums it, so no sum can overflow or meet
inf - inf, and every row's total mass must be 1 within MASS_TOL. Every
randomized learner's weight rows pass it before a draw: the fl learners'
here, `oracles.ExactHedge`'s before its own search of the same arithmetic.

There is one draw per kind of distribution array. `DrawPlan` draws from the
S > 1 rows of an (S, n) array, each for its own generator, with one search
over complex keys r + i*cdf[r, j]: numpy orders complex numbers by real
part, then imaginary part, so the row index and the cumulative mass are
compared exactly and nothing is added to any cumulative sum. The plan holds
every array that depends only on the shape and the draw counts, built once
per counts; each draw accumulates straight into the keys' imaginary view.

`RecordedRows` draws one row for any number of generators: it records each
trial's row, and draws every generator's actions for a block of recorded
trials with one read of the uniforms. On rows of at most `COUNTED_DRAW_MAX`
sites it counts, for every trial of the block at once, the cumulative sums
at or below each scaled uniform: a row's sums never decrease, since they
add checked non-negative masses, so the count is exactly the search's
answer, zero-mass sites included. Wider rows, and a block of one trial, are
searched trial by trial on their own cumulative sums. Each generator reads
its uniforms in trial order, so it gets exactly the draws that per-trial
draws would give, from the one row exactly as from a copy of its own. A
per-trial draw is a block of one trial, and `sample_site_multiset` one such
draw for one generator. A block holds at most `PREFETCH_TRIALS` rows and
`PREFETCH_CAP` cumulative sums, so its memory does not grow with the
horizon.

Uniforms come from one generator per row, read in order: `rngs[r].random`
gives row r its draws on every call. `UniformStreams` instead owns each
row's generator `default_rng(seed)` and prefetches about `PREFETCH_TRIALS`
trials' worth of uniforms per row (a block of b trials, about
`PREFETCH_TRIALS` // b blocks), so a call reads every row's uniforms with
one gather. That yields the same uniforms as per-call draws, because
`rng.random(a + b)` equals `rng.random(a)` followed by `rng.random(b)`; but
it leaves each generator ahead of the reads, so it is for generators
private to one run only. A caller's own generator is read one call at a
time and advances by exactly the draws made.
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
# the widest rows a block of recorded trials draws by counting, not by one
# search per trial: in 64-trial blocks of 4 to 1600 uniforms a trial,
# counting took 0.31-0.66 of the per-trial searches' time on 7 sites,
# 0.57-1.00 on 17, 0.76-0.85 on 25, 0.97-1.08 on 33 and 1.5-1.8 on 65; on a
# block of one trial it took 1.5-3.7 times the one search's time on 7 to 33
# sites, so such a block keeps its search (timeit, 2-core x86-64, numpy 2.4.6)
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


class DrawPlan:
    """What draws from (rows, n) distributions, rows > 1, at fixed draw
    counts need beyond the distributions, built once per shape and counts:
    counts[r] draws from row r, an int count being every row's.

    `cdf` is the buffer `draw` accumulates each row's cumulative sums into:
    the imaginary part of the (rows, n) complex keys r + i*cdf[r, j]. The
    plan also keeps, per draw, its row index, a needle buffer whose real
    part holds that index, and the shift row * n - 1 that turns a position
    in the flattened keys into a 1-based site.

    The counts are checked here, once; `draw` checks the distributions it
    is given on every call."""

    def __init__(self, rows: int, n: int, counts):
        fewest = counts if isinstance(counts, int) else np.minimum.reduce(counts)
        if fewest < 1:
            raise ConfigError(f"count must be >= 1, got {fewest!r}")
        self.counts = counts
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
        or a `UniformStreams`. p passes `accumulate_checked` first."""
        accumulate_checked(p, self.cdf)
        return self.search(uniforms(rngs, self.counts))

    def search(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draws for the flat uniforms u from the cumulative
        sums in `cdf`: counts[r] draws from row r, in row order, as 1-based
        site indices."""
        # each uniform scaled by its row's total, as the needle's imaginary part
        np.multiply(u, self._totals.take(self._row), out=self._needles.imag)
        return self._flat.searchsorted(self._needles, side="right") - self._shift


class RecordedRows:
    """The cumulative sums of one-row distributions recorded one per trial
    at one draw count, drawn for every generator at once, in a buffer of
    `rows` rows, by default `capacity`, a block's: at most `PREFETCH_TRIALS`
    rows and `PREFETCH_CAP` sums, one row at least."""

    def __init__(self, n: int, rows: int | None = None):
        self.capacity = max(1, min(PREFETCH_TRIALS, PREFETCH_CAP // n))
        self.cdf = np.empty((rows or self.capacity, n))
        self.size = 0
        self.count = 0

    def record(self, p: np.ndarray, count: int, trial: int | None = None) -> bool:
        """Record the (1, n) distribution p of trial `trial` for `count`
        draws per generator; if the buffer is full or holds rows of another
        count, record nothing and return False. p passes
        `accumulate_checked`, a refusal naming the trial if given."""
        size = self.size
        if size and (size == self.cdf.shape[0] or count != self.count):
            return False
        accumulate_checked(p[0], self.cdf[size], trial)
        self.size, self.count = size + 1, count
        return True

    def draw(self, rngs, out: np.ndarray) -> None:
        """Write every generator's draws from each recorded row into `out`,
        (rows, generators, count) 1-based site indices, and empty the
        buffer. `rngs` is a sequence of generators or a `UniformStreams`,
        whose refill reads about `PREFETCH_TRIALS` trials' worth; each
        generator's uniforms are read in trial order with one read. A
        block of several trials on rows of at most `COUNTED_DRAW_MAX` sites
        counts each uniform's sums at or below it, all trials at once;
        otherwise each row is searched on its own cumulative sums."""
        size, generators, count = out.shape
        cdf = self.cdf
        u = uniforms(rngs, size * count, PREFETCH_TRIALS // size).reshape(generators, size, count)
        if size > 1 and cdf.shape[1] <= COUNTED_DRAW_MAX:
            # each uniform scaled by its trial's total, trial-major
            needles = np.multiply(u.transpose(1, 0, 2), cdf[:size, -1:, None]).reshape(size, 1, -1)
            below = np.less_equal(cdf[:size, :, None], needles)
            np.add.reduce(below, axis=1, dtype=np.intp, out=out.reshape(size, -1))
        else:
            needles = u * cdf[:size, -1:]  # each uniform scaled by its trial's total
            for trial in range(size):
                out[trial] = cdf[trial].searchsorted(needles[:, trial], side="right")
        out += 1
        self.size = 0


def uniforms(rngs, counts, ahead: int = PREFETCH_TRIALS) -> np.ndarray:
    """The next counts[r] uniforms of generator rngs[r], or of row r of a
    `UniformStreams` (whose refill reads about `ahead` calls' worth), flat
    in row order; an int count is every row's."""
    if isinstance(rngs, UniformStreams):
        return rngs.take(counts, ahead)
    if len(rngs) == 1:
        return rngs[0].random(counts)
    counts = np.broadcast_to(counts, len(rngs)).tolist()
    return np.concatenate([rng.random(count) for rng, count in zip(rngs, counts)])


def sample_site_multiset(p, count: int, rng: np.random.Generator) -> SiteSet:
    """Draw `count` sites with replacement from p, as a recorded block of
    one trial for one generator, and keep the distinct ones."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("p must be a nonempty 1-D vector")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count!r}")
    recorded, sites = RecordedRows(p.size, 1), np.empty((1, 1, count), dtype=np.intp)
    recorded.record(p[None, :], count)
    recorded.draw((rng,), sites)
    return SiteSet(tuple(np.unique(sites).tolist()))
