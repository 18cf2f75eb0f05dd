import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfl import (
    ConfigError,
    ExactHedge,
    GameConfig,
    InvalidDistributionError,
    SiteSet,
    sample_site_multiset,
)
from olfl.sampler import COUNTED_DRAW_MAX, PREFETCH_TRIALS, RecordedRows, UniformStreams, uniforms

TOP = np.nextafter(1.0, 0.0)  # the largest uniform a generator can return


class _TopUniform:
    """Stub generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class _ZeroUniform:
    """Stub generator whose every uniform is 0.0, which `Generator.random`
    returns with probability 2^-53."""

    def random(self, size):
        return np.zeros(size)


def _draws(p, count: int, rng) -> np.ndarray:
    """`count` draws from the one distribution p for one generator, as
    1-based sites: a recorded block of one trial, as a one-row learner's
    play draws."""
    return _one_row(np.array([p], dtype=float), count, [rng])


def test_build_rejects_bad_distributions():
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidDistributionError):
        _draws([0.5, -0.5, 1.0], 1, rng)
    with pytest.raises(InvalidDistributionError):
        _draws([0.0, 0.0], 1, rng)
    with pytest.raises(InvalidDistributionError):
        _draws([0.5, 0.6], 1, rng)
    with pytest.raises(InvalidDistributionError):
        _draws([np.nan, 1.0], 1, rng)
    # cumulative sums that meet inf - inf or overflow: refused, with no
    # numpy warning first (the suite turns RuntimeWarning into an error)
    with pytest.raises(InvalidDistributionError, match="p must be finite"):
        _draws([np.inf, -np.inf], 1, rng)
    with pytest.raises(InvalidDistributionError, match="total mass inf not 1"):
        _draws([1e308, 1e308], 1, rng)
    # the arguments sample_site_multiset takes from its caller
    with pytest.raises(InvalidDistributionError):
        sample_site_multiset([], 1, rng)
    with pytest.raises(InvalidDistributionError):
        sample_site_multiset([[0.5, 0.5]], 1, rng)
    with pytest.raises(InvalidDistributionError, match="negative mass"):
        sample_site_multiset([0.5, -0.5, 1.0], 1, rng)
    with pytest.raises(ConfigError):
        sample_site_multiset([0.5, 0.5], 0, rng)
    with pytest.raises(ConfigError):
        sample_site_multiset([1.0], -1, rng)


def test_point_mass_always_hits_its_site():
    rng = np.random.default_rng(5)
    assert np.all(_draws([1.0, 0.0, 0.0, 0.0], 10_000, rng) == 1)
    assert np.all(_draws([0.0, 0.0, 1.0, 0.0], 10_000, rng) == 3)
    assert _draws([1.0], 1, rng).tolist() == [1]


def test_zero_mass_sites_never_drawn():
    p = np.array([0.25, 0.0, 0.5, 0.0, 0.25])
    rng = np.random.default_rng(6)
    draws = _draws(p, 200_000, rng)
    assert not np.any((draws == 2) | (draws == 4))


def test_top_uniform_lands_on_the_last_positive_mass_site():
    # the largest uniform must stop at the last positive-mass site even when
    # the cumulative sum ends a few ulps away from 1 and zero-mass sites trail
    rng = np.random.default_rng(14)
    for n_pos, n_zero in ((1, 1), (4, 2), (7, 5), (100, 30), (1000, 1)):
        for _ in range(20):
            p = np.concatenate([rng.dirichlet(np.ones(n_pos)), np.zeros(n_zero)])
            assert _draws(p, 3, _TopUniform()).tolist() == [n_pos] * 3
    assert _draws([0.1, 0.2, 0.3, 0.4, 0.0, 0.0], 1, _TopUniform()).tolist() == [4]


def test_uniform_frequencies():
    rng = np.random.default_rng(7)
    draws = _draws([0.25] * 4, 1_000_000, rng)
    freq = np.bincount(draws - 1, minlength=4) / 1e6
    assert np.abs(freq - 0.25).max() <= 0.005


def test_biased_frequencies():
    rng = np.random.default_rng(8)
    draws = _draws([0.7, 0.3], 1_000_000, rng)
    freq = np.bincount(draws - 1, minlength=2) / 1e6
    assert abs(freq[0] - 0.7) <= 0.005
    assert abs(freq[1] - 0.3) <= 0.005


def test_four_site_frequencies_match_p():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    draws = _draws(p, 100_000, np.random.default_rng(11))
    freq = np.bincount(draws - 1, minlength=4) / draws.size
    assert np.abs(freq - p).max() <= 0.01


def test_identical_seed_gives_identical_draws():
    p = np.random.default_rng(9).dirichlet(np.ones(13))
    one = _draws(p, 5000, np.random.default_rng(43))
    two = _draws(p, 5000, np.random.default_rng(43))
    assert np.array_equal(one, two)
    single = [int(_draws(p, 1, np.random.default_rng(42))[0]) for _ in range(50)]
    assert len(set(single)) == 1


def test_multiset_point_mass_dedupes():
    rng = np.random.default_rng(12)
    assert sample_site_multiset([1.0, 0.0], 5, rng).members == (1,)
    assert sample_site_multiset([1.0], 7, rng).members == (1,)


def test_multiset_pair_probability():
    # two draws from a fair coin give both sites with probability 1/2
    rng = np.random.default_rng(13)
    p = np.array([0.5, 0.5])
    hits = sum(1 for _ in range(100_000) if len(sample_site_multiset(p, 2, rng)) == 2)
    assert abs(hits / 1e5 - 0.5) <= 0.01


def _row_draws(p, counts, rngs) -> np.ndarray:
    """counts[r] draws from row r of the (rows, n) distributions p for
    generator rngs[r], an int count being every row's, flat in row order as
    1-based sites: the rows recorded as one trial and drawn once, as a
    learner batch of several rows draws them, each row's draws padded to
    the widest count with repeats of its last, which are left out here.
    One row draws as a block of one trial, at its one count."""
    recorded = RecordedRows(p.shape[1], len(p))
    assert recorded.record(p, counts if len(p) > 1 else int(np.broadcast_to(counts, 1)[0]))
    return recorded.draw(rngs)[_kept(counts, len(p))]


def _kept(counts, rows) -> np.ndarray:
    """The (rows, most counts) mask of each row's first counts[r] entries."""
    counts = np.broadcast_to(counts, rows)
    return np.arange(counts.max()) < counts[:, None]


def test_row_draws_check_every_row_and_match_single_draws():
    p = np.array([[0.25, 0.25, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    flat = _row_draws(p, (4, 1, 6), [np.random.default_rng(seed) for seed in (1, 2, 3)])
    rows = np.split(flat, [4, 5])
    for row, count, seed, drawn in zip(p, (4, 1, 6), (1, 2, 3), rows):
        assert np.array_equal(drawn, _draws(row, count, np.random.default_rng(seed)))
    rngs = [np.random.default_rng(0)] * 3
    for bad, where in (([0.5, 0.6, 0.0], "total mass"), ([1.5, -0.5, 0.0], "negative"), ([np.nan, 1.0, 0.0], "finite")):
        q = p.copy()
        q[2] = bad
        with pytest.raises(InvalidDistributionError, match=f"{where}.*row 3"):
            _row_draws(q, (1, 1, 1), rngs)
    with pytest.raises(ConfigError, match="count must be >= 1"):
        RecordedRows(3, 3).record(p, (1, 0, 1))


class _Given:
    """Stub generator handing out the given uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        size = int(np.prod(size))  # an int, or a shape
        out, self.values = self.values[:size], self.values[size:]
        return out


def _counts(data, rows, top):
    """One count for every row, as an int, or one count per row."""
    return data.draw(st.one_of(st.integers(1, top), st.lists(st.integers(1, top), min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flat_search_equals_the_per_row_search(data):
    # several rows of at most COUNTED_DRAW_MAX sites, each with at least as
    # many uniforms as sites, are counted; otherwise the flattened keys are
    # searched
    rows = data.draw(st.integers(1, 6))
    n = data.draw(st.one_of(st.integers(1, 9), st.sampled_from([COUNTED_DRAW_MAX, COUNTED_DRAW_MAX + 1])))
    # integer weights give exact zeros inside a row and trailing zero mass
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    p = np.array([data.draw(weights) for _ in range(rows)], dtype=float)
    p /= p.sum(axis=1, keepdims=True)
    counts = _counts(data, rows, data.draw(st.sampled_from([6, COUNTED_DRAW_MAX + 2])))
    per_row = np.broadcast_to(counts, rows).tolist()
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, TOP]))
    u = [np.array(data.draw(st.lists(uniform, min_size=c, max_size=c))) for c in per_row]
    cdf = np.cumsum(p, axis=1)
    expected = np.concatenate([cdf[r].searchsorted(u[r] * cdf[r, -1], side="right") + 1 for r in range(rows)])
    recorded = RecordedRows(n, rows)
    recorded.cdf[...] = cdf
    flat = recorded.search(uniforms([_Given(ur) for ur in u], counts))[_kept(counts, rows)]
    assert np.array_equal(flat, expected)
    assert np.array_equal(_row_draws(p, counts, [_Given(ur) for ur in u]), expected)
    assert (p[np.repeat(np.arange(rows), per_row), flat - 1] > 0).all()  # never a zero-mass site


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefetched_streams_equal_per_call_draws(data):
    rows = data.draw(st.integers(1, 4))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows, unique=True))
    streams = UniformStreams(seeds)
    plain, generators = ([np.random.default_rng(seed) for seed in seeds] for _ in range(2))
    # runs of calls at one draw pattern, long enough to cross refills, and
    # pattern changes as doubling restarts make them
    for _ in range(data.draw(st.integers(1, 4))):
        counts = _counts(data, rows, 8)
        if not isinstance(counts, int):
            counts = np.array(counts)
        per_row = np.broadcast_to(counts, rows).tolist()
        for _ in range(data.draw(st.integers(1, 2 * PREFETCH_TRIALS))):
            expected = [g.random(c) for g, c in zip(generators, per_row)]
            # row r: generator r's own counts[r] uniforms, then repeats of the last of them
            for u in (streams.take(counts), uniforms(plain, counts)):
                assert u.shape == (rows, max(per_row))
                for row, own, count in zip(u, expected, per_row):
                    assert np.array_equal(row[:count], own)
                    assert (row[count:] == own[-1]).all()


def _one_row(p, count, rngs):
    """One trial's draws from the one row p for every generator in rngs,
    as a recorded block of one trial."""
    recorded = RecordedRows(p.shape[1], 1)
    assert recorded.record(p, count)
    return recorded.draw(rngs).ravel()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_row_serves_every_generator_as_a_copy_of_its_own(data):
    rows, n = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 9))
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    p = np.array([data.draw(weights)], dtype=float)
    p /= p.sum()
    count = data.draw(st.integers(1, 6))  # one row draws the same count for every generator
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows, unique=True))
    generators = [np.random.default_rng(seed) for seed in seeds]
    copies = np.repeat(p, rows, axis=0)
    expected = _row_draws(copies, count, [np.random.default_rng(seed) for seed in seeds])
    assert np.array_equal(_one_row(p, count, generators), expected)
    assert np.array_equal(_one_row(p, count, UniformStreams(seeds)), expected)
    # each generator advanced by exactly its own draws
    for generator, seed in zip(generators, seeds):
        twin = np.random.default_rng(seed)
        twin.random(count)
        assert generator.bit_generator.state == twin.bit_generator.state
    # the copies as rows of their own at unequal counts: row r's first
    # counts[r] draws are the one row's for generator r, the rest repeat the
    # last of them
    counts = data.draw(st.lists(st.integers(1, 6), min_size=rows, max_size=rows, unique=True))
    for make in (lambda: [np.random.default_rng(seed) for seed in seeds], lambda: UniformStreams(seeds)):
        recorded = RecordedRows(n, rows)
        assert recorded.record(copies, np.array(counts))
        sites = recorded.draw(make())
        assert sites.shape == (rows, max(counts))
        for row, seed, count in zip(sites, seeds, counts):
            assert np.array_equal(row[:count], _one_row(p, count, [np.random.default_rng(seed)]))
            assert (row[count:] == row[count - 1]).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_counted_block_draws_are_the_per_trial_searches(data):
    # a block of several trials on rows of at most COUNTED_DRAW_MAX sites,
    # with at least as many uniforms a trial as sites, counts each uniform's
    # cumulative sums at or below it; otherwise the block's keys are
    # searched. Integer weights give
    # zero-mass sites, so equal neighbouring sums, inside a row and at its
    # ends; a uniform of 0 or of the largest double below 1 lands on the
    # first or the last positive-mass site
    n = data.draw(st.sampled_from([COUNTED_DRAW_MAX, COUNTED_DRAW_MAX + 1]))
    generators, count = data.draw(st.sampled_from([1, 20])), data.draw(st.integers(1, 4))
    trials = data.draw(st.integers(1, 6))
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    p = np.array([data.draw(weights) for _ in range(trials)], dtype=float)
    p /= p.sum(axis=1, keepdims=True)
    stub = data.draw(st.sampled_from([None, _ZeroUniform, _TopUniform]))
    if stub is None:
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=generators, max_size=generators))
        rngs, twins = ([np.random.default_rng(seed) for seed in seeds] for _ in range(2))
    else:
        rngs = twins = [stub()] * generators
    u = np.array([twin.random(trials * count) for twin in twins]).reshape(generators, trials, count)
    expected = np.empty((trials, generators, count), dtype=np.intp)
    for t in range(trials):
        cdf = np.add.accumulate(p[t])
        expected[t] = cdf.searchsorted(u[:, t] * cdf[-1], side="right") + 1

    recorded = RecordedRows(n)
    for t in range(trials):
        assert recorded.record(p[[t]], count, t + 1)
    sites = recorded.draw(rngs).reshape(trials, generators, count)
    assert np.array_equal(sites, expected)
    assert (p[np.arange(trials)[:, None, None], sites - 1] > 0).all()  # never a zero-mass site
    if stub is not None:  # the first or the last positive-mass site of each trial's row
        positive = [np.flatnonzero(row) for row in p]
        edge = [row[0 if stub is _ZeroUniform else -1] + 1 for row in positive]
        assert np.array_equal(sites, np.broadcast_to(np.array(edge)[:, None, None], sites.shape))


def _subset_masks(actions):
    """Each action's subset bitmask, bit j being site j + 1."""
    return [sum(1 << (i - 1) for i in action.members) for action in actions]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hedge_exact_draws_are_the_one_row_draws(data):
    n, rows = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    subsets = (1 << n) - 1
    # integer weights give zero-mass subsets inside a row and trailing ones
    weights = st.lists(st.integers(0, 3), min_size=subsets, max_size=subsets).filter(any)
    w = np.array([data.draw(weights) for _ in range(rows)], dtype=float)
    w /= w.sum(axis=1, keepdims=True)
    generators = data.draw(st.integers(1, 4)) if rows == 1 else rows
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=generators, max_size=generators, unique=True))
    row_of = [g if rows > 1 else 0 for g in range(generators)]

    hedge = ExactHedge(GameConfig(n, 10, 1.0, 1.0), rows)
    hedge.weights[...] = w
    masks = _subset_masks(hedge.play([np.random.default_rng(seed) for seed in seeds]))
    expected = [_one_row(w[[r]], 1, [np.random.default_rng(seed)])[0] for r, seed in zip(row_of, seeds)]
    assert masks == expected
    assert all(w[r, mask - 1] > 0 for r, mask in zip(row_of, masks))  # never a zero-mass subset

    top = ExactHedge(GameConfig(n, 10, 1.0, 1.0), rows)
    top.weights[...] = w
    last_positive = [int(np.flatnonzero(w[r])[-1]) + 1 for r in row_of]
    assert _subset_masks(top.play([_TopUniform()] * generators)) == last_positive

    zero = ExactHedge(GameConfig(n, 10, 1.0, 1.0), rows)
    zero.weights[...] = w
    first_positive = [int(np.flatnonzero(w[r])[0]) + 1 for r in row_of]
    assert _subset_masks(zero.play([_ZeroUniform()] * generators)) == first_positive


def test_zero_uniform_lands_on_the_first_positive_mass_site():
    # a uniform of exactly 0.0 must pass over leading zero-mass sites, whose
    # cumulative sums are 0 too: the search takes the first sum above it
    for lead in (1, 2, 5):
        p = np.concatenate([np.zeros(lead), [0.25, 0.0, 0.75]])
        assert _draws(p, 3, _ZeroUniform()).tolist() == [lead + 1] * 3
        assert _one_row(p[None], 2, [_ZeroUniform()] * 3).tolist() == [lead + 1] * 6
    p = np.array([[0.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.0, 0.0]])
    assert _row_draws(p, (2, 3), [_ZeroUniform()] * 2).tolist() == [3, 3, 2, 2, 2]
    hedge = ExactHedge(GameConfig(3, 10, 1.0, 1.0), 2)
    hedge.weights[...] = 0.0
    hedge.weights[0, [2, 5]] = 0.5  # subsets {1, 2} and {2, 3}
    hedge.weights[1, 6] = 1.0  # {1, 2, 3}
    assert hedge.play([_ZeroUniform()] * 2) == [SiteSet((1, 2)), SiteSet((1, 2, 3))]


def test_sampler_check_refuses_totals_that_disagree(monkeypatch):
    # chi-square compares frequencies only when the observed and expected
    # totals agree; a sample one draw short must fail the check, not pass it
    import olfl.verify as verify_mod

    class OneShort(RecordedRows):
        def record(self, p, count, trial=None):
            return super().record(p, count - 1, trial)

    monkeypatch.setattr(verify_mod, "RecordedRows", OneShort)
    result = verify_mod.check_sampler_distribution()
    assert not result.passed
    assert "expected total" in result.detail
