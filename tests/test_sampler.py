import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfl import ConfigError, InvalidDistributionError, draw_sites, sample_site_multiset
from olfl.sampler import PREFETCH_TRIALS, UniformStreams, draw_flat, search_rows

TOP = np.nextafter(1.0, 0.0)  # the largest uniform a generator can return


class _TopUniform:
    """Stub generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_build_rejects_bad_distributions():
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidDistributionError):
        draw_sites([0.5, -0.5, 1.0], 1, rng)
    with pytest.raises(InvalidDistributionError):
        draw_sites([0.0, 0.0], 1, rng)
    with pytest.raises(InvalidDistributionError):
        draw_sites([0.5, 0.6], 1, rng)
    with pytest.raises(InvalidDistributionError):
        draw_sites([], 1, rng)
    with pytest.raises(InvalidDistributionError):
        draw_sites([np.nan, 1.0], 1, rng)
    with pytest.raises(InvalidDistributionError):
        draw_sites([[0.5, 0.5]], 1, rng)
    with pytest.raises(ConfigError):
        draw_sites([0.5, 0.5], 0, rng)
    with pytest.raises(ConfigError):
        sample_site_multiset([1.0], -1, rng)


def test_point_mass_always_hits_its_site():
    rng = np.random.default_rng(5)
    assert np.all(draw_sites([1.0, 0.0, 0.0, 0.0], 10_000, rng) == 1)
    assert np.all(draw_sites([0.0, 0.0, 1.0, 0.0], 10_000, rng) == 3)
    assert draw_sites([1.0], 1, rng).tolist() == [1]


def test_zero_mass_sites_never_drawn():
    p = np.array([0.25, 0.0, 0.5, 0.0, 0.25])
    rng = np.random.default_rng(6)
    draws = draw_sites(p, 200_000, rng)
    assert not np.any((draws == 2) | (draws == 4))


def test_top_uniform_lands_on_the_last_positive_mass_site():
    # the largest uniform must stop at the last positive-mass site even when
    # the cumulative sum ends a few ulps away from 1 and zero-mass sites trail
    rng = np.random.default_rng(14)
    for n_pos, n_zero in ((1, 1), (4, 2), (7, 5), (100, 30), (1000, 1)):
        for _ in range(20):
            p = np.concatenate([rng.dirichlet(np.ones(n_pos)), np.zeros(n_zero)])
            assert draw_sites(p, 3, _TopUniform()).tolist() == [n_pos] * 3
    assert draw_sites([0.1, 0.2, 0.3, 0.4, 0.0, 0.0], 1, _TopUniform()).tolist() == [4]


def test_uniform_frequencies():
    rng = np.random.default_rng(7)
    draws = draw_sites([0.25] * 4, 1_000_000, rng)
    freq = np.bincount(draws - 1, minlength=4) / 1e6
    assert np.abs(freq - 0.25).max() <= 0.005


def test_biased_frequencies():
    rng = np.random.default_rng(8)
    draws = draw_sites([0.7, 0.3], 1_000_000, rng)
    freq = np.bincount(draws - 1, minlength=2) / 1e6
    assert abs(freq[0] - 0.7) <= 0.005
    assert abs(freq[1] - 0.3) <= 0.005


def test_four_site_frequencies_match_p():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    draws = draw_sites(p, 100_000, np.random.default_rng(11))
    freq = np.bincount(draws - 1, minlength=4) / draws.size
    assert np.abs(freq - p).max() <= 0.01


def test_identical_seed_gives_identical_draws():
    p = np.random.default_rng(9).dirichlet(np.ones(13))
    one = draw_sites(p, 5000, np.random.default_rng(43))
    two = draw_sites(p, 5000, np.random.default_rng(43))
    assert np.array_equal(one, two)
    single = [int(draw_sites(p, 1, np.random.default_rng(42))[0]) for _ in range(50)]
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


def test_row_draws_check_every_row_and_match_single_draws():
    p = np.array([[0.25, 0.25, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    flat = draw_flat(p, (4, 1, 6), [np.random.default_rng(seed) for seed in (1, 2, 3)])
    rows = np.split(flat, [4, 5])
    for row, count, seed, drawn in zip(p, (4, 1, 6), (1, 2, 3), rows):
        assert np.array_equal(drawn, draw_sites(row, count, np.random.default_rng(seed)))
    rngs = [np.random.default_rng(0)] * 3
    for bad, where in (([0.5, 0.6, 0.0], "total mass"), ([1.5, -0.5, 0.0], "negative"), ([np.nan, 1.0, 0.0], "finite")):
        q = p.copy()
        q[2] = bad
        with pytest.raises(InvalidDistributionError, match=f"{where}.*row 3"):
            draw_flat(q, (1, 1, 1), rngs)
    with pytest.raises(ConfigError):
        draw_flat(p, (1, 0, 1), rngs)


class _Given:
    """Stub generator handing out the given uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        out, self.values = self.values[:size], self.values[size:]
        return out


def _counts(data, rows, top):
    """One count for every row, as an int, or one count per row."""
    return data.draw(st.one_of(st.integers(1, top), st.lists(st.integers(1, top), min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flat_search_equals_the_per_row_search(data):
    rows, n = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 9))
    # integer weights give exact zeros inside a row and trailing zero mass
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    p = np.array([data.draw(weights) for _ in range(rows)], dtype=float)
    p /= p.sum(axis=1, keepdims=True)
    counts = _counts(data, rows, 6)
    per_row = np.broadcast_to(counts, rows).tolist()
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, TOP]))
    u = [np.array(data.draw(st.lists(uniform, min_size=c, max_size=c))) for c in per_row]
    cdf = np.cumsum(p, axis=1)
    expected = np.concatenate([cdf[r].searchsorted(u[r] * cdf[r, -1], side="right") + 1 for r in range(rows)])
    flat = search_rows(cdf, counts, np.concatenate(u))
    assert np.array_equal(flat, expected)
    assert np.array_equal(draw_flat(p, counts, [_Given(ur) for ur in u]), expected)
    assert (p[np.repeat(np.arange(rows), per_row), flat - 1] > 0).all()  # never a zero-mass site


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefetched_streams_equal_per_call_draws(data):
    rows = data.draw(st.integers(1, 4))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows, unique=True))
    streams = UniformStreams(seeds)
    generators = [np.random.default_rng(seed) for seed in seeds]
    # runs of calls at one draw pattern, long enough to cross refills, and
    # pattern changes as doubling restarts make them
    for _ in range(data.draw(st.integers(1, 4))):
        counts = _counts(data, rows, 8)
        if not isinstance(counts, int):
            counts = np.array(counts)
        for _ in range(data.draw(st.integers(1, 2 * PREFETCH_TRIALS))):
            expected = [g.random(c) for g, c in zip(generators, np.broadcast_to(counts, rows).tolist())]
            assert np.array_equal(streams.take(counts), np.concatenate(expected))
