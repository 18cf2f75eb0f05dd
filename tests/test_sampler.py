import numpy as np
import pytest

from olfl import ConfigError, InvalidDistributionError, draw_sites, sample_site_multiset


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
