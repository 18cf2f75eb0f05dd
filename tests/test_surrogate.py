"""Surrogate value/gradient against the direct formula and finite differences."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfl import ConfigError, ContractViolationError, CostPair, SurrogateInstance, value_and_gradient
from olfl.verify import (
    finite_difference_gradient,
    random_surrogate_instance,
    surrogate_value_direct,
)


def test_single_site():
    inst = SurrogateInstance.from_costs(CostPair([0.3], [0.7]), 5)
    value, grad = value_and_gradient(inst, np.array([1.0]))
    assert value == pytest.approx(5 * 0.3 + 0.7, abs=1e-15)
    assert grad.tolist() == [pytest.approx(1.5, abs=1e-15)]


def test_two_site_worked_example():
    inst = SurrogateInstance.from_costs(CostPair([0.1, 0.2], [0.9, 0.3]), 2)
    assert inst.order.tolist() == [1, 2]
    value, grad = value_and_gradient(inst, np.array([0.5, 0.5]))
    assert value == pytest.approx(0.75, abs=1e-15)
    assert np.abs(grad - np.array([0.8, 0.4])).max() <= 1e-15


def test_instance_validation():
    with pytest.raises(ConfigError):
        SurrogateInstance([0.1], [0.2], [1], 0)  # num_draws must be >= 1
    with pytest.raises(ConfigError, match="opening, connection, and order must share a positive length"):
        SurrogateInstance([0.1], [0.1, 0.2], [1, 2], 1)
    with pytest.raises(ConfigError):
        SurrogateInstance([0.1, 0.2], [0.9, 0.3], [1, 1], 2)  # not a permutation
    with pytest.raises(ConfigError):
        SurrogateInstance([0.1, 0.2], [0.3, 0.9], [1, 2], 2)  # order not descending


def test_public_constructor_validates_the_order_at_scale():
    # the learners sort and evaluate from their own arrays; the public
    # constructor still checks the permutation and the descending order
    rng = np.random.default_rng(13)
    connection = rng.uniform(0.0, 1.0, 500)
    opening = rng.uniform(0.0, 1.0, 500)
    order = np.argsort(-connection) + 1
    SurrogateInstance(opening, connection, order, 3)  # valid
    for bad in (
        np.where(order == order[7], order[8], order),  # a repeated index
        np.where(order == 1, 0, order),  # index 0
        np.where(order == 500, 501, order),  # index N + 1
    ):
        with pytest.raises(ConfigError, match="permutation"):
            SurrogateInstance(opening, connection, bad, 3)
    swapped = order.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    with pytest.raises(ConfigError, match="descending"):
        SurrogateInstance(opening, connection, swapped, 3)


def test_rejects_off_simplex_points():
    inst = SurrogateInstance.from_costs(CostPair([0.1, 0.2], [0.9, 0.3]), 2)
    with pytest.raises(ContractViolationError):
        value_and_gradient(inst, np.array([0.6, 0.6]))
    with pytest.raises(ContractViolationError):
        value_and_gradient(inst, np.array([1.2, -0.2]))
    with pytest.raises(ContractViolationError):
        value_and_gradient(inst, np.array([0.5, 0.25, 0.25]))
    # every comparison with NaN is false, so the check is written to fail on it
    # and a sum that meets inf - inf or overflows is refused with no numpy warning first
    nonfinite = ([np.nan, 1.0], [0.0, np.nan], [np.nan, np.nan], [np.inf, 0.0], [1.0, -np.inf])
    for bad in (*nonfinite, [np.inf, -np.inf], [1e308, 1e308]):
        with pytest.raises(ContractViolationError, match="probability simplex"):
            value_and_gradient(inst, np.array(bad))


def test_matches_direct_evaluation_and_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inst, w = random_surrogate_instance(rng, max_sites=12, max_draws=20)
        value, grad = value_and_gradient(inst, w)
        direct = surrogate_value_direct(inst.opening, inst.connection, inst.num_draws, w)
        assert value == pytest.approx(direct, rel=1e-12, abs=1e-12)
        fd = finite_difference_gradient(inst.opening, inst.connection, inst.num_draws, w)
        tol = np.maximum(1e-6, 1e-4 * np.abs(grad))
        assert np.all(np.abs(grad - fd) <= tol)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_all_zero_cost_vector_matches_direct_evaluation_and_finite_differences(data):
    n, ups = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cost_max = data.draw(st.sampled_from((0.5, 1.0, 5.0)))
    costs = [rng.uniform(0.0, cost_max, n), rng.uniform(0.0, cost_max, n)]
    costs[data.draw(st.integers(0, 1))][:] = 0.0  # C = 0 or D = 0
    w = rng.dirichlet(np.ones(n))
    value, grad = value_and_gradient(SurrogateInstance.from_costs(CostPair(*costs), ups), w)
    assert value == pytest.approx(surrogate_value_direct(*costs, ups, w), rel=1e-10, abs=1e-12)
    fd = finite_difference_gradient(*costs, ups, w)
    assert np.all(np.abs(grad - fd) <= np.maximum(1e-6, 1e-4 * np.abs(grad)))


def test_single_draw_telescopes_to_linear():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        c, d = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        w = rng.dirichlet(np.ones(n))
        value, grad = value_and_gradient(SurrogateInstance.from_costs(CostPair(c, d), 1), w)
        assert value == pytest.approx(float(w @ (c + d)), abs=1e-12)
        # gradient is shifted by min(d); a constant shift is invisible to EG
        assert np.abs(grad - (c + d - d.min())).max() <= 1e-12


def test_zero_weight_prefix_at_single_draw():
    # first sorted site carries zero mass: 0^0 must read as 1 in the gradient
    inst = SurrogateInstance.from_costs(CostPair([0.2, 0.1], [0.9, 0.3]), 1)
    value, grad = value_and_gradient(inst, np.array([0.0, 1.0]))
    assert value == pytest.approx(0.1 + 0.3, abs=1e-15)
    assert np.abs(grad - np.array([0.2 + 0.6, 0.1 + 0.0])).max() <= 1e-15


def test_uniform_connection_reduces_to_openings():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        c = rng.uniform(0.0, 1.0, n)
        d = np.full(n, 0.4)
        ups = int(rng.integers(1, 6))
        w = rng.dirichlet(np.ones(n))
        value, grad = value_and_gradient(SurrogateInstance.from_costs(CostPair(c, d), ups), w)
        assert value == pytest.approx(ups * float(c @ w) + 0.4, abs=1e-12)
        assert np.abs(grad - ups * c).max() <= 1e-12


def test_gradient_bound():
    rng = np.random.default_rng(14)
    for _ in range(100):
        inst, w = random_surrogate_instance(rng, max_sites=20, max_draws=30)
        _, grad = value_and_gradient(inst, w)
        assert float(grad.min()) >= 0.0
        assert float(grad.max()) <= inst.num_draws * 2.0 * (1.0 + 1e-9)


def test_convexity_spot_check():
    rng = np.random.default_rng(15)
    for _ in range(100):
        inst, w1 = random_surrogate_instance(rng, max_sites=8, max_draws=10)
        w2 = rng.dirichlet(np.ones(inst.n_sites))
        t = float(rng.uniform(0.05, 0.95))
        mid, _ = value_and_gradient(inst, t * w1 + (1 - t) * w2)
        v1, _ = value_and_gradient(inst, w1)
        v2, _ = value_and_gradient(inst, w2)
        assert mid <= t * v1 + (1 - t) * v2 + 1e-9


def test_tied_connection_costs():
    inst = SurrogateInstance.from_costs(CostPair([0.1, 0.2, 0.3], [0.5, 0.5, 0.5]), 3)
    value, grad = value_and_gradient(inst, np.array([0.2, 0.3, 0.5]))
    # all difference terms vanish
    assert value == pytest.approx(3 * (0.1 * 0.2 + 0.2 * 0.3 + 0.3 * 0.5) + 0.5, abs=1e-15)
    assert np.abs(grad - 3 * np.array([0.1, 0.2, 0.3])).max() <= 1e-15


def test_value_and_gradient_do_not_depend_on_tie_order():
    rng = np.random.default_rng(16)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        opening = rng.integers(0, 5, n) / 4.0
        connection = rng.integers(0, 5, n) / 4.0  # grid costs: many ties
        ups = int(rng.integers(1, 6))
        w = rng.dirichlet(np.ones(n))
        stable = np.argsort(-connection, kind="stable") + 1
        reversed_ties = np.lexsort((-np.arange(n), -connection)) + 1
        assert not np.array_equal(stable, reversed_ties) or len(set(connection)) == n
        v1, g1 = value_and_gradient(SurrogateInstance(opening, connection, stable, ups), w)
        v2, g2 = value_and_gradient(SurrogateInstance(opening, connection, reversed_ties, ups), w)
        v3, g3 = value_and_gradient(SurrogateInstance.from_costs(CostPair(opening, connection), ups), w)
        assert abs(v1 - v2) <= 1e-12 and abs(v1 - v3) <= 1e-12
        assert np.abs(g1 - g2).max() <= 1e-12 and np.abs(g1 - g3).max() <= 1e-12


def test_large_draw_count_stays_finite():
    inst = SurrogateInstance.from_costs(CostPair([0.5, 0.5], [1.0, 0.0]), 500)
    value, grad = value_and_gradient(inst, np.array([0.5, 0.5]))
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert value >= 500 * 0.5  # opening term alone
