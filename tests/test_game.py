import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfl import (
    ActionRows,
    ConfigError,
    CostPair,
    CostRows,
    GameConfig,
    InvalidActionError,
    SiteSet,
    action_losses,
    facility_loss,
    sort_by_connection_desc,
)
from olfl.game import PACKED_SORT_MIN, connection_order


def test_game_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        GameConfig(0, 10, 1.0, 1.0)
    with pytest.raises(ConfigError):
        GameConfig(4, 0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        GameConfig(4, 10, -0.5, 1.0)
    with pytest.raises(ConfigError):
        GameConfig(4, 10, 1.0, float("inf"))
    # both bounds zero would make every loss zero
    with pytest.raises(ConfigError):
        GameConfig(4, 10, 0.0, 0.0)
    GameConfig(4, 10, 0.0, 1.0)  # one zero bound is fine


def test_cost_pair_validation():
    cp = CostPair([0.5, 0.2], [0.3, 0.9])
    assert cp.n_sites == 2
    assert cp.opening.dtype == float
    with pytest.raises(ConfigError):
        CostPair([0.5], [0.3, 0.9])
    with pytest.raises(ConfigError):
        CostPair([], [])
    with pytest.raises(ConfigError):
        CostPair([0.5, -0.1], [0.3, 0.9])
    with pytest.raises(ConfigError):
        CostPair([0.5, float("nan")], [0.3, 0.9])


def test_cost_rows_validation():
    rows = CostRows([[0.5, 0.2], [0.1, 0.0]], [[0.3, 0.9], [0.0, 1.0]])
    assert len(rows) == 2 and rows.n_sites == 2 and rows.opening.dtype == float
    for opening, connection in (
        ([0.5, 0.2], [0.3, 0.9]),  # 1-D
        ([[0.5]], [[0.3, 0.9]]),  # shapes differ
        (np.empty((0, 2)), np.empty((0, 2))),  # no rows
        ([[0.5, -0.1]], [[0.3, 0.9]]),
        ([[0.5, 0.1]], [[float("inf"), 0.9]]),
        ([[0.5, float("nan")]], [[0.3, 0.9]]),
    ):
        with pytest.raises(ConfigError):
            CostRows(opening, connection)


def test_cost_rows_read_as_a_sequence_of_cost_pairs():
    rows = CostRows([[0.5, 0.2], [0.1, 0.0], [0.7, 0.4]], [[0.3, 0.9], [0.0, 1.0], [0.6, 0.8]])
    for index, row in ((1, 1), (-1, 2)):
        pair = rows[index]
        assert isinstance(pair, CostPair) and pair.n_sites == 2
        # views of the checked rows, not copies
        assert np.shares_memory(pair.opening, rows.opening) and np.shares_memory(pair.connection, rows.connection)
        assert pair.opening.tolist() == rows.opening[row].tolist()
        assert pair.connection.tolist() == rows.connection[row].tolist()
    assert [pair.connection.tolist() for pair in rows] == rows.connection.tolist()
    tail = rows[1:]
    assert isinstance(tail, CostRows) and np.array_equal(tail.opening, rows.opening[1:])
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(TypeError):
        rows[[0, 1]]  # one row or a slice, never a fancy index
    with pytest.raises(ConfigError):
        rows[2:2]  # a CostRows is never empty


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_action_losses_of_site_sets_equal_facility_loss_bit_for_bit(data):
    rows, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # magnitudes spread over six decades, so any change of summation order shows
    scale = lambda: 10.0 ** rng.integers(-3, 4, (rows, n))  # noqa: E731
    costs = CostRows(rng.uniform(0, 1, (rows, n)) * scale(), rng.uniform(0, 1, (rows, n)) * scale())
    sizes = data.draw(st.lists(st.integers(1, n), min_size=rows, max_size=rows))
    actions = [SiteSet.of(rng.choice(n, size=m, replace=False) + 1) for m in sizes]
    expected = [facility_loss(costs[r], action) for r, action in enumerate(actions)]
    assert _bits(action_losses(costs, ActionRows.of(actions))) == _bits(expected)
    repeated = CostRows(costs.opening[[0] * rows], costs.connection[[0] * rows])  # every action on row 0
    expected = [facility_loss(costs[0], a) for a in actions]
    assert _bits(action_losses(repeated, ActionRows.of(actions))) == _bits(expected)


def test_action_losses_reject_what_facility_loss_rejects():
    costs = CostRows(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(InvalidActionError):
        action_losses(costs, ActionRows.of([SiteSet((1,)), SiteSet((2, 4))]))
    with pytest.raises(InvalidActionError):
        action_losses(costs[:1], ActionRows.of([SiteSet((4,))]))
    with pytest.raises(ConfigError):
        action_losses(costs, ActionRows.of([SiteSet((1,))]))  # two cost rows, one action
    with pytest.raises(ConfigError, match=r"1 actions need one trial each, in 0\.\.1"):
        action_losses(costs, ActionRows.of([SiteSet((1,))]), np.array([2]))  # a trial past the costs
    with pytest.raises(InvalidActionError, match="site set must be nonempty"):
        action_losses(costs, ActionRows(np.array([0, 1, 1]), np.array([2])))  # the second action is empty


def test_site_set_basics():
    s = SiteSet.of([3, 1, 3, 2], 5)
    assert s.members == (1, 2, 3)
    assert len(s) == 3
    assert 2 in s and 4 not in s
    assert list(s) == [1, 2, 3]
    assert s.index_array().tolist() == [0, 1, 2]
    with pytest.raises(InvalidActionError):
        SiteSet(())
    with pytest.raises(InvalidActionError):
        SiteSet((2, 1))  # must be sorted strictly increasing
    assert ActionRows.of([s]) == [s] and ActionRows.of([s]) != 5  # what has no length is unequal
    with pytest.raises(InvalidActionError):
        SiteSet.of([0, 1], 5)
    with pytest.raises(InvalidActionError):
        SiteSet.of([6], 5)


def test_facility_loss_examples():
    cp = CostPair([0.5, 0.2], [0.3, 0.9])
    assert facility_loss(cp, SiteSet((1, 2))) == pytest.approx(1.0, abs=1e-15)
    assert facility_loss(cp, SiteSet((2,))) == pytest.approx(1.1, abs=1e-15)
    zero_open = CostPair(np.zeros(4), [0.4, 0.1, 0.9, 0.3])
    assert facility_loss(zero_open, SiteSet((1, 2, 3, 4))) == pytest.approx(0.1)


def test_facility_loss_rejects_out_of_range():
    cp = CostPair([0.5, 0.2], [0.3, 0.9])
    with pytest.raises(InvalidActionError):
        facility_loss(cp, SiteSet((3,)))


def test_facility_loss_bounds_and_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        c = rng.uniform(0.0, 1.0, n)
        d = rng.uniform(0.0, 1.0, n)
        members = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) + 1))
        x = SiteSet(tuple(int(i) for i in members))
        loss = facility_loss(CostPair(c, d), x)
        assert loss <= len(x) * 1.0 + 1.0 + 1e-12
        # lowering any single connection cost never raises the loss
        j = int(rng.integers(n))
        d2 = d.copy()
        d2[j] *= rng.uniform(0.0, 1.0)
        assert facility_loss(CostPair(c, d2), x) <= loss + 1e-12


def test_sort_examples():
    assert sort_by_connection_desc([0.3, 0.9]).tolist() == [2, 1]
    assert sort_by_connection_desc([0.5, 0.5, 0.5]).tolist() == [1, 2, 3]
    assert sort_by_connection_desc([0.1, 0.4, 0.2, 0.9]).tolist() == [4, 2, 3, 1]
    for refused in ([], [[0.3, 0.9]]):
        with pytest.raises(ConfigError, match="connection vector must be 1-D and nonempty"):
            sort_by_connection_desc(refused)


def test_connection_order_is_each_rows_descending_argsort_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(60):
        rows, n = int(rng.integers(1, 6)), int(rng.integers(1, 300))
        d = rng.choice(rng.uniform(0.0, 1.0, max(1, n // 4)), size=(rows, n))  # duplicate-heavy
        order = connection_order(d)
        for r in range(rows):
            expected = np.argsort(-d[r])
            assert order[r].dtype == expected.dtype
            assert np.array_equal(order[r], expected)
        assert np.array_equal(connection_order(d[0]), order[0])  # one 1-D row sorts as a row of many


def _packed_cases(n: int, rng) -> dict:
    """Rows of n >= PACKED_SORT_MIN sites that the packed sort must order
    as argsort does, or hand to argsort."""
    tie_free = rng.uniform(0.0, 1.0, (3, n))
    low_bit_pair = tie_free[0].copy()
    low_bit_pair[[40, n - 1]] = 0.5, np.nextafter(0.5, 1.0)  # the larger cost at the higher index
    signed_zeros = tie_free[0].copy()
    signed_zeros[[41, 42]] = -0.0, 0.0
    lone_negative_zero = tie_free[0].copy()
    lone_negative_zero[41] = -0.0
    one_row_ties = tie_free.copy()
    one_row_ties[1, 5] = one_row_ties[1, n - 2]
    killer_like = np.zeros((2, n))
    killer_like[0, rng.choice(n, 16, replace=False)] = 1.0  # the killer's rows: ones among zeros
    not_costs = rng.uniform(0.0, 1.0, (4, n))
    not_costs[:, 50] = -0.5, np.inf, np.nan, -np.inf
    return {
        "tie-free rows": tie_free,
        "duplicate-heavy rows": rng.choice(rng.uniform(0.0, 1.0, n // 4), size=(3, n)),
        "a pair apart in the low bits": low_bit_pair,
        "-0.0 beside +0.0": signed_zeros,
        "a lone -0.0": lone_negative_zero,
        "costs near the largest double, subnormal keys": np.finfo(float).max * rng.uniform(0.5, 1.0, (2, n)),
        "a tie in one row of three": one_row_ties,
        "killer-like rows, one all zeros": killer_like,
        "a 1-D row": tie_free[2],
        "negative, infinite and NaN costs": not_costs,
    }


@pytest.mark.parametrize("n", [PACKED_SORT_MIN, PACKED_SORT_MIN + 1, 4099])
def test_packed_connection_order_is_each_rows_descending_argsort_bit_for_bit(n):
    for case, d in _packed_cases(n, np.random.default_rng(n)).items():
        order = connection_order(d)
        assert order.shape == d.shape, case
        for row, row_order in zip(np.atleast_2d(d), np.atleast_2d(order)):
            expected = np.argsort(-row)
            assert row_order.dtype == expected.dtype, case
            assert np.array_equal(row_order, expected), case


def test_sort_check_covers_the_learners_order(monkeypatch):
    # `olfl verify`'s sort check calls the one sort every learner and
    # comparator uses; an ascending order must fail it
    import olfl.verify as verify_mod

    assert verify_mod.check_sort_round_trip().passed
    monkeypatch.setattr(verify_mod, "connection_order", lambda d: d.argsort(axis=-1))
    result = verify_mod.check_sort_round_trip()
    assert not result.passed
    assert result.detail == "not descending"


def test_sort_is_a_descending_permutation():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        # duplicate-heavy vectors exercise the tie rule
        d = rng.choice(rng.uniform(0.0, 1.0, max(1, n // 2)), size=n)
        v = sort_by_connection_desc(d)
        assert sorted(v.tolist()) == list(range(1, n + 1))
        sorted_d = d[v - 1]
        assert np.all(np.diff(sorted_d) <= 0)
        assert np.array_equal(v, sort_by_connection_desc(d))
