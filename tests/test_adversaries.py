import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfl import (
    ActionRows,
    ConfigError,
    CostRows,
    GameConfig,
    KillerSource,
    SiteSet,
    TraceFormatError,
    facility_loss,
    generate_scenario,
    load_trace,
    save_trace,
)
from olfl.adversaries import EMIT_LINES, killer_rows


def test_killer_rows_examples():
    costs = killer_rows(4, ActionRows.of([SiteSet((1,)), SiteSet((1, 2, 3)), ()]))
    assert np.allclose(costs.opening, 0.5)
    assert costs.connection.tolist() == [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],  # |X| = 3 > sqrt(4)
        [0.0, 0.0, 0.0, 0.0],  # nothing known yet
    ]


def test_killer_boundary_cardinality():
    # |X| = sqrt(N) exactly still counts as small
    costs = killer_rows(4, ActionRows.of([SiteSet((1, 2))]))
    assert costs.connection.tolist() == [[1.0, 1.0, 0.0, 0.0]]


def test_killer_singleton_always_pays_at_least_one():
    singletons = ActionRows.of([SiteSet((i,)) for i in range(1, 17)])
    for costs, x in zip(killer_rows(16, singletons), singletons):
        assert facility_loss(costs, x) >= 1.0


def test_killer_source_current_vs_previous():
    current = KillerSource(4, use_current_action=True)
    costs = current.costs_for(1, ActionRows.of([SiteSet((2,))]))
    assert isinstance(costs, CostRows)
    assert costs.connection.tolist() == [[0.0, 1.0, 0.0, 0.0]]

    delayed = KillerSource(4, use_current_action=False)
    first = delayed.costs_for(1, ActionRows.of([SiteSet((2,))]))
    assert np.all(first.connection == 0.0)  # nothing realized yet
    second = delayed.costs_for(2, ActionRows.of([SiteSet((3,))]))
    assert second.connection.tolist() == [[0.0, 1.0, 0.0, 0.0]]  # trial-1 action


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_killer_source_rows_equal_one_row_calls(data):
    n, rows = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 5))
    use_current = data.draw(st.booleans())
    batch = KillerSource(n, use_current)
    singles = [KillerSource(n, use_current) for _ in range(rows)]
    previous = [None] * rows
    action = st.lists(st.integers(1, n), min_size=1, max_size=n).map(SiteSet.of)
    played, priced = [], []
    for t in range(1, data.draw(st.integers(1, 4)) + 1):
        actions = [data.draw(action) for _ in range(rows)]
        costs = batch.costs_for(t, ActionRows.of(actions))
        played.append(actions)
        priced.append(costs)
        assert isinstance(costs, CostRows) and len(costs) == rows
        for r, single in enumerate(singles):
            one = single.costs_for(t, ActionRows.of([actions[r]]))[0]
            known = actions[r] if use_current else previous[r]
            expected = killer_rows(n, ActionRows.of([known or ()]))[0]
            for pair in (one, expected):
                assert np.array_equal(costs.opening[r], pair.opening)
                assert np.array_equal(costs.connection[r], pair.connection)
        previous = actions
    histories = []
    for r in range(rows):  # each row's history, rebuilt from its actions alone
        realized = batch.realized(ActionRows.of([actions[r] for actions in played]))
        histories.append(realized)
        assert np.array_equal(realized.opening, np.array([costs.opening[r] for costs in priced]))
        assert np.array_equal(realized.connection, np.array([costs.connection[r] for costs in priced]))
    # the source builds its CostRows unchecked from its own constants: each
    # is what the checked constructor makes of copies of its arrays, and
    # its opening block, which trials share, cannot be written
    for costs in priced + histories:
        checked = CostRows(costs.opening.copy(), costs.connection.copy())
        for mine, theirs in ((costs.opening, checked.opening), (costs.connection, checked.connection)):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert not costs.opening.flags.writeable
    assert "opening" not in inspect.signature(killer_rows).parameters  # the source keeps its block itself


def test_every_scenario_is_a_source_of_trial_costs_and_histories():
    played = ActionRows.of([SiteSet((2,)), SiteSet((3,))])  # trial 0's action of two generators
    current = KillerSource(4, use_current_action=True)
    costs = current(0, played)  # moving second, the source prices the first generator's action alone
    assert costs.connection.tolist() == [[0.0, 1.0, 0.0, 0.0]]
    delayed = KillerSource(4, use_current_action=False)
    assert np.all(delayed(0, played).connection == 0.0)  # trial 0 knows no action yet
    assert delayed(1, played).connection.tolist() == [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    scenario = generate_scenario("iid", GameConfig(4, 3, 1.0, 1.0), seed=1)
    row = scenario(2, played)  # whatever the actions
    assert np.array_equal(row.opening, scenario.opening[2]) and np.array_equal(row.connection, scenario.connection[2])
    assert scenario.realized(played) is scenario


def test_killer_source_rejects_what_killer_rows_rejects():
    with pytest.raises(ConfigError):
        killer_rows(4, ActionRows.of([SiteSet((5,))]))
    with pytest.raises(ConfigError):
        KillerSource(4, use_current_action=True).costs_for(1, ActionRows.of([SiteSet((1,)), SiteSet((5,))]))
    delayed = KillerSource(4, use_current_action=False)
    delayed.costs_for(1, ActionRows.of([SiteSet((1,)), SiteSet((5,))]))  # nothing known yet
    with pytest.raises(ConfigError):
        delayed.costs_for(2, ActionRows.of([SiteSet((1,)), SiteSet((2,))]))
    with pytest.raises(ConfigError):
        delayed.costs_for(3, ActionRows.of([SiteSet((1,))]))  # a two-row source given one action


def test_generate_scenario_deterministic():
    cfg = GameConfig(5, 20, 1.0, 2.0)
    for kind in ("iid", "drift"):
        a = generate_scenario(kind, cfg, seed=99)
        b = generate_scenario(kind, cfg, seed=99)
        assert len(a) == 20
        for x, y in zip(a, b):
            assert np.array_equal(x.opening, y.opening)
            assert np.array_equal(x.connection, y.connection)


@pytest.mark.parametrize("c_max, d_max", [(1.0, 1.0), (0.3, 0.7), (0.0, 1.0), (1.0, 2.0), (5.0, 1e-3)])
def test_iid_rows_are_the_per_trial_draws(c_max, d_max):
    costs = generate_scenario("iid", GameConfig(5, 30, c_max, d_max), seed=8)
    assert isinstance(costs, CostRows) and len(costs) == 30
    rng = np.random.default_rng(8)
    for cp in costs:  # each trial draws its c, then its d
        assert cp.opening.tobytes() == rng.uniform(0.0, c_max, 5).tobytes()
        assert cp.connection.tobytes() == rng.uniform(0.0, d_max, 5).tobytes()


def test_generate_scenario_respects_bounds():
    cfg = GameConfig(6, 50, 0.3, 0.7)
    for kind in ("iid", "drift"):
        for cp in generate_scenario(kind, cfg, seed=1):
            assert cp.opening.max() <= 0.3 and cp.opening.min() >= 0.0
            assert cp.connection.max() <= 0.7 and cp.connection.min() >= 0.0


def test_iid_with_zero_opening_bound():
    cfg = GameConfig(4, 10, 0.0, 1.0)
    assert all(np.all(cp.opening == 0.0) for cp in generate_scenario("iid", cfg, seed=2))


def test_drift_step_zero_freezes_connections():
    cfg = GameConfig(4, 15, 1.0, 1.0)
    costs = generate_scenario("drift", cfg, seed=3, drift_step=0.0)
    first = costs[0]
    for cp in costs[1:]:
        assert np.array_equal(cp.connection, first.connection)
        assert np.array_equal(cp.opening, first.opening)


def test_generate_scenario_rejections():
    cfg = GameConfig(4, 10, 1.0, 1.0)
    with pytest.raises(ConfigError):
        generate_scenario("killer", cfg, seed=0)
    with pytest.raises(ConfigError):
        generate_scenario("lunar", cfg, seed=0)
    for step in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match=f"drift step must be finite and >= 0, got {step}"):
            generate_scenario("drift", cfg, seed=0, drift_step=step)


def test_trace_round_trip(tmp_path):
    cfg = GameConfig(3, 12, 1.0, 1.0)
    costs = generate_scenario("iid", cfg, seed=4)
    path = str(tmp_path / "trace.csv")
    save_trace(path, costs)
    back = load_trace(path, cfg)
    assert len(back) == 12
    for x, y in zip(costs, back):
        assert np.array_equal(x.opening, y.opening)  # 17 digits round-trip exactly
        assert np.array_equal(x.connection, y.connection)


def _one_template_per_row(path, costs: CostRows) -> None:
    """The trace writer as one `str.format` template per row of all the
    rows at once."""
    n = costs.n_sites
    template = "{}" + ",{:.17g}" * (2 * n) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t"] + [f"c_{i + 1}" for i in range(n)] + [f"d_{i + 1}" for i in range(n)]) + "\n")
        for t, trial in enumerate(np.hstack([costs.opening, costs.connection]).tolist(), start=1):
            fh.write(template.format(t, *trial))


@pytest.mark.parametrize("n", [1, 3, 64, EMIT_LINES + 1])
def test_trace_blocks_write_the_one_template_per_row_bytes(n, tmp_path):
    # a trace is written in blocks of EMIT_LINES // n rows (one row at least);
    # a horizon two blocks and five rows long ends on a short block
    rows = max(1, EMIT_LINES // n)
    rng = np.random.default_rng(n)
    costs = CostRows(rng.random((2 * rows + 5, n)), rng.random((2 * rows + 5, n)))
    costs.connection[0, 0] = 1e-300  # a cell whose 17 digits carry an exponent
    save_trace(str(tmp_path / "blocks.csv"), costs)
    _one_template_per_row(str(tmp_path / "rows.csv"), costs)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_trace_format_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,c_1,c_2,d_1,d_2\n1,0.5,0.2,0.3,0.9\n")
    (cp,) = load_trace(str(path))
    assert cp.opening.tolist() == [0.5, 0.2]
    assert cp.connection.tolist() == [0.3, 0.9]


def test_trace_errors_name_their_lines(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(TraceFormatError, match="no trials"):
        load_trace(str(empty))

    header_only = tmp_path / "header.csv"
    header_only.write_text("t,c_1,d_1\n")
    with pytest.raises(TraceFormatError, match="no trials"):
        load_trace(str(header_only))

    bad_header = tmp_path / "badheader.csv"
    bad_header.write_text("t,c_1,c_2,d_1\n")
    with pytest.raises(TraceFormatError, match="line 1"):
        load_trace(str(bad_header))

    bad_count = tmp_path / "count.csv"
    bad_count.write_text("t,c_1,d_1\n1,0.5\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        load_trace(str(bad_count))

    bad_index = tmp_path / "index.csv"
    bad_index.write_text("t,c_1,d_1\n1,0.5,0.5\n3,0.5,0.5\n")
    with pytest.raises(TraceFormatError, match="line 3.*expected 2"):
        load_trace(str(bad_index))

    bad_number = tmp_path / "number.csv"
    bad_number.write_text("t,c_1,d_1\n1,0.5,abc\n")
    with pytest.raises(TraceFormatError, match=r"line 2, field d_1"):
        load_trace(str(bad_number))

    negative = tmp_path / "negative.csv"
    negative.write_text("t,c_1,d_1\n1,-0.5,0.5\n")
    with pytest.raises(TraceFormatError, match=r"line 2, field c_1: negative"):
        load_trace(str(negative))


def test_trace_bound_check_names_the_field(tmp_path):
    cfg = GameConfig(2, 1, 1.0, 1.0)
    path = tmp_path / "bounds.csv"
    path.write_text("t,c_1,c_2,d_1,d_2\n1,0.5,1.5,0.3,0.9\n")
    with pytest.raises(TraceFormatError, match=r"line 2, field c_2: cost 1\.5 exceeds bound"):
        load_trace(str(path), cfg)


def test_trace_dimension_checks(tmp_path):
    path = tmp_path / "dims.csv"
    path.write_text("t,c_1,d_1\n1,0.5,0.5\n")
    with pytest.raises(TraceFormatError, match="config expects 2"):
        load_trace(str(path), GameConfig(2, 1, 1.0, 1.0))
    with pytest.raises(TraceFormatError, match="config expects 3"):
        load_trace(str(path), GameConfig(1, 3, 1.0, 1.0))
