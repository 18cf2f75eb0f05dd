"""Experiment harness and CLI: config plumbing, outputs, exit codes."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from olfl import (
    AlgoSpec,
    CapExceededError,
    ConfigError,
    CostRows,
    ExperimentConfig,
    GameConfig,
    ScenarioSpec,
    SiteSet,
    action_losses,
    best_fixed_subset,
    config_from_dict,
    config_to_dict,
    emit_results,
    facility_loss,
    load_trace,
    run_experiment,
    save_trace,
)
from olfl.cli import main
from olfl.errors import NumericError, ProtocolError
from olfl.experiment import ALGO_NAMES, CARDINALITY_ALGOS, _loss_texts, bound_terms, half_log_ceil
from olfl.oracles import comparator


def _cfg(**overrides):
    base = dict(
        game=GameConfig(4, 30, 1.0, 1.0),
        algo=AlgoSpec("fl-fixed", 1),
        scenario=ScenarioSpec("iid", seed=5),
        seeds=(1, 2, 3),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(algo=AlgoSpec("gradient-descent"))
    with pytest.raises(ConfigError):
        _cfg(algo=AlgoSpec("fl-fixed"))  # cardinality required
    with pytest.raises(ConfigError):
        _cfg(algo=AlgoSpec("fl-fixed", 5))  # K > N
    with pytest.raises(ConfigError):
        _cfg(algo=AlgoSpec("fl", 2))  # fl picks its own budget
    with pytest.raises(ConfigError):
        _cfg(scenario=ScenarioSpec("replay"))  # path missing
    with pytest.raises(ConfigError):
        _cfg(scenario=ScenarioSpec("iid", path="x.csv"))
    with pytest.raises(ConfigError):
        _cfg(scenario=ScenarioSpec("chaos"))
    with pytest.raises(ConfigError):
        _cfg(game=GameConfig(4, 30, 2.0, 1.0), scenario=ScenarioSpec("killer"))
    with pytest.raises(ConfigError):
        _cfg(seeds=())
    with pytest.raises(ConfigError):
        _cfg(seeds=(1, 1))
    with pytest.raises(ConfigError, match="seeds must be >= 0, got -1"):
        _cfg(seeds=(-1, 2))
    for kind in ("iid", "killer"):  # a killer run reads no scenario seed, and is refused one as well
        with pytest.raises(ConfigError, match="scenario seed must be >= 0, got -3"):
            _cfg(scenario=ScenarioSpec(kind, seed=-3))
    for kind, path in (("killer", None), ("replay", "x.csv")):  # nothing reads a scenario seed there
        with pytest.raises(ConfigError, match=f"scenario {kind} takes no scenario seed"):
            _cfg(scenario=ScenarioSpec(kind, seed=5, path=path))
        _cfg(scenario=ScenarioSpec(kind, seed=0, path=path))  # the CLI's default
    for kind, path in (("iid", None), ("killer", None), ("replay", "x.csv")):  # nothing reads a drift step there
        for step in (0.1, -1.0, float("nan")):
            with pytest.raises(ConfigError, match=f"scenario {kind} takes no drift step"):
                _cfg(scenario=ScenarioSpec(kind, path=path, drift_step=step))
        _cfg(scenario=ScenarioSpec(kind, path=path, drift_step=0.05))  # the CLI's default
    for step in (-0.5, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="drift step must be finite and >= 0"):
            _cfg(scenario=ScenarioSpec("drift", drift_step=step))


def test_config_dict_round_trip():
    for config in (
        _cfg(),
        _cfg(algo=AlgoSpec("fl"), scenario=ScenarioSpec("drift", seed=2, drift_step=0.1)),
        _cfg(algo=AlgoSpec("hedge-exact")),
    ):
        assert config_from_dict(config_to_dict(config)) == config
    with pytest.raises(ConfigError):
        config_from_dict({"game": {}})


def test_zero_cost_replay_is_lossless(tmp_path):
    path = str(tmp_path / "zeros.csv")
    save_trace(path, CostRows(np.zeros((25, 3)), np.zeros((25, 3))))
    config = ExperimentConfig(
        GameConfig(3, 25, 1.0, 1.0),
        AlgoSpec("fl"),
        ScenarioSpec("replay", path=path),
        (1, 2),
    )
    result = run_experiment(config)
    assert result.mean_cumulative_loss == 0.0
    for sr in result.seed_runs:
        assert sr.cumulative_loss == 0.0
        assert sr.scales.tolist() == [1] * 25
        assert sr.segment_starts == [1]


def test_hedge_run_is_deterministic():
    config = _cfg(algo=AlgoSpec("hedge-exact"), game=GameConfig(2, 50, 1.0, 1.0), seeds=(7,))
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.mean_cumulative_loss == b.mean_cumulative_loss
    ra, rb = a.seed_runs[0], b.seed_runs[0]
    assert ra.actions == rb.actions and ra.losses.tolist() == rb.losses.tolist()


def test_killer_runs_use_per_seed_comparators():
    config = ExperimentConfig(
        GameConfig(4, 40, 1.0, 1.0),
        AlgoSpec("fl"),
        ScenarioSpec("killer"),
        (1, 2),
    )
    result = run_experiment(config)
    assert result.comparator_per_seed
    assert result.comparator_members is None
    assert result.scenario_costs is None
    for sr in result.seed_runs:
        assert len(sr.realized_costs) == 40


def test_ftl_greedy_on_the_killer_holds_one_history_and_prices_it_once(monkeypatch):
    priced = []
    monkeypatch.setattr(
        "olfl.oracles.best_fixed_subset",
        lambda *args, **kwargs: priced.append(args) or best_fixed_subset(*args, **kwargs),
    )
    config = ExperimentConfig(
        GameConfig(10, 300, 1.0, 1.0), AlgoSpec("ftl-greedy"), ScenarioSpec("killer"), tuple(range(1, 21))
    )
    result = run_experiment(config)
    assert len(priced) == 1
    history = result.seed_runs[0].realized_costs
    assert len(history) == 300 and all(sr.realized_costs is history for sr in result.seed_runs)
    assert len({sr.cumulative_loss for sr in result.seed_runs}) == 1
    for sr in result.seed_runs:  # all seeds priced in one call, bit for bit as each seed priced alone
        assert sr.losses.tobytes() == action_losses(history, sr.actions).tobytes()


@pytest.mark.parametrize(
    "algo, k, kind",
    [("fl-bounded", 2, "iid"), ("hedge-exact", None, "drift"), ("ftl-greedy", None, "killer"),
     ("fl", None, "killer"), ("hedge-exact", None, "killer")],
)
def test_run_actions_are_every_seeds_rows_seed_major(algo, k, kind):
    # one learner row serving every seed, and on the killer one row per seed
    # outside ftl-greedy: seed r's actions are rows r * T .. (r + 1) * T - 1
    horizon = 40
    config = ExperimentConfig(GameConfig(5, horizon, 1.0, 1.0), AlgoSpec(algo, k), ScenarioSpec(kind), (3, 1, 2))
    result = run_experiment(config)
    rows = list(result.actions)
    assert len(rows) == 3 * horizon
    for r, sr in enumerate(result.seed_runs):
        assert sr.actions == rows[r * horizon : (r + 1) * horizon]
        history = result.scenario_costs if sr.realized_costs is None else sr.realized_costs
        assert sr.losses.tobytes() == action_losses(history, sr.actions).tobytes()


def test_a_shared_scenario_has_one_comparator_loss_not_a_mean_of_equal_ones():
    config = _cfg(algo=AlgoSpec("fl-bounded", 2), scenario=ScenarioSpec("iid", seed=2), seeds=(1, 2, 3))
    result = run_experiment(config)
    _, loss, _ = comparator(result.scenario_costs, 2, None)
    assert np.mean([loss] * 3) != loss  # the mean of the seeds' equal losses would differ in its last bit
    assert result.comparator_loss == loss


def test_infeasible_comparator_is_refused_before_any_trial(monkeypatch, capsys):
    # fl-bounded K=5 at N=50 needs 2369935 candidate subsets, past the cap
    trials = []
    monkeypatch.setattr("olfl.experiment._run_seeds", lambda *args: trials.append(args))
    config = ExperimentConfig(
        GameConfig(50, 500, 1.0, 2.0),
        AlgoSpec("fl-bounded", 5),
        ScenarioSpec("drift", drift_step=0.1),
        (1, 2, 3, 4, 5),
    )
    with pytest.raises(CapExceededError, match="2369935 candidate subsets exceeds cap 2000000"):
        run_experiment(config)
    rc = main(
        [
            "run", "--algo", "fl-bounded", "--k", "5", "--n", "50", "--t", "500",
            "--c-max", "1", "--d-max", "2", "--scenario", "drift", "--drift-step", "0.1",
            "--seeds", "1,2,3,4,5", "--out", "unused",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: 2369935 candidate subsets exceeds cap 2000000\n"
    assert trials == []


def test_fl_fixed_comparator_and_bound_fields():
    config = _cfg()
    result = run_experiment(config)
    assert result.comparator_restriction == "cardinality exactly 1"
    assert len(result.comparator_members) == 1
    h = half_log_ceil(30)
    assert result.scale_factor == h
    expected_penalty = (2 * 1 * 2.0 * h + 1.0) * math.sqrt(math.log(4) * 30)
    assert result.penalty_term == pytest.approx(expected_penalty, rel=1e-12)
    assert result.bound_rhs == pytest.approx(
        h * result.comparator_loss + expected_penalty, rel=1e-12
    )
    assert result.regret_raw == pytest.approx(
        result.mean_cumulative_loss - h * result.comparator_loss, rel=1e-9, abs=1e-9
    )


def test_bound_terms_shapes():
    name, scale, penalty = bound_terms(_cfg())
    assert name == "fixed-cardinality" and scale == half_log_ceil(30) and penalty > 0
    name, _, penalty = bound_terms(_cfg(algo=AlgoSpec("hedge-exact")))
    assert name == "hedge"
    assert penalty == pytest.approx(5.0 * math.sqrt(30 * math.log(15) / 2.0), rel=1e-12)
    name, scale, penalty = bound_terms(_cfg(algo=AlgoSpec("ftl-greedy")))
    assert name is None and scale == 1 and penalty is None


def test_emit_results_files(tmp_path):
    prefix = str(tmp_path / "out" / "exp")
    result = run_experiment(_cfg())
    paths = emit_results(result, prefix)
    assert paths == [
        f"{prefix}.trials.seed1.csv",
        f"{prefix}.trials.seed2.csv",
        f"{prefix}.trials.seed3.csv",
        f"{prefix}.regret_curve.csv",
        f"{prefix}.scenario.csv",
        f"{prefix}.aggregate.json",
    ]

    trials = open(paths[0], encoding="utf-8").read().splitlines()
    assert trials[0] == "seed,trial,action,loss,lambda,theta,k,segment"
    assert len(trials) == 31
    first = trials[1].split(",")
    assert first[0] == "1" and first[1] == "1"

    curve = open(paths[3], encoding="utf-8").read().splitlines()
    assert curve[0] == "trial,mean_cumulative_loss,comparator_scaled_cumulative,regret,bound"
    assert len(curve) == 31  # header + exactly T rows

    # aggregate config echo round-trips through the parser
    aggregate = json.loads(open(paths[5], encoding="utf-8").read())
    assert config_from_dict(aggregate["config"]) == result.config

    # bound column at trial T equals the closed form, recomputed from scratch
    scenario = load_trace(paths[4], result.config.game)
    comp = SiteSet(tuple(aggregate["comparator"]["members"]))
    comp_total = sum(facility_loss(cp, comp) for cp in scenario)
    h = half_log_ceil(30)
    rhs = h * comp_total + (2 * 1 * 2.0 * h + 1.0) * math.sqrt(math.log(4) * 30)
    last_bound = float(curve[-1].split(",")[4])
    assert last_bound == pytest.approx(rhs, rel=1e-12)
    assert aggregate["bound"]["rhs"] == pytest.approx(rhs, rel=1e-12)

    # mean cumulative in the curve matches the aggregate at trial T
    assert float(curve[-1].split(",")[1]) == pytest.approx(
        aggregate["loss"]["mean_cumulative"], rel=1e-12
    )

    # every float in the aggregate parses back to the exact value it was made from
    assert [
        aggregate["comparator"]["cumulative_loss"],
        aggregate["bound"]["scaled_comparator_term"],
        aggregate["bound"]["penalty_term"],
        aggregate["bound"]["rhs"],
        aggregate["loss"]["mean_cumulative"],
        *aggregate["loss"]["ci95"],
        *[entry["cumulative"] for entry in aggregate["loss"]["per_seed"]],
        aggregate["regret"]["raw"],
        aggregate["regret"]["bound_normalized"],
        aggregate["timing"]["total_wall_s"],
        aggregate["timing"]["per_trial_median_ms"],
    ] == [
        result.comparator_loss,
        result.scale_factor * result.comparator_loss,
        result.penalty_term,
        result.bound_rhs,
        result.mean_cumulative_loss,
        *result.ci95,
        *[sr.cumulative_loss for sr in result.seed_runs],
        result.regret_raw,
        result.regret_normalized,
        sum(sr.wall_time_s for sr in result.seed_runs),
        float(np.median([sr.per_trial_median_ms for sr in result.seed_runs])),
    ]


def test_trial_csv_losses_replay_exactly(tmp_path):
    prefix = str(tmp_path / "exp")
    result = run_experiment(_cfg(seeds=(9,)))
    paths = emit_results(result, prefix)
    scenario = load_trace(f"{prefix}.scenario.csv", result.config.game)
    rows = open(paths[0], encoding="utf-8").read().splitlines()[1:]
    assert len(rows) == 30
    for row in rows:
        cells = row.split(",")
        trial = int(cells[1])
        action = SiteSet(tuple(int(i) for i in cells[2].split(";")))
        recorded = float(cells[3])
        assert facility_loss(scenario[trial - 1], action) == recorded  # exact, 17 digits


def _reference_trial_csv(run, horizon: int) -> str:
    """A trial CSV as the emitter wrote it before it formatted shared cells
    once: one str.format template per line over every column."""
    columns = [
        ([run.seed] * horizon, ""),
        (range(1, horizon + 1), ""),
        ([";".join(map(str, action)) for action in run.actions], ""),
        (run.losses.tolist(), ".17g"),
        *((None if c is None else c.tolist(), spec) for c, spec in (
            (run.surrogate_losses, ".17g"), (run.scales, ""), (run.cardinalities, ""), (run.segments, "")
        )),
    ]
    template = ",".join("" if values is None else "{:%s}" % spec for values, spec in columns) + "\n"
    lines = map(template.format, *(values for values, _ in columns if values is not None))
    return "seed,trial,action,loss,lambda,theta,k,segment\n" + "".join(lines)


@pytest.mark.parametrize(
    "algo, k, n, kind, seeds",
    [
        ("fl-bounded", 2, 6, "iid", tuple(range(1, 21))),  # one shared row: cells formatted once
        ("fl", None, 70, "drift", (1, 2, 3)),  # past 62 sites, actions go through the cache
        ("fl", None, 5, "killer", (3, 5, 8)),  # one row per seed
        ("ftl-greedy", None, 6, "killer", (1, 2)),  # no lambda, theta, k or segment cells
        ("hedge-exact", None, 4, "iid", (1, 2)),
    ],
)
def test_trial_csvs_equal_the_one_template_per_line_emitter_byte_for_byte(algo, k, n, kind, seeds, tmp_path):
    scenario = ScenarioSpec(kind, seed=6 if kind != "killer" else 0)
    config = ExperimentConfig(GameConfig(n, 300, 1.0, 1.0), AlgoSpec(algo, k), scenario, seeds)
    result = run_experiment(config)
    paths = emit_results(result, str(tmp_path / "run"))
    for path, run in zip(paths, result.seed_runs):
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == _reference_trial_csv(run, config.game.horizon)


def test_equal_losses_share_a_cell_only_when_their_bits_agree():
    losses = np.array([[0.0, -0.0, 0.1], [0.1, 0.0, np.nextafter(0.1, 1.0)]])
    texts = _loss_texts(losses)
    assert texts == [[f"{loss:.17g}" for loss in row] for row in losses.tolist()]
    assert texts[0][:2] == ["0", "-0"] and texts[1][2] != texts[1][0]


def test_cli_run_and_exit_codes(tmp_path):
    out = str(tmp_path / "cli" / "r1")
    rc = main(
        [
            "run",
            "--algo", "fl-fixed", "--k", "1",
            "--n", "3", "--t", "20",
            "--c-max", "1", "--d-max", "1",
            "--scenario", "iid", "--scenario-seed", "3",
            "--seeds", "1,2",
            "--out", out,
        ]
    )
    assert rc == 0
    assert (tmp_path / "cli" / "r1.aggregate.json").exists()

    # replay:PATH form reuses the emitted scenario
    rc = main(
        [
            "run",
            "--algo", "fl",
            "--n", "3", "--t", "20",
            "--c-max", "1", "--d-max", "1",
            "--scenario", f"replay:{out}.scenario.csv",
            "--seeds", "4",
            "--out", str(tmp_path / "cli" / "r2"),
        ]
    )
    assert rc == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", ["iid", "killer", "drift"])
@pytest.mark.parametrize("horizon", [1, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("algo", ALGO_NAMES)
def test_cli_runs_every_algo_at_the_smallest_sizes(algo, n, horizon, scenario, tmp_path, capsys):
    card = ["--k", "1"] if algo in CARDINALITY_ALGOS else []
    args = ["run", "--algo", algo, *card, "--n", str(n), "--t", str(horizon), "--c-max", "1", "--d-max", "1"]
    assert main([*args, "--scenario", scenario, "--seeds", "1,2", "--out", str(tmp_path / "run")]) == 0
    assert "Traceback" not in capsys.readouterr().err


OVERFLOWING_RANGES = [(algo, "1", "1e308") for algo in ALGO_NAMES] + [(algo, "1e308", "1") for algo in ALGO_NAMES]
OVERFLOWING_RANGES += [(algo, "1e-320", "1e-320") for algo in ("fl", "fl-fixed", "fl-bounded")]


@pytest.mark.parametrize("algo,c_max,d_max", OVERFLOWING_RANGES)
def test_cli_refuses_cost_ranges_that_overflow_before_any_trial(algo, c_max, d_max, tmp_path, capsys):
    card = ["--k", "1"] if algo in CARDINALITY_ALGOS else []
    args = ["run", "--algo", algo, *card, "--n", "4", "--t", "50", "--c-max", c_max, "--d-max", d_max]
    assert main([*args, "--scenario", "iid", "--seeds", "1", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cost bounds --c-max") and "must be finite and positive" in err
    assert not list(tmp_path.iterdir())  # refused before anything ran or was written


@pytest.mark.parametrize("algo", ALGO_NAMES)
def test_cli_runs_cost_ranges_whose_squared_deviations_would_overflow(algo, tmp_path, capsys):
    # cumulative losses of order 1e301 are in range, but their deviations'
    # squares are not; of order 1e307, one seed's is in range but the sum
    # over 30 seeds is not: the mean, the interval and the mean curve are
    # computed on losses scaled by a power of two
    card = ["--k", "1"] if algo in CARDINALITY_ALGOS else []
    for c_max, seeds in (("1e300", "1,2"), ("4e305", ",".join(map(str, range(1, 31))))):
        args = ["run", "--algo", algo, *card, "--n", "4", "--t", "50", "--c-max", c_max, "--d-max", "1"]
        assert main([*args, "--scenario", "iid", "--seeds", seeds, "--out", str(tmp_path / c_max)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        aggregate = (tmp_path / f"{c_max}.aggregate.json").read_text()
        assert "Infinity" not in aggregate and "inf" not in (tmp_path / f"{c_max}.regret_curve.csv").read_text()
        loss = json.loads(aggregate)["loss"]
        assert all(math.isfinite(bound) for bound in loss["ci95"])
        assert loss["ci95"][0] <= loss["mean_cumulative"] <= loss["ci95"][1]


def test_a_killer_seed_emits_the_same_bytes_alone_and_beside_another(tmp_path):
    # alone, seed 3 is one learner row; beside seed 5 it is row 0 of two,
    # whose surrogate gathers through the flattened rows
    args = ["run", "--algo", "fl", "--n", "16", "--t", "300", "--c-max", "1", "--d-max", "1"]
    trials, cumulative = [], []
    for seeds in ("3", "3,5"):
        assert main([*args, "--scenario", "killer", "--seeds", seeds, "--out", str(tmp_path / seeds)]) == 0
        trials.append((tmp_path / f"{seeds}.trials.seed3.csv").read_bytes())
        cumulative.append(json.loads((tmp_path / f"{seeds}.aggregate.json").read_text())["loss"]["per_seed"][0])
    assert trials[0] == trials[1]
    assert cumulative[0] == cumulative[1] and cumulative[0]["seed"] == 3


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_cli_refuses_a_non_finite_drift_step_before_any_trial(step, tmp_path, capsys):
    args = ["run", "--algo", "fl", "--n", "4", "--t", "10", "--c-max", "1", "--d-max", "1", "--scenario", "drift"]
    assert main([*args, "--drift-step", step, "--seeds", "1", "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: drift step must be finite and >= 0, got {step}\n"
    assert not list(tmp_path.iterdir())


def test_cli_refuses_a_scenario_seed_nothing_reads(tmp_path, capsys):
    args = ["run", "--algo", "fl", "--n", "3", "--t", "5", "--c-max", "1", "--d-max", "1"]
    cases = [  # (scenario and its flags, the complaint)
        (["killer", "--scenario-seed", "5"], "scenario killer takes no scenario seed"),
        (["killer", "--drift-step", "nan"], "scenario killer takes no drift step"),
        (["iid", "--drift-step", "-1"], "scenario iid takes no drift step"),
        ([f"replay:{tmp_path / 'missing.csv'}", "--drift-step", "0.1"], "scenario replay takes no drift step"),
        (["drift", "--drift-step", "-1"], "drift step must be finite and >= 0, got -1.0"),
    ]
    for scenario, complaint in cases:
        assert main([*args, "--scenario", *scenario, "--seeds", "1", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert not list(tmp_path.iterdir())


def test_cli_validation_failures(tmp_path):
    assert main(["run", "--algo", "warp"]) == 1  # bad choice, argparse error
    assert main(["sing"]) == 1
    assert main([]) == 1
    # killer with the wrong cost bounds is a config error, not a crash
    rc = main(
        [
            "run", "--algo", "fl", "--n", "4", "--t", "10",
            "--c-max", "2", "--d-max", "1",
            "--scenario", "killer", "--seeds", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    # missing trace file surfaces as a validation error
    rc = main(
        [
            "run", "--algo", "fl", "--n", "2", "--t", "5",
            "--c-max", "1", "--d-max", "1",
            "--scenario", "replay:/nonexistent/trace.csv", "--seeds", "1",
            "--out", str(tmp_path / "y"),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("error", [NumericError("weights underflowed"), ProtocolError("play twice")])
def test_cli_numeric_and_protocol_failures_exit_3(error, tmp_path, monkeypatch, capsys):
    def failing_run(config):
        raise error

    monkeypatch.setattr("olfl.cli.run_experiment", failing_run)
    rc = main(
        [
            "run", "--algo", "fl", "--n", "2", "--t", "5",
            "--c-max", "1", "--d-max", "1",
            "--scenario", "iid", "--seeds", "1",
            "--out", str(tmp_path / "z"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"error: {error}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 58.2 TiB for an array"), "error: Unable to allocate 58.2 TiB for an array"),
    (MemoryError(), "error: MemoryError"),
])
def test_cli_out_of_memory_exits_1_with_one_line(error, line, tmp_path, monkeypatch, capsys):
    def failing_run(config):
        raise error

    monkeypatch.setattr("olfl.cli.run_experiment", failing_run)
    args = ["run", "--algo", "fl", "--n", "4", "--t", "1000000000000", "--c-max", "1", "--d-max", "1"]
    assert main([*args, "--scenario", "iid", "--seeds", "1", "--out", str(tmp_path / "big")]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("items", ["1,,", ",1", "1,,2", "1,"])
def test_cli_refuses_an_empty_list_item(items, tmp_path, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("ran past the refusal")

    monkeypatch.setattr("olfl.cli.run_experiment", unreachable)
    monkeypatch.setattr("olfl.cli.bench_per_trial", unreachable)
    args = ["run", "--algo", "fl", "--n", "4", "--t", "10", "--c-max", "1", "--d-max", "1", "--scenario", "iid"]
    assert main([*args, "--seeds", items, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"usage error: expected a comma-separated integer list, got {items!r}\n"
    assert main(["bench", "--n-values", items.replace("1", "32")]) == 1
    assert capsys.readouterr().err.startswith("usage error: expected a comma-separated integer list")
    assert not list(tmp_path.iterdir())


def test_cli_bench_smoke(tmp_path):
    rc = main(["bench", "--n-values", "32,64", "--t", "30", "--out", str(tmp_path / "b")])
    assert rc == 0
    assert (tmp_path / "b.bench.json").exists()
    assert main(["bench", "--n-values", ""]) == 1


def test_cli_bench_refuses_a_negative_seed(tmp_path, capsys):
    # as `run` refuses a negative seed: one line naming the flag, before any trial
    assert main(["bench", "--n-values", "32", "--t", "5", "--seed", "-1", "--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not list(tmp_path.iterdir())


def test_cli_verify_passes():
    assert main(["verify"]) == 0


def test_cli_verify_reports_failures(monkeypatch):
    import olfl.verify as verify_mod

    def broken():
        return verify_mod.CheckResult("broken", False, "made to fail")

    monkeypatch.setattr(verify_mod, "ALL_CHECKS", (broken,))
    assert main(["verify"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "olfl", "run", "--algo", "fl"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1  # missing required flags
    assert "usage error" in proc.stderr
