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
from olfl.experiment import ALGO_NAMES, CARDINALITY_ALGOS, bound_terms, half_log_ceil


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


def test_cli_bench_smoke(tmp_path):
    rc = main(["bench", "--n-values", "32,64", "--t", "30", "--out", str(tmp_path / "b")])
    assert rc == 0
    assert (tmp_path / "b.bench.json").exists()
    assert main(["bench", "--n-values", ""]) == 1


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
