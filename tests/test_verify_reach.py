"""`olfl verify` checks the code that `olfl run` runs.

Every line of the learner core's modules (`learners`, `sampler`,
`surrogate`, `eg`, `game`) that a fixed set of small runs executes must
also be executed by `verify.run_checks()`, apart from the lines of
`ALLOWED`, each with the reason verify cannot reach it. A fault on a line
that only the runs execute would pass `olfl verify`.

Lines are recorded with the standard library's `sys.settrace`; the
previous tracer is restored afterwards. The runs cover the fl family,
hedge-exact and ftl-greedy on iid, drift and the killer.
`bench.bench_per_trial` is left out of them: the only core line it adds
is `LearnerBatch.state_nbytes`, a memory report that no guarantee rests
on.
"""
import inspect
import linecache
import sys

from olfl import AlgoSpec, ExperimentConfig, GameConfig, ScenarioSpec, eg, game, learners, run_experiment
from olfl import sampler, surrogate, verify

MODULES = {inspect.getsourcefile(module): module.__name__.rpartition(".")[2]
           for module in (learners, sampler, surrogate, eg, game)}

RUNS = [  # (algo, cardinality, scenario, sites), each at T=300 with seeds 1, 2 and 3
    ("fl-bounded", 2, "iid", 6),
    ("fl-fixed", 2, "drift", 6),
    ("fl", None, "iid", 6),
    ("fl", None, "killer", 16),
    ("hedge-exact", None, "iid", 4),
    ("ftl-greedy", None, "killer", 8),
    ("fl-bounded", 2, "killer", 8),
]

# (module, function, stripped source line) -> why verify cannot reach it.
# The list may only shrink: an entry that verify reaches fails the test.
ALLOWED = {
    ("game", "__call__", "return self[trial]"):
        "CostRows.__call__ feeds a shared scenario to hedge-exact; verify's one-row learner takes its "
        "scenario in prepared blocks, and its other checks pass callables or the killer",
    ("game", "realized", "return self"):
        "CostRows.realized gives a shared scenario's history; verify prices actions on the killer only",
    ("game", "action_losses",
     "elif len(shape) != 2 or trials.shape != (rows,) or not 0 <= trials.min() <= trials.max() < shape[0]:"):
        "action_losses' `trials` branch prices every seed of a shared scenario at once; verify prices killer rows",
    ("game", "_begin_update", "opening, connection = costs.opening[None], costs.connection[None]"):
        "the CostPair branch of `_begin_update` takes the CostPair that CostRows.__call__ gives hedge-exact; "
        "verify's hedge check hands it one CostRows per trial, a row per scenario",
}


def _traced_lines(work) -> set[tuple[str, str, str]]:
    """(module, function, stripped line) of every line of `MODULES` that
    `work()` executes."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_code.co_name, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in MODULES else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        work()
    finally:
        sys.settrace(previous)
    return {(MODULES[path], name, linecache.getline(path, line).strip()) for path, name, line in seen}


def _runs() -> None:
    for algo, cardinality, scenario, sites in RUNS:
        config = ExperimentConfig(
            GameConfig(sites, 300, 1.0, 1.0), AlgoSpec(algo, cardinality), ScenarioSpec(scenario), (1, 2, 3)
        )
        run_experiment(config)


def _checks() -> None:
    results = verify.run_checks()
    assert all(result.passed for result in results), [result for result in results if not result.passed]


def test_verify_executes_every_core_line_the_runs_execute():
    run_only = _traced_lines(_runs) - _traced_lines(_checks)
    assert run_only - ALLOWED.keys() == set(), "lines the runs execute and olfl verify does not"
    assert ALLOWED.keys() - run_only == set(), "allow-list entries verify now reaches; remove them"
    assert {module for module, _, _ in ALLOWED} == {"game"}
