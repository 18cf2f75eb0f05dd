"""Online learning for adversarial facility location.

Per trial an adversary prices every site (opening cost plus connection
cost), the learner commits to a nonempty site set, and pays the opening
costs of its set plus its cheapest connection. The learners here keep
per-trial work quasi-linear in the site count while competing with the best
fixed set in hindsight; brute-force oracles and adversarial generators back
the claims with tests.
"""
from .adversaries import (
    KillerSource,
    generate_scenario,
    load_trace,
    save_trace,
)
from .eg import ExponentiatedGradient
from .errors import (
    CapExceededError,
    ConfigError,
    ContractViolationError,
    InvalidActionError,
    InvalidDistributionError,
    NumericError,
    ProtocolError,
    TraceFormatError,
)
from .experiment import (
    AlgoSpec,
    ExperimentConfig,
    RunResult,
    ScenarioSpec,
    config_from_dict,
    config_to_dict,
    emit_results,
    run_experiment,
)
from .game import (
    ActionRows,
    CostPair,
    CostRows,
    GameConfig,
    SiteSet,
    action_losses,
    facility_loss,
    sort_by_connection_desc,
)
from .learners import (
    BoundedCardinalityLearner,
    DoublingLearner,
    FixedCardinalityLearner,
    LearnerBatch,
    half_log_ceil,
)
from .oracles import (
    ExactHedge,
    best_fixed_subset,
    exact_expected_loss,
    ftl_greedy_play,
)
from .sampler import sample_site_multiset
from .surrogate import SurrogateInstance, value_and_gradient

__version__ = "0.1.0"

__all__ = [
    "ActionRows",
    "AlgoSpec",
    "BoundedCardinalityLearner",
    "CapExceededError",
    "ConfigError",
    "ContractViolationError",
    "CostPair",
    "CostRows",
    "DoublingLearner",
    "ExactHedge",
    "ExperimentConfig",
    "ExponentiatedGradient",
    "FixedCardinalityLearner",
    "GameConfig",
    "InvalidActionError",
    "InvalidDistributionError",
    "KillerSource",
    "LearnerBatch",
    "NumericError",
    "ProtocolError",
    "RunResult",
    "ScenarioSpec",
    "SiteSet",
    "SurrogateInstance",
    "TraceFormatError",
    "action_losses",
    "best_fixed_subset",
    "config_from_dict",
    "config_to_dict",
    "emit_results",
    "exact_expected_loss",
    "facility_loss",
    "ftl_greedy_play",
    "generate_scenario",
    "half_log_ceil",
    "load_trace",
    "run_experiment",
    "sample_site_multiset",
    "save_trace",
    "sort_by_connection_desc",
    "value_and_gradient",
]
