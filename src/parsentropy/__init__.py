"""Blockwise information of parsed stationary sources.

Exact cylinder probabilities for finite-alphabet stationary models, the
ratio-martingale verifiers behind the telescoping information identity,
parsing generators (sublinear, linear, data-dependent, perturbed), and
convergence experiments of the normalized blockwise information sum
against enumeration-based oracle limits.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetNotSubextensiveError,
    CapExceededError,
    ConfigError,
    GapTooSmallError,
    InsufficientLengthError,
    ModelFormatError,
    OutOfSupportError,
    OverlapViolationError,
    ParsentropyError,
    PreconditionError,
    TrimTooLargeError,
    WindowEmptyError,
)
from .measures import (
    ENUM_CAP,
    EntropyBracket,
    HiddenMarkovModel,
    IIDModel,
    MarkovModel,
    MixtureModel,
    ProcessModel,
    Trajectory,
    beta_sequence,
    block_log_probs,
    cut_penalties,
    discrepancy_gap,
    entropy_rate,
    level_probs,
    load_model,
    log_cylinder_prob,
    marginal_entropy,
    model_from_dict,
    model_id,
    model_to_dict,
    prefix_log_probs,
    reference_model,
    sample_trajectory,
    save_model,
    stationary_distribution,
    suffix_log_probs,
    validate_model,
)
from .martingale import (
    DecompositionResult,
    chain_rule_decomposition,
    expected_logz_check,
    truncated_decomposition,
    verify_martingale_property,
    z_value,
    zmax_tail_check,
)
from .parsing import (
    Parsing,
    ParserSpec,
    PerturbedParsing,
    apply_perturbation_plan,
    make_parsing,
    parse_adversarial,
    parse_counterexample_v,
    parse_counterexample_w,
    parse_fixed,
    parse_growing,
    parse_lz78,
    parse_random_sublinear,
    perturb_subblocks,
    perturb_superblocks,
    validate_parsing,
    validate_perturbed,
)
from .estimator import (
    BirkhoffSeries,
    ConvergenceReport,
    CounterexampleReport,
    EstimatorRecord,
    OracleTarget,
    blockwise_info,
    convergence_experiment,
    counterexample_experiment,
    factorization_residual,
    oracle_target,
    perturbation_experiment,
    smb_info,
    sublinear_birkhoff_check,
)
