"""Batched two-arm linear contextual bandit simulation with early stopping,
Gram-weighted online estimation, and post-stopping conditional inference.
"""

from .bounds import (
    BoundConstants,
    CostAdjustedRegret,
    calibrate_tail_constant,
    chebyshev_radius,
    cost_adjusted_regret,
    cumulative_cost_adjusted_regret,
    regret_bound_from_radius,
    regret_bound_from_variance,
    regret_bound_time,
    tail_radius,
)
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    EstimatorUnavailable,
    InfeasibleConditioning,
    UnsupportedCaseError,
)
from .estimators import (
    IvwEstimate,
    KnownSigma,
    ResidualSigma,
    RunningSums,
    fit_batch_ols,
    ivw_combine,
    ivw_estimate,
    limit_arm_second_moment,
    residual_noise_factors,
)
from .formats import (
    BoundsConfig,
    CalibrationConfig,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    record_from_trajectory,
)
from .harness import aggregate, emit_reports, prepare, run_experiment, run_replications
from .inference import (
    ConditionalSamplerConfig,
    ConditionalSamples,
    bootstrap_interval,
    run_inference,
    sample_conditional,
    test_hypothesis,
)
from .model import (
    AssumptionReport,
    ContextSpec,
    TrueModel,
    TruncatedGaussian,
    UniformBox,
    check_assumptions,
    estimate_policy_regret,
    realize_rewards,
    sample_batch_contexts,
    uniform_cube_spec,
)
from .policies import (
    ClipSchedule,
    EpsGreedy,
    Schedule,
    Thompson,
    Ucb,
    UniformRandom,
    action_probabilities,
    constant_clip,
    select_actions,
    update_state,
)
from .records import ExperimentRecord, InferenceResult, SimulationSetup
from .rng import derive_seed, make_rng, mix64, substream_seed
from .simulate import Trajectory, simulate_ensemble, simulate_trajectory
from .stopping import (
    StopDecision,
    StoppingRule,
    StopTimePrediction,
    closed_form_stop_time,
    evaluate,
    scan_stop_time,
    spectral_norm,
)

__version__ = "0.1.0"
