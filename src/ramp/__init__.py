"""Robust approximate message passing for l1-penalized M-estimation in sparse linear models."""

from .calibration import (
    CalibrationError,
    CalibrationTarget,
    calibrate,
    calibrate_nonsmooth,
    calibrate_smooth,
    kde,
)
from .experiments import (
    ExperimentSpec,
    Report,
    generate_instance,
    run_convergence_study,
    run_dense_efficiency,
    run_design_study,
    run_noise_study,
    run_sparse_efficiency,
    write_report,
)
from .losses import (
    LossSpec,
    absolute,
    effective_score,
    effective_score_deriv,
    huber,
    least_squares,
    loss_value,
    prox,
    quantile,
    soft_threshold,
)
from .oracle import OracleResult, check_oracle_distance, solve_penalized
from .solver import (
    DivergenceError,
    ProblemInstance,
    RampResult,
    RampState,
    SolverConfig,
    lambda_of_theta,
    run_ramp,
    theta_of_lambda,
)
from .state_evolution import (
    Cauchy,
    DistributionModel,
    Laplace,
    Normal,
    NormalMixture,
    SeConfig,
    SeResult,
    StudentT,
    amse_closed_form,
    amse_monte_carlo,
    efficiency_limits,
    info_lower_bound,
    pm_one_prior,
    se_fixed_point,
    tune_alpha,
)

__version__ = "0.1.0"
