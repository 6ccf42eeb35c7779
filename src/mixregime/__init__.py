"""Regime-switching simulation and misspecification-robust mixture QML."""

from .dgp import (ArLaw, HmmDgpParams, NoiseCorrelation, RegimeOutcome, Sample,
                  TransitionSpec, load_sample, save_sample, simulate_hmm,
                  simulate_msar)
from .designs import hmm_benchmark, msar_benchmark
from .errors import (ConfigurationError, EstimationError, MixRegimeError,
                     ParseError, QuadratureError, ValidationError)
from .estimator import (EstimationResult, EstimatorConfig, align_permutation,
                        qml_estimate)
from .harness import (ExperimentConfig, McSummary, ReplicationRecord,
                      load_experiment_config, render_table, run_experiment,
                      run_replication, summarize_csv, write_replications_csv)
from .inference import HacConfig, andrews_bandwidth, hac_middle, parzen_weight, sandwich_cov
from .mixture import (MixtureParams, ModelSpec, decode, decode_jacobian, encode,
                      hessian, natural_vector, score_contributions,
                      true_reference)
from .oracle import (CfCheckReport, KlCheckReport, PseudoTrueResult,
                     QmlLimitResult, cf_ratio_check,
                     kl_check, linear_independence_check, perturbation_grid,
                     pseudo_true_msar, pseudo_true_weights)

__version__ = "0.1.0"

__all__ = [
    "ArLaw", "CfCheckReport", "ConfigurationError", "EstimationError",
    "EstimationResult", "EstimatorConfig", "ExperimentConfig", "HacConfig",
    "HmmDgpParams", "KlCheckReport", "McSummary", "MixRegimeError",
    "MixtureParams", "ModelSpec", "NoiseCorrelation", "ParseError",
    "PseudoTrueResult", "QmlLimitResult", "QuadratureError", "RegimeOutcome",
    "ReplicationRecord",
    "Sample", "TransitionSpec", "ValidationError", "align_permutation",
    "andrews_bandwidth", "cf_ratio_check",
    "decode", "decode_jacobian", "encode",
    "hac_middle", "hessian", "hmm_benchmark", "kl_check",
    "linear_independence_check", "load_experiment_config", "load_sample",
    "msar_benchmark", "natural_vector", "parzen_weight", "perturbation_grid",
    "pseudo_true_msar", "pseudo_true_weights", "qml_estimate",
    "render_table",
    "run_experiment", "run_replication", "sandwich_cov",
    "save_sample", "score_contributions", "simulate_hmm",
    "simulate_msar", "summarize_csv", "true_reference",
    "write_replications_csv",
]
