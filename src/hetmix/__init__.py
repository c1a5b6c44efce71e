"""Finite mixture models for heterogeneous tabular data with missingness.

The pipeline: declare per-column schemas (real / nonnegative / ordinal /
categorical), fit a latent-class mixture by EM where every cell can also be
MISSING with a per-(component, variable) probability, pick the component
count by BIC, condition on partial evidence to predict outcome variables,
and judge predictions by expected absolute error against uniform-chance and
prior-marginal references, with a likelihood-based confidence percentile per
subject.
"""

__version__ = "0.1.0"

from .schema import (INPUT, MISSING, OUTCOME, Dataset, MissingnessProfile,
                     SchemaError, SchemaViolationError, VariableKind,
                     VariableSchema, Violation, drop_zero_variability,
                     missingness_profile, validate_dataset,
                     zero_variability_columns)
from .distributions import (Categorical, EstimationError, Gaussian,
                            InflatedGamma, QuantizedGaussian, family_for,
                            weighted_mle)
from .model import (IGNORE_MISSING, MISSINGNESS_MODES, MODEL_MISSING,
                    MixtureModel, ZeroLikelihoodError,
                    component_log_likelihoods, evidence_log_likelihoods,
                    joint_log_likelihood, latent_posterior, parameter_count,
                    row_log_likelihoods, sample_cohort)
from .training import (ComponentCollapseError, EmConfig, OrderScore,
                       OrderSelection, TrainingError, TrainingTrace,
                       bic_score, fit, select_order)
from .inference import (FinitePrediction, InferenceRequest, MixturePrediction,
                        PredictiveDistribution, Predictions, infer, infer_many,
                        point_predict, predict_batch, rank_outcomes,
                        target_tables)
from .evaluation import (ConfidenceBins, ConfidenceRecord, DegenerateSampleError,
                         EaeRecord, FoldFailure, LooResult, TargetSummary,
                         ThresholdCurve, chance_prediction, confidence_bins,
                         confidence_score, error_density,
                         expected_absolute_error, loo_evaluate,
                         max_absolute_error, normalized_error,
                         percentile_ranks, prediction_error,
                         probability_of_error, scott_bandwidth,
                         threshold_curve, training_confidence_scores)
from .io import (load_dataset, load_model, load_schemas, read_data_csv,
                 save_model, save_schemas, write_data_csv)
from .demo import demo_model, small_demo_model

__all__ = [name for name in dir() if not name.startswith("_")]
