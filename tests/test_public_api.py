"""The public surface: ``hetmix.__all__`` changes only on purpose, and the
names the benchmark harness patches by name stay in place."""

import hetmix
import hetmix.evaluation
from hetmix.distributions import QuantizedGaussian
from hetmix.schema import Dataset

PUBLIC = [
    "Categorical", "ComponentCollapseError", "ConfidenceBins", "Dataset",
    "DegenerateSampleError", "EmConfig", "EstimationError", "FinitePrediction", "FoldFailure", "Gaussian", "IGNORE_MISSING", "INPUT", "InferenceRequest", "InflatedGamma",
    "LooResult", "MISSING", "MISSINGNESS_MODES", "MODEL_MISSING", "MissingnessProfile",
    "MixtureModel", "MixturePrediction", "OUTCOME", "OrderScore", "OrderSelection",
    "Predictions", "PredictiveDistribution", "QuantizedGaussian", "SchemaError",
    "SchemaViolationError", "TargetSummary", "ThresholdCurve", "TrainingError",
    "TrainingTrace", "VariableKind", "VariableSchema", "Violation", "ZeroLikelihoodError",
    "bic_score", "chance_prediction", "component_log_likelihoods", "confidence_bins",
    "confidence_score", "demo", "demo_model", "distributions", "drop_zero_variability",
    "error_density", "evaluation", "evidence_log_likelihoods", "expected_absolute_error",
    "family_for", "fit", "infer", "infer_many", "inference", "io", "joint_log_likelihood",
    "latent_posterior", "load_dataset", "load_model", "load_schemas", "loo_evaluate",
    "max_absolute_error", "missingness_profile", "model", "normalized_error",
    "parameter_count", "percentile_ranks", "point_predict", "predict_batch",
    "prediction_error", "probability_of_error", "rank_outcomes", "read_data_csv",
    "row_log_likelihoods", "sample_cohort", "save_model", "save_schemas", "schema",
    "scott_bandwidth", "select_order", "small_demo_model", "target_tables",
    "threshold_curve", "training", "training_confidence_scores", "validate_dataset",
    "write_data_csv",
]


def test_all_is_pinned():
    assert sorted(hetmix.__all__) == PUBLIC


def test_names_the_benchmark_patches_exist():
    """``perfbench/layers.py`` wraps these by name; losing one breaks a traced run."""
    assert callable(Dataset.drop_subject)
    assert callable(vars(QuantizedGaussian)["log_masses"].func)
    assert hetmix.evaluation.fit is hetmix.training.fit
