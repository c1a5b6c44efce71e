"""Expected-error evaluation, confidence scoring, and leave-one-out loops.

For an ordinal target the expected absolute error (EAE) of a predictive
distribution is sum_d f(d) * |d - truth|; for a categorical target the
probability of error is 1 - f(truth). Both are normalized to a 0-100 scale
by the worst-case error (|domain| - 1 for ordinals, 1 for categoricals).
Two degenerate model orders anchor every comparison: order 0 means a uniform
distribution over the target domain (chance) and order 1 is the prior
marginal with no conditioning (baseline).

Per-subject confidence is the evidence likelihood c = sum_z w_z * prod_v
f(x_v; params[z][v]) over the observed input cells, kept in the log domain;
it is ranked against the training cohort's scores to give a percentile.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .distributions import log_sum_exp
from .inference import (FinitePrediction, InferenceRequest, predict_targets,
                        target_tables)
from .model import (MixtureModel, ZeroLikelihoodError, component_log_likelihoods,
                    evidence_log_likelihoods, normalize_log_joint, row_log_likelihoods)
from .schema import (MISSING, Dataset, SchemaError, SchemaViolationError,
                     VariableKind, VariableSchema, validate_dataset)
from .training import EmConfig, TrainingError, fit

CHANCE_ORDER = 0
BASELINE_ORDER = 1
MAX_FAILURE_FRACTION = 0.1  # loo_evaluate aborts when more folds than this fail

# anything that breaks a single fold without implicating the others: a
# training subset that lost its last variability in some column, EM failure,
# or held-out evidence with zero likelihood under the fold's model
_FOLD_ERRORS = (TrainingError, SchemaViolationError, ZeroLikelihoodError)


class DegenerateSampleError(ValueError):
    """A sample has too little variation for the requested statistic."""


def max_absolute_error(schema: VariableSchema) -> float:
    """Worst-case error unit: |domain| - 1 for ordinals, 1 for categoricals."""
    if schema.kind is VariableKind.ORDINAL:
        return float(len(schema.domain) - 1)
    if schema.kind is VariableKind.CATEGORICAL:
        return 1.0
    raise SchemaError(f"{schema.name}: expected-error metrics need a finite target")


def expected_absolute_error(prediction: FinitePrediction, truth) -> float:
    """sum_d f(d) |d - truth| over an ordinal prediction."""
    domain = np.asarray(prediction.domain, dtype=float)
    return float(np.dot(prediction.probabilities, np.abs(domain - float(truth))))


def probability_of_error(prediction: FinitePrediction, truth) -> float:
    """1 - f(truth) for a categorical prediction."""
    return 1.0 - prediction.probability_of(truth)


def prediction_error(schema: VariableSchema, prediction: FinitePrediction, truth) -> float:
    """EAE for ordinal targets, probability of error for categorical ones."""
    max_absolute_error(schema)  # rejects continuous targets
    if schema.kind is VariableKind.ORDINAL:
        return expected_absolute_error(prediction, truth)
    return probability_of_error(prediction, truth)


def normalized_error(schema: VariableSchema, error: float) -> float:
    """Error rescaled to percent of the target's worst case."""
    return 100.0 * error / max_absolute_error(schema)


def chance_prediction(schema: VariableSchema) -> FinitePrediction:
    """Uniform distribution over the target domain (the order-0 reference)."""
    k = len(schema.domain)
    if k < 2:
        raise SchemaError(f"{schema.name}: need a finite domain")
    return FinitePrediction(schema.domain, np.full(k, 1.0 / k))


@dataclass(frozen=True)
class EaeRecord:
    """Per-subject evaluation outcome for one target under one model order."""

    subject: int
    target: str
    error: float
    normalized: float


@dataclass(frozen=True)
class ConfidenceRecord:
    """Per-subject confidence: log evidence likelihood and its training percentile."""

    subject: int
    log_score: float
    percentile: float


def confidence_score(model: MixtureModel, evidence: Mapping, mode: str) -> float:
    """Log evidence likelihood log sum_z w_z prod_v f(x_v) over observed inputs.

    Raw scores underflow for wide inputs, so the log is returned; percentile
    ranking is order-preserving either way.
    """
    return float(log_sum_exp(evidence_log_likelihoods(model, evidence, mode)))


def training_confidence_scores(model: MixtureModel, dataset: Dataset, mode: str,
                               columns: Sequence[int] | None = None) -> np.ndarray:
    """Confidence scores of every subject, restricted to input-role columns."""
    cols = dataset.input_columns if columns is None else tuple(columns)
    return row_log_likelihoods(model, dataset, mode, cols)


def percentile_ranks(scores, training_scores) -> np.ndarray:
    """Fraction of training scores strictly below each score (a scalar score
    gives a scalar fraction)."""
    ref = np.sort(np.asarray(training_scores, dtype=float))
    if ref.size == 0:
        raise ValueError("empty reference scores")
    idx = np.searchsorted(ref, np.asarray(scores, dtype=float), side="left")
    return idx / ref.size


@dataclass(frozen=True)
class ThresholdCurve:
    """Mean error E(tau) over subjects whose confidence percentile >= tau.

    ``kept`` counts the subjects entering each mean; empty selections yield
    NaN. ``improvement`` is E(0) - E(tau), the gain from discarding
    low-confidence subjects.
    """

    thresholds: np.ndarray
    mean_error: np.ndarray
    kept: np.ndarray

    @property
    def improvement(self) -> np.ndarray:
        return self.mean_error[0] - self.mean_error


def threshold_curve(percentiles, errors, thresholds=None) -> ThresholdCurve:
    """Sweep confidence cutoffs and average the errors of the kept subjects."""
    p = np.asarray(percentiles, dtype=float)
    e = np.asarray(errors, dtype=float)
    if p.shape != e.shape:
        raise ValueError("percentiles and errors lengths differ")
    if thresholds is None:
        thresholds = np.linspace(0.0, 1.0, 21)
    thresholds = np.asarray(thresholds, dtype=float)
    means = np.empty(thresholds.shape)
    kept = np.empty(thresholds.shape, dtype=np.int64)
    for i, tau in enumerate(thresholds):
        sel = p >= tau
        kept[i] = sel.sum()
        means[i] = e[sel].mean() if kept[i] else np.nan
    return ThresholdCurve(thresholds, means, kept)


@dataclass(frozen=True)
class ConfidenceBins:
    """Mean error below and at/above a percentile cutoff (default halves)."""

    cutoff: float
    low_mean: float
    low_count: int
    high_mean: float
    high_count: int


def confidence_bins(percentiles, errors, cutoff: float = 0.5) -> ConfidenceBins:
    p = np.asarray(percentiles, dtype=float)
    e = np.asarray(errors, dtype=float)
    if p.shape != e.shape:
        raise ValueError("percentiles and errors lengths differ")
    low = p < cutoff
    n_low = int(low.sum())
    n_high = int(p.size - n_low)
    if n_low == 0 or n_high == 0:
        warnings.warn(f"confidence bin at cutoff {cutoff} is empty")
    low_mean = float(e[low].mean()) if n_low else float("nan")
    high_mean = float(e[~low].mean()) if n_high else float("nan")
    return ConfidenceBins(cutoff, low_mean, n_low, high_mean, n_high)


def scott_bandwidth(values) -> float:
    """Rule-of-thumb KDE bandwidth: sample std times n^(-1/5)."""
    x = np.asarray(values, dtype=float)
    if np.unique(x).size < 2:
        raise DegenerateSampleError("need at least 2 distinct values")
    return float(np.std(x, ddof=1) * x.size ** (-1.0 / 5.0))


def error_density(values, grid) -> np.ndarray:
    """Gaussian KDE of per-subject errors on a grid, Scott bandwidth.

    The curve integrates to 1 over the real line; over a grid that covers the
    sample plus a few bandwidths, trapezoidal integration recovers 1 to high
    accuracy.
    """
    x = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    h = scott_bandwidth(x)
    z = (grid[:, None] - x[None, :]) / h
    density = np.exp(-0.5 * z ** 2).sum(axis=1) / (x.size * h * math.sqrt(2.0 * math.pi))
    return density


@dataclass(frozen=True)
class TargetSummary:
    """Cohort-level result for one (order, target) pair."""

    order: int
    target: str
    mean_normalized: float
    spread: float           # two sample standard deviations
    n_subjects: int


@dataclass(frozen=True)
class FoldFailure:
    subject: int
    message: str


@dataclass(frozen=True)
class LooResult:
    """Everything the leave-one-out loop measures.

    ``eae_records`` and ``confidence_records`` map each evaluated order to
    per-subject records; order 0 rows are the uniform-chance reference and
    carry no confidence. ``skipped`` lists (subject, target) pairs whose true
    outcome was missing.
    """

    orders: tuple
    targets: tuple
    summaries: tuple
    eae_records: Mapping
    confidence_records: Mapping
    failures: tuple
    skipped: tuple

    def summary(self, order: int, target: str) -> TargetSummary:
        for s in self.summaries:
            if s.order == order and s.target == target:
                return s
        raise KeyError((order, target))


def _fold_seed(seed: int, subject: int) -> int:
    """Stable per-fold seed, independent of worker scheduling."""
    return int(np.random.SeedSequence([seed, subject]).generate_state(1)[0])


def _evaluate_fold(dataset: Dataset, subject: int, orders, targets, mode: str,
                   config: EmConfig):
    """Train on all-but-one subject, then score the held-out one.

    Per order, one likelihood pass over the cohort's non-target inputs gives
    the held-out row's posterior (normalized only when a truth needs it) and
    confidence, and every other row's training score.

    Returns (subject, {order: {target: (error, normalized)}}, {order: (log_c, pct)},
    skipped target names). Order 0 entries come from the uniform reference.
    """
    train = dataset.drop_subject(subject)
    input_cols = tuple(j for j in dataset.input_columns
                       if dataset.schemas[j].name not in targets)
    errors: dict = {}
    confidence: dict = {}
    skipped = []
    truths = {}
    for name in targets:
        value = dataset.value(subject, dataset.column_index(name))
        if value is MISSING:
            skipped.append(name)
        else:
            truths[name] = value

    chance: dict = {}
    for name, truth in truths.items():
        schema = dataset.schema(name)
        err = prediction_error(schema, chance_prediction(schema), truth)
        chance[name] = (err, normalized_error(schema, err))
    errors[CHANCE_ORDER] = chance

    fold_config = dataclasses.replace(config, seed=_fold_seed(config.seed, subject))
    for order in orders:
        model, _ = fit(train, order, fold_config)
        log_joint = component_log_likelihoods(model, dataset, mode, input_cols)
        order_errors: dict = {}
        if truths:
            posterior = normalize_log_joint(log_joint[subject:subject + 1])[0][0]
            predicted = predict_targets(target_tables(model, truths), posterior)
            for name, truth in truths.items():
                schema = dataset.schema(name)
                err = prediction_error(schema, predicted[name], truth)
                order_errors[name] = (err, normalized_error(schema, err))
        errors[order] = order_errors
        scores = log_sum_exp(log_joint, axis=1)
        log_c = float(scores[subject])
        confidence[order] = (log_c, float(percentile_ranks(log_c, np.delete(scores, subject))))
    return subject, errors, confidence, skipped


def loo_evaluate(dataset: Dataset, orders, targets, mode: str,
                 config: EmConfig = EmConfig(), *, n_workers: int = 1) -> LooResult:
    """Leave-one-out evaluation of every requested order against the references.

    Targets and mode are checked as ``InferenceRequest`` checks them, and the
    cohort is validated before any fold runs: bad cells or a zero-variability
    column raise SchemaViolationError naming the cohort's own rows. Order 0
    (uniform chance) is always reported; order 1 (the prior marginal) is
    added to the requested orders if absent. Folds that fail for any order
    (see _FOLD_ERRORS) are excluded entirely so the per-order averages cover
    identical subjects; the run aborts when more than MAX_FAILURE_FRACTION
    of folds fail. Per-fold seeds depend only on (config.seed, subject), so
    results do not depend on worker count.
    """
    targets = InferenceRequest({}, targets, mode).targets
    for name in targets:
        max_absolute_error(dataset.schema(name))  # rejects continuous targets early
    orders = sorted(set(int(k) for k in orders) | {BASELINE_ORDER})
    if orders[0] < 1:
        raise ValueError("orders must be >= 1")
    if dataset.n_subjects < 3:
        raise ValueError("leave-one-out needs at least 3 subjects")
    violations = validate_dataset(dataset)
    if violations:
        raise SchemaViolationError(violations)

    tasks = [(dataset, s, orders, targets, mode, config) for s in range(dataset.n_subjects)]
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            raw = list(pool.map(_fold_worker, tasks, chunksize=8))
    else:
        raw = [_fold_worker(task) for task in tasks]

    failures = []
    eae_records: dict = {order: [] for order in [CHANCE_ORDER] + orders}
    confidence_records: dict = {order: [] for order in orders}
    skipped = []
    for subject, errors, confidence, extra in raw:
        if errors is None:
            failures.append(FoldFailure(subject, extra))
            continue
        for name in extra:
            skipped.append((subject, name))
        for order, per_target in errors.items():
            for name, (err, norm) in per_target.items():
                eae_records[order].append(EaeRecord(subject, name, err, norm))
        for order, (log_c, pct) in confidence.items():
            confidence_records[order].append(ConfidenceRecord(subject, log_c, pct))

    if len(failures) > MAX_FAILURE_FRACTION * dataset.n_subjects:
        raise TrainingError(
            f"{len(failures)} of {dataset.n_subjects} folds failed training: "
            + "; ".join(f.message for f in failures[:3]))

    summaries = []
    for order in [CHANCE_ORDER] + orders:
        for name in targets:
            norms = np.asarray([r.normalized for r in eae_records[order]
                                if r.target == name])
            if norms.size == 0:
                continue
            spread = 2.0 * float(np.std(norms, ddof=1)) if norms.size > 1 else 0.0
            summaries.append(TargetSummary(order, name, float(norms.mean()),
                                           spread, int(norms.size)))
    return LooResult(tuple([CHANCE_ORDER] + orders), targets, tuple(summaries),
                     eae_records, confidence_records, tuple(failures), tuple(skipped))


def _fold_worker(args):
    """One fold, with _FOLD_ERRORS turned into a failure record; top-level so
    process pools can pickle it."""
    dataset, subject, orders, targets, mode, config = args
    try:
        return _evaluate_fold(dataset, subject, orders, targets, mode, config)
    except _FOLD_ERRORS as err:
        return (subject, None, None, str(err))
