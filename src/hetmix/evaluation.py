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

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .distributions import log_sum_exp
from .inference import FinitePrediction, InferenceRequest, predict_batch
from .model import MixtureModel, _log_joint, evidence_log_likelihoods, row_log_likelihoods
from .schema import (Dataset, SchemaError, SchemaViolationError, VariableKind, VariableSchema,
                     Violation, _kept_ranges, _no_information, validate_dataset)
from .training import EmConfig, TrainingError, _checked_orders, _fit_many
from .training import fit  # noqa: F401 (re-exported as hetmix.evaluation.fit)

CHANCE_ORDER = 0
BASELINE_ORDER = 1
MAX_FAILURE_FRACTION = 0.1  # loo_evaluate aborts when more folds than this fail
# folds trained at once, each fit with (Z, N) arrays over the whole cohort: on loo-n120 (one
# core of a 2-vCPU x86-64 VM, perfbench seed 0, 10 alternating runs each) 48 / 120 folds a batch
# took medians of 0.374 / 0.311 s of reference CPU at a peak of 42.6 / 47.7 MB (+12%), and that
# memory grows with N
_FOLDS_PER_BATCH = 48


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


def _errors(dataset: Dataset, subjects, probabilities: Mapping) -> list:
    """Per subject, {target: (error, normalized error)} over its observed truths, from each
    target's (F, K) predicted ``probabilities`` for the F ``subjects``: the bits that
    ``prediction_error`` and ``normalized_error`` give (an ordinal's error is one (1, K) @
    (K, 1) product per subject, which runs the routine ``np.dot`` runs)."""
    out = [{} for _ in subjects]
    for name, probs in probabilities.items():
        schema = dataset.schema(name)
        truths = dataset._values[subjects, dataset.column_index(name)]
        known = np.flatnonzero(~np.isnan(truths))
        codes = truths[known].astype(np.int64)
        if schema.kind is VariableKind.ORDINAL:
            levels = np.asarray(schema.domain, dtype=float)
            distances = np.abs(levels - levels[codes, None])[..., None]
            error = np.matmul(probs[known][:, None], distances)[:, 0, 0]
        else:
            error = 1.0 - probs[known, codes]
        for i, e, m in zip(known.tolist(), error.tolist(), normalized_error(schema, error).tolist()):
            out[i][name] = (e, m)
    return out


def _evaluate_folds(dataset: Dataset, subjects, orders, targets, mode: str,
                    config: EmConfig) -> list:
    """Leave out each of ``subjects`` in turn from ``dataset`` (its cells checked): a fold is its
    held-out row, checked and trained on the cohort with that row masked, all folds' checks from
    one ``_kept_ranges`` pass (each order's ``_fit_many`` runs another for its scales). Per
    order, the restarts of all folds run as one batched EM, and one likelihood pass over the
    non-target inputs for all fold models gives each held-out posterior and confidence, and
    every training row's score; one ``predict_batch`` on the stacked tables then gives every
    fold's predictions, and array operations its errors and percentile.

    Per fold: (subject, {order: {target: (error, normalized)}}, {order:
    (log_c, pct)}, skipped targets), order 0 from the uniform reference; or
    (subject, None, None, message) at its first failure: its training rows
    lose a column's variability (as ``validate_dataset`` words it), every restart
    of an order fails, or the held-out evidence has zero likelihood."""
    n = dataset.n_subjects
    if len(subjects) > _FOLDS_PER_BATCH:
        return [fold for first in range(0, len(subjects), _FOLDS_PER_BATCH) for fold in
                _evaluate_folds(dataset, subjects[first:first + _FOLDS_PER_BATCH], orders,
                                targets, mode, config)]
    subjects = list(subjects)
    input_cols = tuple(j for j in dataset.input_columns if dataset.schemas[j].name not in targets)
    kept = np.arange(n) != np.array(subjects)[:, None]
    counts, low, high = _kept_ranges(dataset, kept)
    failed = {}
    for f, s in enumerate(subjects):
        if violations := [Violation(None, var.name, why) for j, var in enumerate(dataset.schemas)
                          if not dataset.cell_violations[j] and (why := _no_information(
                              dataset, j, counts[f, j], low[f, j], high[f, j], kept[f]))]:
            failed[s] = str(SchemaViolationError(violations))
    chance = {name: np.broadcast_to(p := chance_prediction(dataset.schema(name)).probabilities,
                                    (len(subjects), p.size)) for name in targets}
    errors = {s: {CHANCE_ORDER: e} for s, e in zip(subjects, _errors(dataset, subjects, chance))}
    confidence = {s: {} for s in subjects}
    for order in orders:
        live = [s for s in subjects if s not in failed]
        fitted = _fit_many(dataset, live, [_fold_seed(config.seed, s) for s in live],
                           order, config) if live else []
        failed.update((s, str(best)) for s, best in zip(live, fitted)
                      if isinstance(best, TrainingError))
        trained = [(s, best[0]) for s, best in zip(live, fitted) if s not in failed]
        if not trained:
            break
        held, folds = [s for s, _ in trained], np.arange(len(trained))
        stacked = MixtureModel._stack([m for _, m in trained])
        log_joint = _log_joint(stacked, dataset, mode, input_cols).reshape(-1, order, n)
        scores = log_sum_exp(log_joint, axis=1)
        tables = {name: (dataset.schema(name), stacked._mass_table(dataset.column_index(name))
                         .reshape(len(held), order, -1)) for name in targets}
        predicted, zero = predict_batch(tables, log_joint[folds, :, held])
        found = iter(_errors(dataset, [s for f, s in enumerate(held) if f not in zero],
                             predicted.probabilities))
        log_c = scores[folds, held]
        # a score's own row is not below it: the count over the other N - 1, as percentile_ranks
        percentiles = (scores < log_c[:, None]).sum(axis=1) / (n - 1)
        for f, s in enumerate(held):
            if f in zero and errors[s][CHANCE_ORDER]:  # some truth observed
                failed[s] = f"held-out subject {s} has zero likelihood under every component"
            else:
                errors[s][order] = {} if f in zero else next(found)
                confidence[s][order] = (float(log_c[f]), float(percentiles[f]))
    return [(s, None, None, failed[s]) if s in failed else
            (s, errors[s], confidence[s], [t for t in targets if t not in errors[s][CHANCE_ORDER]])
            for s in subjects]


def loo_evaluate(dataset: Dataset, orders, targets, mode: str,
                 config: EmConfig = EmConfig(), *, n_workers: int = 1) -> LooResult:
    """Leave-one-out evaluation of every requested order against the references.

    Targets and mode are checked as ``InferenceRequest`` checks them, and the
    cohort is validated before any fold runs: bad cells or a zero-variability
    column raise SchemaViolationError naming the cohort's own rows. Order 0
    (uniform chance) is always reported; order 1 (the prior marginal) is
    added to the requested orders if absent. Folds that fail for any order
    (see _evaluate_folds) are excluded entirely so the per-order averages cover
    identical subjects; the run aborts when more than MAX_FAILURE_FRACTION
    of folds fail. Per-fold seeds depend only on (config.seed, subject), so
    results do not depend on worker count.
    """
    targets = InferenceRequest({}, targets, mode).targets
    for name in targets:
        max_absolute_error(dataset.schema(name))  # rejects continuous targets early
    orders = _checked_orders([*orders, BASELINE_ORDER])
    if dataset.n_subjects < 3:
        raise ValueError("leave-one-out needs at least 3 subjects")
    violations = validate_dataset(dataset)
    if violations:
        raise SchemaViolationError(violations)

    # each worker takes one contiguous range of folds, so the cohort is pickled
    # once per worker; per-fold results do not depend on the other folds
    ranges = [r.tolist() for r in np.array_split(np.arange(dataset.n_subjects), max(n_workers, 1))
              if r.size]
    if len(ranges) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(pool.map(_evaluate_folds, [dataset] * len(ranges), ranges,
                                  *([a] * len(ranges) for a in (orders, targets, mode, config))))
        raw = [fold for part in parts for fold in part]
    else:
        raw = _evaluate_folds(dataset, range(dataset.n_subjects), orders, targets, mode, config)

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
            f"{len(failures)} of {dataset.n_subjects} folds failed: "
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

