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

import itertools
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .distributions import log_sum_exp
from .inference import FinitePrediction, InferenceRequest, predict_batch
from .model import MixtureModel, _log_joint, evidence_log_likelihoods, row_log_likelihoods
from .schema import (Dataset, SchemaError, SchemaViolationError, VariableKind, VariableSchema,
                     _is_int, _kept_ranges, _no_information, validate_dataset)
from .training import EmConfig, TrainingError, _checked_orders, _fit_many
from .training import fit  # noqa: F401 (re-exported as hetmix.evaluation.fit)

CHANCE_ORDER = 0
BASELINE_ORDER = 1
MAX_FAILURE_FRACTION = 0.1  # loo_evaluate aborts when more folds than this fail
# a fold batch holds _FOLDS_PER_BATCH folds, or more while its EM posteriors, folds x restarts x
# largest order x N cells, fit in _BATCH_CELLS (1 MiB of float64); fewer batches take less CPU. On
# one core of a 2-vCPU x86-64 VM: loo-n120 (86,400 cells) as one batch took a median of 0.275 s of
# reference CPU at a peak of 42.9 MB (perfbench seed 0, 10 runs), and N = 1000 at 5 restarts in
# batches of 8 folds 18.5-21.2 s of CPU, in batches of 48 13.2-16.2 s (2 and 5 runs)
_FOLDS_PER_BATCH = 48
_BATCH_CELLS = 2 ** 17


class DegenerateSampleError(ValueError):
    """A sample has too little variation for the requested statistic."""


def max_absolute_error(schema: VariableSchema) -> float:
    """Worst-case error unit: |domain| - 1 for ordinals, 1 for categoricals."""
    if schema.kind is VariableKind.ORDINAL:
        return float(len(schema.domain) - 1)
    if schema.kind is VariableKind.CATEGORICAL:
        return 1.0
    raise SchemaError(f"{schema.name}: expected-error metrics need an ordinal or categorical "
                      f"target, not a {schema.kind.value} one")


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


def _without_nan(**arrays) -> tuple:
    """The named ``arrays`` as float arrays; ValueError for a NaN, in a pair unequal shapes, or
    more than one axis (a scalar stays one)."""
    checked = tuple(np.asarray(values, dtype=float) for values in arrays.values())
    if nan := next((name for name, x in zip(arrays, checked) if np.isnan(x).any()), None):
        raise ValueError(f"{nan} must not hold NaN")
    if len({x.shape for x in checked}) > 1:
        raise ValueError(f"{' and '.join(arrays)} lengths differ")
    for name, x in zip(arrays, checked):
        if x.ndim > 1:
            raise ValueError(f"{name} must be 1-D, got {x.ndim} axes")
    return checked


def percentile_ranks(scores, training_scores) -> np.ndarray:
    """Fraction of training scores strictly below each score (a scalar score gives a scalar
    fraction; -inf, a zero likelihood, ranks 0). ValueError naming an argument with a NaN."""
    (ref,), (x,) = _without_nan(training_scores=training_scores), _without_nan(scores=scores)
    if ref.size == 0:
        raise ValueError("empty reference scores")
    idx = np.searchsorted(np.sort(ref), x, side="left")
    return idx / ref.size


@dataclass(frozen=True)
class ThresholdCurve:
    """Mean error E(tau) over subjects whose confidence percentile >= tau.

    ``kept`` counts the subjects entering each mean; empty selections yield
    NaN. ``improvement`` is E(0) - E(tau), the gain from discarding
    low-confidence subjects; empty for an empty sweep.
    """

    thresholds: np.ndarray
    mean_error: np.ndarray
    kept: np.ndarray

    @property
    def improvement(self) -> np.ndarray:
        return self.mean_error[:1] - self.mean_error


def threshold_curve(percentiles, errors, thresholds=None) -> ThresholdCurve:
    """Mean error of the subjects kept at each cutoff; ValueError naming an argument with a NaN."""
    p, e = _without_nan(percentiles=percentiles, errors=errors)
    (thresholds,) = _without_nan(thresholds=np.linspace(0.0, 1.0, 21) if thresholds is None
                                 else thresholds)
    if thresholds.ndim != 1:
        raise ValueError(f"thresholds must be 1-D, got {thresholds.ndim} axes")
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
    """Split at ``cutoff``; ValueError naming an argument with a NaN."""
    p, e = _without_nan(percentiles=percentiles, errors=errors)
    if isinstance(cutoff, bool) or not (isinstance(cutoff, numbers.Real) and 0 <= cutoff <= 1):
        raise ValueError(f"cutoff must be a real number in [0, 1], got {cutoff!r}")
    low = p < cutoff
    n_low = int(low.sum())
    n_high = int(p.size - n_low)
    if n_low == 0 or n_high == 0:
        warnings.warn(f"confidence bin at cutoff {cutoff} is empty")
    low_mean = float(e[low].mean()) if n_low else float("nan")
    high_mean = float(e[~low].mean()) if n_high else float("nan")
    return ConfidenceBins(cutoff, low_mean, n_low, high_mean, n_high)


def scott_bandwidth(values) -> float:
    """Rule-of-thumb KDE bandwidth: sample std times n^(-1/5). ValueError naming ``values`` if
    it holds a NaN, or two distinct values and an infinity (whose std is NaN)."""
    (x,) = _without_nan(values=values)
    if x.size < 2 or x.min() == x.max():  # np.unique loads numpy.ma
        raise DegenerateSampleError("need at least 2 distinct values")
    if np.isinf(x).any():
        raise ValueError("values must be finite")
    return float(np.std(x, ddof=1) * x.size ** (-1.0 / 5.0))


def error_density(values, grid) -> np.ndarray:
    """Gaussian KDE of per-subject errors on a grid, Scott bandwidth.

    The curve integrates to 1 over the real line; over a grid that covers the
    sample plus a few bandwidths, trapezoidal integration recovers 1 to high
    accuracy. ValueError naming an argument with a NaN, or ``values`` with an infinity.
    """
    (x,), (grid,) = _without_nan(values=values), _without_nan(grid=grid)
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


@dataclass(frozen=True, eq=False)
class LooResult:
    """Everything the leave-one-out loop measures, over the ``subjects`` whose folds did not fail:
    (O, S, T) ``errors`` over ``orders`` x ``subjects`` x ``targets`` and the same normalized
    (``normalized_error``, taken once over all folds), NaN where the truth is missing (order 0
    is uniform chance), and (O, S) ``log_scores`` and ``percentiles``, NaN at order 0."""

    orders: tuple
    targets: tuple
    summaries: tuple
    failures: tuple
    subjects: np.ndarray
    errors: np.ndarray
    normalized: np.ndarray
    log_scores: np.ndarray
    percentiles: np.ndarray

    def summary(self, order: int, target: str) -> TargetSummary:
        for s in self.summaries:
            if s.order == order and s.target == target:
                return s
        raise KeyError((order, target))


def _fold_seed(seed: int, subject: int) -> int:
    """Stable per-fold seed, independent of worker scheduling."""
    return int(np.random.SeedSequence([seed, subject]).generate_state(1)[0])


def _errors(dataset: Dataset, subjects, probabilities: Mapping) -> np.ndarray:
    """The (F, T) errors over the F ``subjects`` and the targets of their (F, K) predicted
    ``probabilities``, NaN where the truth is missing: the bits that ``prediction_error``
    gives (an ordinal's error is one (1, K) @ (K, 1) product per subject, which runs the
    routine ``np.dot`` runs)."""
    error = np.full((len(subjects), len(probabilities)), np.nan)
    for t, (name, probs) in enumerate(probabilities.items()):
        schema = dataset.schema(name)
        truths = dataset._values[subjects, dataset.column_index(name)]
        known = np.flatnonzero(~np.isnan(truths))
        codes = truths[known].astype(np.int64)
        if schema.kind is VariableKind.ORDINAL:
            levels = np.asarray(schema.domain, dtype=float)
            distances = np.abs(levels - levels[codes, None])[..., None]
            error[known, t] = np.matmul(probs[known][:, None], distances)[:, 0, 0]
        else:
            error[known, t] = 1.0 - probs[known, codes]
    return error


def _evaluate_folds(dataset: Dataset, subjects, orders, targets, mode: str,
                    config: EmConfig) -> tuple:
    """Leave out each of ``subjects`` in turn from ``dataset`` (its cells checked): a fold keeps
    every row but its subject's, an (F, N) mask, and is checked and trained on the cohort with
    that row masked. One ``_kept_ranges`` pass gives every fold's column scales and, through
    ``_no_information`` (the check ``validate_dataset`` makes), its schema check. Per order, the
    restarts of all folds, each fold's from its ``_fold_seed``, run as one batched EM, whose
    one stack of fold models one likelihood pass over the non-target inputs scores: each
    held-out posterior and confidence, and every training row's score; one ``predict_batch``
    on the stack's tables then gives every fold's predictions, and array operations its
    errors and percentile.

    Returns ({subject: message}, errors, log_scores, percentiles): (O, F, T) errors
    and (O, F) confidences over (0, *orders) x ``subjects`` x ``targets``, order 0 from the
    uniform reference, NaN where the truth is missing, the fold did not get that far, or (for a
    confidence) at order 0. A fold fails at its first failure: its training rows lose a column's
    variability (the SchemaViolationError text ``validate_dataset`` gives), every restart of an
    order fails, or the held-out evidence has zero likelihood while some truth is observed (with
    none, the fold keeps its -inf score)."""
    n, subjects = dataset.n_subjects, list(subjects)
    input_cols = tuple(j for j in dataset.input_columns if dataset.schemas[j].name not in targets)
    kept = np.arange(n) != np.array(subjects)[:, None]
    ranges = _kept_ranges(dataset, kept)
    failed = {s: str(SchemaViolationError(violations)) for s, violations
              in zip(subjects, _no_information(dataset, ranges, kept)) if violations}
    chance = {name: np.broadcast_to(p := chance_prediction(dataset.schema(name)).probabilities,
                                    (len(subjects), p.size)) for name in targets}
    errors = np.full((1 + len(orders), len(subjects), len(targets)), np.nan)
    log_scores, percentiles = np.full((2, 1 + len(orders), len(subjects)), np.nan)
    errors[CHANCE_ORDER] = _errors(dataset, subjects, chance)
    observed = ~np.isnan(errors[CHANCE_ORDER]).all(axis=1)  # some truth observed
    live = [f for f, s in enumerate(subjects) if s not in failed]
    seeds = [_fold_seed(config.seed, subjects[f]) for f in live]
    fitted = _fit_many(dataset, kept[live], ranges[3][live], seeds, orders, config) if live else ()
    for o, (order, (params, fits)) in enumerate(zip(orders, fitted), 1):
        trained = [f for f, fit in zip(live, fits) if not isinstance(fit, TrainingError)]
        # a fold keeps its first failure
        failed = {subjects[f]: str(fit) for f, fit in zip(live, fits) if f not in trained} | failed
        if not (use := [i for i, f in enumerate(trained) if subjects[f] not in failed]):
            break
        stacked = MixtureModel._from_fits([a[use] for a in params], dataset.schemas)
        rows = np.array(trained)[use]
        held, folds = np.array(subjects)[rows], np.arange(rows.size)
        log_joint = _log_joint(stacked, dataset, mode, input_cols).reshape(-1, order, n)
        scores = log_sum_exp(log_joint, axis=1)
        tables = {name: (dataset.schema(name), stacked._mass_table(dataset.column_index(name))
                         .reshape(len(held), order, -1)) for name in targets}
        predicted, zero = predict_batch(tables, log_joint[folds, :, held])
        log_scores[o, rows] = log_c = scores[folds, held]
        # a score's own row is not below it: the count over the other N - 1, as percentile_ranks
        percentiles[o, rows] = (scores < log_c[:, None]).sum(axis=1) / (n - 1)
        good = np.array([f not in zero for f in range(len(rows))])
        errors[o, rows[good]] = _errors(dataset, held[good], predicted.probabilities)
        failed.update((subjects[f], f"held-out subject {subjects[f]} has zero likelihood under "
                       "every component") for f in rows[~good].tolist() if observed[f])
    return failed, errors, log_scores, percentiles


def loo_evaluate(dataset: Dataset, orders, targets, mode: str,
                 config: EmConfig = EmConfig(), *, n_workers: int = 1) -> LooResult:
    """Leave-one-out evaluation of every requested order against the references.

    Targets and mode are checked as ``InferenceRequest`` checks them, and the
    cohort is validated before any fold runs: bad cells or a zero-variability
    column raise SchemaViolationError naming the cohort's own rows. Order 0
    (uniform chance) is always reported; order 1 (the prior marginal) is
    added to the requested orders if absent. Folds that fail for any order
    (see _evaluate_folds) are excluded entirely so the per-order averages cover
    identical subjects; the run aborts when more than MAX_FAILURE_FRACTION of folds
    fail. An order may not exceed N - 1, the subjects a fold trains on. ``n_workers``
    must be an integer >= 1 (ValueError otherwise, bools included); it is capped at the
    CPUs this process may use, with a warning. A batch holds at most F =
    max(_FOLDS_PER_BATCH, _BATCH_CELLS // (restarts * largest order * N)) folds, the
    second the folds whose EM posteriors fit in _BATCH_CELLS cells; the N folds run in k
    contiguous, equal batches per worker, k = ceil(N / (F * n_workers)), a worker's k
    batches one task (one pickle of the cohort). No fold depends on the others of its
    batch, and per-fold seeds depend only on (config.seed, subject), so results do not
    depend on worker count.
    """
    targets = InferenceRequest({}, targets, mode).targets
    # each target's worst-case error; rejects continuous targets early
    worst = np.array([max_absolute_error(dataset.schema(name)) for name in targets])
    if dataset.n_subjects < 3:
        raise ValueError("leave-one-out needs at least 3 subjects")
    orders = _checked_orders(itertools.chain(orders, [BASELINE_ORDER]), dataset.n_subjects - 1)
    if not (_is_int(n_workers) and n_workers >= 1):
        raise ValueError(f"n_workers must be an integer >= 1, got {n_workers!r}")
    violations = validate_dataset(dataset)
    if violations:
        raise SchemaViolationError(violations)

    n, workers = dataset.n_subjects, n_workers
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers > cpus:
        warnings.warn(f"n_workers {workers} capped at the {cpus} CPU(s) this process may use")
        workers = cpus
    per_batch = max(_FOLDS_PER_BATCH, _BATCH_CELLS // (config.restarts * orders[-1] * n))
    k = -(-n // (per_batch * workers))
    batches = [b.tolist() for b in np.array_split(np.arange(n), min(n, k * workers))]
    run = partial(_evaluate_folds, dataset, orders=orders, targets=targets, mode=mode,
                  config=config)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(min(workers, len(batches))) as pool:
            parts = list(pool.map(run, batches, chunksize=k))
    else:
        parts = list(map(run, batches))

    failed = {s: message for part in parts for s, message in part[0].items()}
    failures = tuple(FoldFailure(s, failed[s]) for s in sorted(failed))
    if len(failures) > MAX_FAILURE_FRACTION * n:
        raise TrainingError(f"{len(failures)} of {n} folds failed: "
                            + "; ".join(f.message for f in failures[:3]))
    subjects = np.array([s for s in range(n) if s not in failed], dtype=np.int64)
    errors, log_scores, percentiles = (np.concatenate(arrays, axis=1)[:, subjects]
                                       for arrays in zip(*(p[1:] for p in parts)))
    normalized = 100.0 * errors / worst  # normalized_error's arithmetic

    orders, summaries = (CHANCE_ORDER, *orders), []
    for o, order in enumerate(orders):
        for t, name in enumerate(targets):
            norms = normalized[o, :, t][~np.isnan(normalized[o, :, t])]
            if norms.size == 0:
                continue
            spread = 2.0 * float(np.std(norms, ddof=1)) if norms.size > 1 else 0.0
            summaries.append(TargetSummary(order, name, float(norms.mean()),
                                           spread, int(norms.size)))
    return LooResult(orders, targets, tuple(summaries), failures, subjects, errors, normalized,
                     log_scores, percentiles)
