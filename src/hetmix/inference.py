"""Conditional outcome inference: posterior-weighted mixtures over targets.

Given partial evidence x_in, the predictive distribution of a target is
sum_z Pr[Z = z | x_in] * f(. ; params[z][target]): a finite probability
vector for ordinal/categorical targets, a weighted mixture of the component
densities for continuous ones. Evidence enters through the chosen
missingness mode; variables absent from the evidence mapping contribute
nothing, while an explicit MISSING engages the missingness factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .distributions import log_sum_exp
from .model import (MixtureModel, ZeroLikelihoodError, check_mode,
                    component_log_likelihoods)
from .schema import Dataset, SchemaViolationError


@dataclass(frozen=True)
class InferenceRequest:
    """Evidence mapping, target names, and the missingness mode."""

    evidence: Mapping
    targets: tuple
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "evidence", dict(self.evidence))
        targets = (self.targets,) if isinstance(self.targets, str) else tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        check_mode(self.mode)
        if not self.targets:
            raise ValueError("at least one target is required")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate targets")
        overlap = set(self.targets) & set(self.evidence)
        if overlap:
            raise ValueError(f"targets also appear in evidence: {sorted(overlap)}")


@dataclass(frozen=True)
class FinitePrediction:
    """Probability vector over the finite domain of one target."""

    domain: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "domain", tuple(self.domain))

    def probability_of(self, value) -> float:
        try:
            return float(self.probabilities[self.domain.index(value)])
        except ValueError:
            raise ValueError(f"{value!r} not in domain {self.domain}") from None


@dataclass(frozen=True)
class MixturePrediction:
    """Posterior-weighted mixture of component densities for a continuous target."""

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", tuple(self.components))

    def log_density(self, x):
        stack = np.stack([c.log_density(np.asarray(x, dtype=float)) for c in self.components])
        with np.errstate(divide="ignore"):  # a zero weight adds -inf
            log_weights = np.log(self.weights)
        out = log_sum_exp(stack + log_weights.reshape((-1,) + (1,) * (stack.ndim - 1)), axis=0)
        return float(out) if np.ndim(x) == 0 else out

    @property
    def expectation(self) -> float:
        return float(np.dot(self.weights, [c.expectation for c in self.components]))


@dataclass(frozen=True)
class PredictiveDistribution:
    """Per-target predictions plus the component posterior they share."""

    targets: Mapping
    posterior: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "targets", dict(self.targets))
        post = np.asarray(self.posterior, dtype=float)
        post.setflags(write=False)
        object.__setattr__(self, "posterior", post)

    def __getitem__(self, name):
        return self.targets[name]


class Predictions(NamedTuple):
    """One row per record: the targets' ``target_tables``, (M, Z) posteriors, each finite
    target's (M, K) probabilities, and per target (M,) points: a finite target's argmax
    (a domain index, the first on ties) or a continuous target's expectation."""

    tables: dict
    posteriors: np.ndarray
    probabilities: dict
    points: dict


def infer(model: MixtureModel, request: InferenceRequest) -> PredictiveDistribution:
    """Predictions for one evidence mapping: ``infer_many`` on one record."""
    columns = [model.column_index(name) for name in request.evidence]
    dataset = Dataset(model.schemas, [tuple(request.evidence.values())], columns)
    predicted, errors = infer_many(model, dataset, columns, request.targets, request.mode)
    if errors:
        raise errors[0]
    post = predicted.posteriors[0]
    return PredictiveDistribution(
        {name: FinitePrediction(schema.domain, predicted.probabilities[name][0])
         if schema.kind.is_finite else MixturePrediction(post, table)
         for name, (schema, table) in predicted.tables.items()}, post)


def infer_many(model: MixtureModel, dataset: Dataset, columns: Sequence[int],
               targets, mode: str) -> tuple:
    """Predict the targets of every record of ``dataset`` from its ``columns``.

    Checks targets and mode by an ``InferenceRequest`` and makes one
    likelihood pass over the records without bad cells. Returns the
    ``Predictions`` of the records that did not fail, in record order, and
    {record: error} for those that did: SchemaViolationError (bad cells in
    ``columns`` order, row None) or ZeroLikelihoodError."""
    names = dict.fromkeys(dataset.schemas[j].name for j in columns)
    tables = target_tables(model, InferenceRequest(names, targets, mode).targets)
    bad: dict = {}
    for j in columns:
        for v in dataset.cell_violations[j]:
            bad.setdefault(v.row, []).append(replace(v, row=None))
    good = [i for i in range(dataset.n_subjects) if i not in bad]
    clean = dataset.subset(good) if bad and good else dataset
    log_joint = (component_log_likelihoods(model, clean, mode, columns) if good
                 else np.empty((0, model.n_components)))
    predicted, zero = predict_batch(tables, log_joint)
    errors = {i: SchemaViolationError(v) for i, v in bad.items()}
    errors.update((good[r], err) for r, err in zero.items())
    return predicted, errors


def predict_batch(tables: dict, log_joint: np.ndarray) -> tuple:
    """``Predictions`` for the rows of an (N, Z) log joint with a finite total, and
    {row: ZeroLikelihoodError} for the others, each with the text ``infer`` gives it. A finite
    target's table is (Z, K), or (N, Z, K) for one model per row (leave-one-out folds). Each row
    is its own (1, Z) @ (Z, K) product, so its values equal ``posterior @ table`` and
    ``np.dot(posterior, expectations)`` to the bit; (N, Z) @ (Z, K) would not."""
    totals = log_sum_exp(log_joint, axis=1)
    good = np.isfinite(totals)
    posteriors = np.exp(log_joint[good] - totals[good, None])
    stacked = posteriors[:, None, :]
    probabilities, points = {}, {}
    for name, (schema, table) in tables.items():
        if schema.kind.is_finite:
            probabilities[name] = np.matmul(stacked, table if table.ndim == 2 else table[good])[:, 0]
            points[name] = np.argmax(probabilities[name], axis=1)
        else:
            points[name] = np.matmul(stacked, [c.expectation for c in table])[:, 0]
    zero = {int(r): ZeroLikelihoodError("evidence has zero likelihood under every component")
            for r in np.flatnonzero(~good)}
    return Predictions(tables, posteriors, probabilities, points), zero


def target_tables(model: MixtureModel, targets) -> dict:
    """What predicting each target needs from the model, built once per model:
    name -> (schema, table), the table being a finite target's (Z, K) mass
    table or a continuous target's Z component cells."""
    tables = {}
    for name in targets:
        j = model.column_index(name)
        finite = model.schemas[j].kind.is_finite
        tables[name] = (model.schemas[j], model._mass_table(j) if finite else model._cells(j))
    return tables


def point_predict(prediction) -> object:
    """Single value summary: argmax for finite targets (first index on ties,
    so the smallest domain value wins), expectation for continuous ones."""
    if isinstance(prediction, FinitePrediction):
        return prediction.domain[int(np.argmax(prediction.probabilities))]
    if isinstance(prediction, MixturePrediction):
        return prediction.expectation
    raise TypeError(f"not a prediction: {prediction!r}")


def rank_outcomes(prediction: FinitePrediction) -> list:
    """(value, probability) pairs sorted by descending probability, stably."""
    if not isinstance(prediction, FinitePrediction):
        raise TypeError("rank_outcomes applies to finite targets only")
    order = np.argsort(-prediction.probabilities, kind="stable")
    return [(prediction.domain[i], float(prediction.probabilities[i])) for i in order]
