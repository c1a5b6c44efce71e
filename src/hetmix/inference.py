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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .distributions import log_sum_exp
from .model import (MixtureModel, ZeroLikelihoodError, check_mode,
                    component_log_likelihoods, normalize_log_joint)
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


def infer(model: MixtureModel, request: InferenceRequest) -> PredictiveDistribution:
    """Predictions for one evidence mapping: ``infer_many`` on one record."""
    columns = [model.column_index(name) for name in request.evidence]
    dataset = Dataset(model.schemas, [tuple(request.evidence.values())], columns)
    result = next(infer_many(model, dataset, columns, request.targets, request.mode))
    if isinstance(result, Exception):
        raise result
    return result


def infer_many(model: MixtureModel, dataset: Dataset, columns: Sequence[int],
               targets, mode: str) -> Iterator:
    """Predict the targets of every record of ``dataset`` from its ``columns``.

    Before the first result, checks targets and mode by an ``InferenceRequest``
    and makes one likelihood pass over the records without bad cells. Yields
    per record, in order, its ``PredictiveDistribution`` or the error failing
    it: SchemaViolationError (bad cells in ``columns`` order, row None), ZeroLikelihoodError."""
    names = dict.fromkeys(dataset.schemas[j].name for j in columns)
    targets = InferenceRequest(names, targets, mode).targets
    for name in targets:
        model.column_index(name)
    bad: dict = {}
    for j in columns:
        for v in dataset.cell_violations[j]:
            bad.setdefault(v.row, []).append(replace(v, row=None))
    good = [i for i in range(dataset.n_subjects) if i not in bad]
    clean = dataset.subset(good) if bad and good else dataset
    posteriors = iter(_posteriors(component_log_likelihoods(model, clean, mode, columns))
                      if good else ())
    tables = target_tables(model, targets)
    for i in range(dataset.n_subjects):
        result = SchemaViolationError(bad[i]) if i in bad else next(posteriors)
        yield (result if isinstance(result, Exception)
               else PredictiveDistribution(predict_targets(tables, result), result))


def _posteriors(log_comp: np.ndarray):
    """Posterior rows of an (N, Z) log joint; if a row fails, row by row, errors in place."""
    try:
        return normalize_log_joint(log_comp)[0]
    except ZeroLikelihoodError as err:
        return [err] if len(log_comp) == 1 else [_posteriors(row[None])[0] for row in log_comp]


def target_tables(model: MixtureModel, targets) -> dict:
    """What predicting each target needs from the model, built once per model:
    name -> (schema, table), the table being a finite target's (Z, K) mass
    table or a continuous target's Z component cells."""
    tables = {}
    for name in targets:
        j = model.column_index(name)
        cells = tuple(row[j] for row in model.params)
        finite = model.schemas[j].kind.is_finite
        tables[name] = (model.schemas[j], np.stack([c.masses for c in cells]) if finite else cells)
    return tables


def predict_targets(tables: dict, posterior: np.ndarray) -> dict:
    """Per-target predictions under one component posterior, from the
    ``target_tables`` of the model (shared by infer and LOO)."""
    predictions = {}
    for name, (schema, table) in tables.items():
        if schema.kind.is_finite:
            predictions[name] = FinitePrediction(schema.domain, posterior @ table)
        else:
            predictions[name] = MixturePrediction(posterior, table)
    return predictions


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
