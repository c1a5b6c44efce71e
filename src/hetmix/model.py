"""Joint mixture model over heterogeneous columns with explicit missingness.

A model with Z components over V variables carries mixture weights w (Z,),
per-component per-variable distribution parameters (Z x V), and missing-cell
probabilities q (Z, V). Under the ``model_missing`` mode the per-variable
factor of component z is q[z, v] for a missing cell and
(1 - q[z, v]) * f(x_v; params[z][v]) for an observed one; under
``ignore_missing`` a missing cell contributes a factor of 1 and an observed
one contributes f(x_v; params[z][v]) alone. All computation is done in the
log domain with log-sum-exp reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.special import logsumexp

from .distributions import family_for
from .schema import (MISSING, Dataset, SchemaError, SchemaViolationError,
                     VariableKind, VariableSchema, Violation)

MODEL_MISSING = "model_missing"
IGNORE_MISSING = "ignore_missing"
MISSINGNESS_MODES = (MODEL_MISSING, IGNORE_MISSING)


class ZeroLikelihoodError(ValueError):
    """Every component assigns zero likelihood to the given observations."""


def check_mode(mode: str) -> str:
    if mode not in MISSINGNESS_MODES:
        raise ValueError(f"mode must be one of {MISSINGNESS_MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Frozen parameter bundle: weights, per-cell params, missing probs, schemas."""

    weights: np.ndarray
    params: tuple              # params[z][v] -> distribution for component z, variable v
    missing_probs: np.ndarray  # (Z, V)
    schemas: tuple

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        schemas = tuple(self.schemas)
        params = tuple(tuple(row) for row in self.params)
        missing = np.asarray(self.missing_probs, dtype=float)
        n_comp = weights.shape[0]
        n_vars = len(schemas)
        if weights.ndim != 1 or n_comp < 1:
            raise ValueError("weights must be a non-empty vector")
        if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        if len(params) != n_comp or any(len(row) != n_vars for row in params):
            raise ValueError(f"params must be a {n_comp} x {n_vars} grid")
        if missing.shape != (n_comp, n_vars):
            raise ValueError(f"missing_probs must have shape ({n_comp}, {n_vars})")
        if (missing < 0).any() or (missing > 1).any():
            raise ValueError("missing probabilities must lie in [0, 1]")
        for v, schema in enumerate(schemas):
            family = family_for(schema.kind)
            for z, row in enumerate(params):
                cell = row[v]
                if not isinstance(cell, family):
                    raise ValueError(f"component {z}, variable {schema.name!r}: a "
                                     f"{schema.kind.value} variable needs a "
                                     f"{family.family} block, got {cell!r}")
                if schema.kind.is_finite and cell.domain != schema.domain:
                    raise ValueError(f"component {z}, variable {schema.name!r}: "
                                     f"domain {cell.domain} differs from the "
                                     f"schema's {schema.domain}")
        weights = weights.copy()
        missing = missing.copy()
        weights.setflags(write=False)
        missing.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "missing_probs", missing)
        object.__setattr__(self, "schemas", schemas)
        object.__setattr__(self, "_name_to_column",
                           {s.name: j for j, s in enumerate(schemas)})

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_variables(self) -> int:
        return len(self.schemas)

    def column_index(self, name: str) -> int:
        try:
            return self._name_to_column[name]
        except KeyError:
            raise SchemaError(f"model has no variable named {name!r}") from None

    def schema(self, name: str) -> VariableSchema:
        return self.schemas[self.column_index(name)]


def parameter_count(model: MixtureModel) -> int:
    """Free parameters: (Z - 1) mixture weights, Z*V missing probs, family params."""
    total = (model.n_components - 1) + model.n_components * model.n_variables
    for row in model.params:
        total += sum(p.n_parameters for p in row)
    return total


def _check_same_schemas(model: MixtureModel, dataset: Dataset):
    if tuple(dataset.schemas) != model.schemas:
        raise SchemaError("dataset schemas do not match the model's schemas")


def component_log_likelihoods(model: MixtureModel, dataset: Dataset, mode: str,
                              columns: Sequence[int] | None = None) -> np.ndarray:
    """(N, Z) matrix of log w_z plus the per-variable log factors.

    ``columns`` restricts the product to a subset of variables; cells outside
    it contribute nothing regardless of missingness. Row log-sum-exp gives the
    joint log-likelihood of each subject.
    """
    check_mode(mode)
    _check_same_schemas(model, dataset)
    n_subjects = dataset.n_subjects
    n_comp = model.n_components
    cols = range(model.n_variables) if columns is None else columns
    with np.errstate(divide="ignore"):
        out = np.tile(np.log(model.weights), (n_subjects, 1))
        for v in cols:
            schema = model.schemas[v]
            miss = dataset.missing_mask(v)
            obs = ~miss
            if schema.kind.is_finite:
                observed_codes = dataset.column_codes(v)[obs]
            else:
                observed_values = dataset.column_numeric(v)[obs]
            for z in range(n_comp):
                cell = model.params[z][v]
                if schema.kind.is_finite:
                    obs_log = cell.log_masses[observed_codes]
                else:
                    obs_log = cell.log_density(observed_values)
                if mode == MODEL_MISSING:
                    q = model.missing_probs[z, v]
                    contrib = np.empty(n_subjects)
                    contrib[miss] = np.log(q)
                    contrib[obs] = np.log1p(-q) + obs_log
                else:
                    contrib = np.zeros(n_subjects)
                    contrib[obs] = obs_log
                out[:, z] += contrib
    return out


def row_log_likelihoods(model: MixtureModel, dataset: Dataset, mode: str,
                        columns: Sequence[int] | None = None) -> np.ndarray:
    """Per-subject joint log-likelihood, -inf allowed."""
    comp = component_log_likelihoods(model, dataset, mode, columns)
    return logsumexp(comp, axis=1)


def total_log_likelihood(model: MixtureModel, dataset: Dataset, mode: str) -> float:
    return float(row_log_likelihoods(model, dataset, mode).sum())


def normalize_log_joint(log_joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors (N, Z) and row log-likelihoods (N,) of an (N, Z) log-joint matrix.

    Raises ZeroLikelihoodError when a row has zero likelihood under every
    component, since its posterior is undefined.
    """
    totals = logsumexp(log_joint, axis=1)
    bad = np.flatnonzero(~np.isfinite(totals))
    if bad.size:
        raise ZeroLikelihoodError(
            f"subject {bad[0]} has zero likelihood under every component")
    return np.exp(log_joint - totals[:, None]), totals


def posterior_matrix(model: MixtureModel, dataset: Dataset, mode: str,
                     columns: Sequence[int] | None = None) -> np.ndarray:
    """(N, Z) latent posteriors; rows sum to 1."""
    comp = component_log_likelihoods(model, dataset, mode, columns)
    return normalize_log_joint(comp)[0]


def _row_dataset(schemas, columns: Sequence[int], row: Sequence, violation_row) -> Dataset:
    """One-subject Dataset whose ``columns`` hold the cells of ``row``, MISSING
    elsewhere. A wrong cell count or a bad cell raises SchemaViolationError,
    each violation carrying ``violation_row`` as its row."""
    row = tuple(row)
    if len(row) != len(columns):
        raise SchemaViolationError([Violation(violation_row, "<row>",
                                              f"{len(row)} cells for {len(columns)} variables")])
    ds = Dataset(schemas, [row], columns)
    bad = [replace(v, row=violation_row) for j in columns for v in ds.cell_violations[j]]
    if bad:
        raise SchemaViolationError(bad)
    return ds


def joint_log_likelihood(model: MixtureModel, row: Sequence, mode: str) -> float:
    """Joint log-likelihood of one full row (MISSING cells allowed)."""
    ds = _row_dataset(model.schemas, range(model.n_variables), row, 0)
    return float(row_log_likelihoods(model, ds, mode)[0])


def latent_posterior(model: MixtureModel, row: Sequence, mode: str) -> np.ndarray:
    """Posterior over components for one full row."""
    ds = _row_dataset(model.schemas, range(model.n_variables), row, 0)
    return posterior_matrix(model, ds, mode)[0]


def evidence_log_likelihoods(model: MixtureModel, evidence: Mapping, mode: str) -> np.ndarray:
    """(Z,) vector of log w_z + sum of factors over the evidence variables only.

    ``evidence`` maps variable names to values; a MISSING value engages the
    missingness factor of the chosen mode, while variables absent from the
    mapping contribute nothing at all.
    """
    check_mode(mode)
    columns = [model.column_index(name) for name in evidence]
    ds = _row_dataset(model.schemas, columns, evidence.values(), None)
    return component_log_likelihoods(model, ds, mode, columns)[0]


def sample_cohort(model: MixtureModel, n: int, rng) -> tuple[Dataset, np.ndarray]:
    """Draw ``n`` subjects; returns the dataset and the true component labels.

    Cells are dropped to MISSING independently with probability q[z, v]. The
    draw order is fixed (labels, then per variable: missingness, then values
    component by component) so a given seed always yields the same cohort.
    """
    if n < 1:
        raise ValueError("need n >= 1 subjects")
    labels = rng.choice(model.n_components, size=n, p=model.weights)
    columns = []
    for v, schema in enumerate(model.schemas):
        make_missing = rng.random(n) < model.missing_probs[labels, v]
        column = np.empty(n, dtype=object)
        for z in range(model.n_components):
            rows = np.flatnonzero(labels == z)
            if rows.size == 0:
                continue
            draws = model.params[z][v].sample(rng, size=rows.size)
            if schema.kind is VariableKind.ORDINAL:
                column[rows] = [int(d) for d in draws]
            elif schema.kind is VariableKind.CATEGORICAL:
                column[rows] = [str(d) for d in draws]
            else:
                column[rows] = [float(d) for d in draws]
        column[make_missing] = MISSING
        columns.append(column)
    dataset = Dataset(model.schemas, zip(*columns))
    return dataset, labels
