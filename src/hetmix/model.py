"""Joint mixture model over heterogeneous columns with explicit missingness.

A model with Z components over V variables carries mixture weights w (Z,),
one parameter block per variable (the arrays of ``distributions``; the
Z x V grid ``params`` of cells is built from them on first access), and
missing-cell probabilities q (Z, V). Under the ``model_missing`` mode the per-variable
factor of component z is q[z, v] for a missing cell and
(1 - q[z, v]) * f(x_v; params[z][v]) for an observed one; under
``ignore_missing`` a missing cell contributes a factor of 1 and an observed
one contributes f(x_v; params[z][v]) alone. All computation is done in the
log domain with log-sum-exp reductions.

Scoring (``_log_joint``) handles each variable for all Z components at once,
from its block, component-major, so every elementwise pass runs along the N
subjects: a finite variable gathers columns of one (Z, K + 1) table of log
factors by its codes + 1 (the first column, picked by the missing code -1,
holds the missing factor; the log masses are computed once per model); a
continuous one evaluates its family's density over (Z, N) and writes the
missing factor in place. ``component_log_likelihoods`` is its (N, Z)
transpose. EM's E-step (``_em_log_joint``) is instead one product of every
variable's natural parameters with the cohort's sufficient statistics, which
the M-step reads too (the finite variables' as a one-hot, a row chunk at a
time), except where a component's terms are large enough for the product to
round visibly, or infinite, which keeps its density or table gather. Scoring
keeps the densities and gathers: it serves both modes and single rows
(``infer``), for which no statistics are built.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from .distributions import (_BLOCK_FIELDS, _LOG_PDF, _block_of, _cells_of,
                            _check_params, _log_mass_table, _natural_params,
                            family_for, log_sum_exp)
from .schema import (Dataset, SchemaError, SchemaViolationError, VariableKind,
                     VariableSchema, Violation)

MODEL_MISSING = "model_missing"
IGNORE_MISSING = "ignore_missing"
MISSINGNESS_MODES = (MODEL_MISSING, IGNORE_MISSING)
# EM's E-step keeps a component's density on a continuous column where the
# terms of its product with the column's statistics could reach this
EM_TERM_LIMIT = 1e3


class ZeroLikelihoodError(ValueError):
    """Every component assigns zero likelihood to the given observations."""


def check_mode(mode: str) -> str:
    if mode not in MISSINGNESS_MODES:
        raise ValueError(f"mode must be one of {MISSINGNESS_MODES}, got {mode!r}")
    return mode


class MixtureModel:
    """Frozen parameter bundle: weights (Z,), one parameter block per variable,
    missing probs (Z, V), schemas.

    Built from a Z x V grid of cells (``params[z][v]``), it packs the grid
    once; EM builds it from blocks (``_from_blocks``). Either way every
    parameter is checked, and ``params``, the grid, is built on first access.
    """

    def __init__(self, weights, params, missing_probs, schemas):
        schemas = tuple(schemas)
        params = tuple(tuple(row) for row in params)
        if np.shape(weights)[:1] != (len(params),) or any(len(r) != len(schemas) for r in params):
            raise ValueError(f"params must hold one row of {len(schemas)} cells per weight")
        blocks = tuple(_block_of(s, [row[v] for row in params]) for v, s in enumerate(schemas))
        packed = MixtureModel._from_blocks(weights, blocks, missing_probs, schemas)
        self.__dict__.update(packed.__dict__, _params=params)

    @classmethod
    def _from_blocks(cls, weights, blocks, missing_probs, schemas, n_fits=1) -> "MixtureModel":
        """A checked model whose variable v has the parameter block ``blocks[v]``
        (its arrays are made read-only); finite variables' log-mass tables are
        computed here, once. ``n_fits`` > 1 stacks fits: one model of n_fits * Z
        components, fit-major, whose weights sum to 1 per fit (see ``_fit_of``)."""
        weights = np.array(weights, dtype=float)
        missing = np.array(missing_probs, dtype=float)
        schemas = tuple(schemas)
        n_comp = weights.shape[0] if weights.ndim == 1 else 0
        n_vars = len(schemas)
        if n_comp < 1:
            raise ValueError("weights must be a non-empty vector")
        sums = weights.reshape(n_fits, -1).sum(axis=1)
        if not ((weights >= 0).all() and (abs(sums - 1.0) <= 1e-9).all()):
            raise ValueError("weights must be nonnegative and sum to 1")
        if missing.shape != (n_comp, n_vars):
            raise ValueError(f"missing_probs must have shape ({n_comp}, {n_vars})")
        if not ((missing >= 0) & (missing <= 1)).all():
            raise ValueError("missing probabilities must lie in [0, 1]")
        by_field = {}
        for schema, block in zip(schemas, blocks, strict=True):
            names = _BLOCK_FIELDS[schema.kind]
            widths = (len(schema.domain),) if schema.kind is VariableKind.CATEGORICAL else ()
            if len(block) != len(names) or any(a.shape != (n_comp, *widths) for a in block):
                raise ValueError(f"variable {schema.name!r}: parameters must be a "
                                 f"{n_comp} x {n_vars} grid")
            for name, a in zip(names, block):
                a.setflags(write=False)
                by_field.setdefault(name, []).append(a)
        # each field checked once over all variables; probability rows per variable
        for probs in by_field.pop("probs", ()):
            _check_params({"probs": probs}, 1)
        _check_params({name: np.concatenate(arrays) for name, arrays in by_field.items()}, 1)
        weights.setflags(write=False)
        missing.setflags(write=False)
        model = cls.__new__(cls)
        model.__dict__.update(
            weights=weights, missing_probs=missing, schemas=schemas, _blocks=tuple(blocks),
            _log_masses=tuple(_log_mass_table(s.kind, s.domain, block) if s.kind.is_finite
                              else None for s, block in zip(schemas, blocks)),
            _params=None, _name_to_column={s.name: j for j, s in enumerate(schemas)})
        return model

    @classmethod
    def _stack(cls, models) -> "MixtureModel":
        """``models`` (one order, one set of schemas) stacked as ``_from_blocks`` stacks fits."""
        blocks = zip(*(m._blocks for m in models))
        return cls._from_blocks(np.concatenate([m.weights for m in models]),
                                [tuple(map(np.concatenate, zip(*block))) for block in blocks],
                                np.concatenate([m.missing_probs for m in models]),
                                models[0].schemas, len(models))

    def _fit_of(self, b: int, n_fits: int) -> "MixtureModel":
        """Fit b of a stack of ``n_fits`` fits: views of its rows, not checked again."""
        if n_fits == 1:
            return self
        z = self.n_components // n_fits
        part = slice(b * z, (b + 1) * z)
        model = MixtureModel.__new__(MixtureModel)
        model.__dict__.update(
            self.__dict__, weights=self.weights[part], missing_probs=self.missing_probs[part],
            _blocks=tuple(tuple(a[part] for a in block) for block in self._blocks), _params=None,
            _log_masses=tuple(None if t is None else t[part] for t in self._log_masses))
        return model

    def __setattr__(self, name, value):
        raise AttributeError(f"MixtureModel is immutable; cannot set {name!r}")

    @property
    def params(self) -> tuple:
        """The Z x V grid of parameter cells: params[z][v] is component z's
        distribution of variable v. Built from the blocks on first access."""
        if self._params is None:
            self.__dict__["_params"] = tuple(zip(*map(self._cells, range(self.n_variables))))
        return self._params

    def _cells(self, column: int) -> tuple:
        """The Z cells of variable ``column``, built from its block alone."""
        schema = self.schemas[column]
        return tuple(_cells_of(family_for(schema.kind), self._blocks[column], schema.domain))

    def _mass_table(self, column: int) -> np.ndarray:
        """(Z, K) masses of a finite variable over its domain."""
        if self.schemas[column].kind is VariableKind.CATEGORICAL:
            return self._blocks[column][0]
        return np.exp(self._log_masses[column])

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
    for schema, block in zip(model.schemas, model._blocks):
        # a categorical row of K probabilities has K - 1 free ones
        categorical = schema.kind is VariableKind.CATEGORICAL
        total += sum(a.size for a in block) - model.n_components * categorical
    return total


def _log_joint(model: MixtureModel, dataset: Dataset, mode: str,
               columns: Sequence[int] | None = None) -> np.ndarray:
    """(Z, N) matrix of log w_z plus the per-variable log factors, as
    ``component_log_likelihoods`` defines them, component-major."""
    check_mode(mode)
    if tuple(dataset.schemas) != model.schemas:
        raise SchemaError("dataset schemas do not match the model's schemas")
    cols = range(model.n_variables) if columns is None else columns
    with np.errstate(divide="ignore"):
        out = np.repeat(np.log(model.weights)[:, None], dataset.n_subjects, axis=1)
        if mode == MODEL_MISSING:
            log_missed = np.log(model.missing_probs)[:, :, None]
            log_kept = np.log1p(-model.missing_probs)[:, :, None]
        for v in cols:
            missed, kept = (log_missed[:, v], log_kept[:, v]) if mode == MODEL_MISSING else (0.0, 0.0)
            kind = model.schemas[v].kind
            if kind.is_finite:  # the missing factor first, picked by the missing code + 1
                table = np.column_stack([np.broadcast_to(missed, (model.n_components, 1)),
                                         kept + model._log_masses[v]])
                out += table.take(dataset.column_codes(v) + 1, axis=1)
            else:
                out += _density_factors(dataset, v, model._blocks[v], missed, kept)
    return out


def _density_factors(dataset: Dataset, v: int, block, missed, kept) -> np.ndarray:
    """(Z, N) log factors of continuous column v under the Z rows of ``block``: its
    density plus ``kept`` where observed, ``missed`` where missing ((Z, 1) or 0.0)."""
    factors = _LOG_PDF[dataset.schemas[v].kind](dataset.column_numeric(v)[None],
                                                *(a[:, None] for a in block))
    factors += kept
    np.copyto(factors, missed, where=dataset.missing_mask(v)[None])
    return factors


def _em_log_joint(model: MixtureModel, dataset: Dataset, n_fits: int) -> np.ndarray:
    """(n_fits, Z, N) ``_log_joint`` under ``model_missing`` of a stack of n_fits
    models: log w plus, per fit (batched or not, the same bits), one product of
    the ``_natural_params`` with ``Dataset._stats``' statistics and one with its
    one-hot, a row chunk at a time. The product rounds to a few eps times its
    terms, bounded by |theta| @ ``reach`` (a statistic or slot that is 0 on
    every row left out). A component keeps its density, or its log-factor
    table gather, on a column where that bound reaches EM_TERM_LIMIT: a
    variance near its floor far from the column's centre (terms ~ (x - centre)^2
    / variance), a Gamma near its shape cap (lgamma(shape) ~ 1e5), a far
    level's log mass, or a -inf (q or zero_prob at 0 or 1, or a mass at 0,
    on a statistic some row has), which the product would make NaN. So it stays
    within ~1e-13 per column of ``_log_joint``."""
    matrix, _, layout, reach = dataset._stats
    theta = np.zeros((model.n_components, reach.size))
    dense = []
    for v, (schema, (cols, unit)) in enumerate(zip(model.schemas, layout)):
        finite = schema.kind.is_finite
        block = _natural_params(schema.kind, model._log_masses[v] if finite else model._blocks[v],
                                unit, model.missing_probs[:, v])
        block[:, reach[cols] == 0] = 0.0  # 0 on every row: adds nothing, -inf or not
        with np.errstate(over="ignore"):
            wide = np.abs(block) @ reach[cols] >= EM_TERM_LIMIT
        theta[~wide, cols] = block[~wide]
        if wide.any():
            dense.append((v, np.flatnonzero(wide), block))
    shape = (n_fits, model.n_components // n_fits, -1)
    out = np.matmul(theta[:, :matrix.shape[1]].reshape(shape), matrix.T)
    slots = theta[:, matrix.shape[1]:].reshape(shape)
    for rows, chunk in dataset._onehot_chunks():
        out[..., rows] += np.matmul(slots, chunk.T)
    flat = out.reshape(model.n_components, -1)
    with np.errstate(divide="ignore"):
        flat += np.log(model.weights)[:, None]
    for v, rows, block in dense:
        if model.schemas[v].kind.is_finite:  # its slots in code order, missing first
            flat[rows] += block[rows].take(dataset.column_codes(v) + 1, axis=1)
            continue
        q = model.missing_probs[rows, v, None]
        with np.errstate(divide="ignore"):
            flat[rows] += _density_factors(dataset, v, [a[rows] for a in model._blocks[v]],
                                           np.log(q), np.log1p(-q))
    return out


def component_log_likelihoods(model: MixtureModel, dataset: Dataset, mode: str,
                              columns: Sequence[int] | None = None) -> np.ndarray:
    """(N, Z) matrix of log w_z plus the per-variable log factors.

    ``columns`` restricts the product to a subset of variables; cells outside
    it contribute nothing regardless of missingness. Row log-sum-exp gives the
    joint log-likelihood of each subject. The result is C-contiguous: NumPy
    sums along memory order, so a reduction over subjects (pairwise along a
    contiguous run, one row after another across rows) gives the same bits
    only for the same layout.
    """
    return np.ascontiguousarray(_log_joint(model, dataset, mode, columns).T)


def row_log_likelihoods(model: MixtureModel, dataset: Dataset, mode: str,
                        columns: Sequence[int] | None = None) -> np.ndarray:
    """Per-subject joint log-likelihood, -inf allowed."""
    comp = component_log_likelihoods(model, dataset, mode, columns)
    return log_sum_exp(comp, axis=1)


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
    """Posterior over components for one full row; ZeroLikelihoodError when the
    row has zero likelihood under every component."""
    ds = _row_dataset(model.schemas, range(model.n_variables), row, 0)
    comp = component_log_likelihoods(model, ds, mode)[0]
    total = log_sum_exp(comp)
    if not np.isfinite(total):
        raise ZeroLikelihoodError("subject 0 has zero likelihood under every component")
    return np.exp(comp - total)


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
    Each variable's draws go to the dataset as one column of plain values
    (``Dataset._from_columns``).
    """
    if n < 1:
        raise ValueError("need n >= 1 subjects")
    labels = rng.choice(model.n_components, size=n, p=model.weights)
    counts = np.bincount(labels, minlength=model.n_components)
    order = np.argsort(labels, kind="stable")  # the rows of component 0, then 1, ...
    placed = {}
    for v, cells in enumerate(zip(*model.params)):
        missing = rng.random(n) < model.missing_probs[labels, v]
        draws = np.concatenate([cell.sample(rng, size=c) for cell, c in zip(cells, counts) if c])
        column = np.empty_like(draws)
        column[order] = draws
        placed[v] = (missing, column[~missing].tolist())
    return Dataset._from_columns(model.schemas, n, placed), labels
