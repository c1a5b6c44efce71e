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

One routine, ``_factors``, gives every per-variable log factor, for any set
of components: a finite variable gathers columns of its (Z, K + 1) table of log
factors by its codes + 1 (the first column, picked by the missing code -1, holds
the missing factor; the log masses are computed once per model); a continuous
one evaluates its family's density over (Z, N) and writes the missing factor in
place. Scoring (``_log_joint``; ``component_log_likelihoods`` is its (N, Z)
transpose) adds it over the variables for all Z components, component-major, so
every elementwise pass runs along the N subjects; it serves both modes and
single rows (``infer``), for which no statistics are built. EM, E-step
included, is in ``training``, which calls ``_factors`` as its fallback. A
stack of fits, of one order or several, is one model, fit-major (``_from_blocks``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from .distributions import (_BLOCK_FIELDS, _LOG_PDF, _block_of, _cells_of,
                            _check_params, _log_mass_table, family_for, log_sum_exp)
from .schema import (Dataset, SchemaError, SchemaViolationError, VariableKind, Violation,
                     _Variables, _column_indices, _encode_plain, _is_int, _name_index)

MODEL_MISSING = "model_missing"
IGNORE_MISSING = "ignore_missing"
MISSINGNESS_MODES = (MODEL_MISSING, IGNORE_MISSING)


class ZeroLikelihoodError(ValueError):
    """Every component assigns zero likelihood to the given observations."""


def check_mode(mode: str) -> str:
    if mode not in MISSINGNESS_MODES:
        raise ValueError(f"mode must be one of {MISSINGNESS_MODES}, got {mode!r}")
    return mode


class MixtureModel(_Variables):
    """Frozen parameter bundle: weights (Z,), one parameter block per variable,
    missing probs (Z, V), schemas.

    Built from a Z x V grid of cells (``params[z][v]``), it packs the grid
    once; EM builds it from blocks (``_from_blocks``). Either way every
    parameter is checked, and ``params``, the grid, is built on first access.
    """

    def __init__(self, weights, params, missing_probs, schemas):
        schemas = tuple(schemas)
        params = tuple(tuple(row) for row in params)
        if _n_weights(weights) != len(params) or any(len(r) != len(schemas) for r in params):
            raise ValueError(f"params must hold one row of {len(schemas)} cells per weight")
        blocks = tuple(_block_of(s, [row[v] for row in params]) for v, s in enumerate(schemas))
        packed = MixtureModel._from_blocks(weights, blocks, missing_probs, schemas)
        self.__dict__.update(packed.__dict__, _params=params)

    @classmethod
    def _from_blocks(cls, weights, blocks, missing_probs, schemas, groups=None) -> "MixtureModel":
        """A checked model whose variable v has the parameter block ``blocks[v]``
        (its arrays are made read-only); finite variables' log-mass tables are
        computed here, once. ``groups`` of (F, Z) sizes stack F fits of Z components
        per group, fit-major, whose weights sum to 1 per fit (see ``_fits``)."""
        schemas = tuple(schemas)
        n_comp, n_vars = _n_weights(weights), len(schemas)
        if np.shape(missing_probs) != (n_comp, n_vars):
            raise ValueError(f"missing_probs must have shape ({n_comp}, {n_vars})")
        weights, missing = _check_params({"weights": weights, "missing_probs": missing_probs}, 1)
        sizes = [z for n_fits, z in groups or ((1, n_comp),) for _ in range(n_fits)]
        if not (abs(np.add.reduceat(weights, np.cumsum([0, *sizes[:-1]])) - 1.0) <= 1e-9).all():
            raise ValueError("weights must sum to 1")
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
            _params=None, _name_to_column=_name_index(schemas))
        return model

    def _fits(self, groups=None) -> list:
        """Per (F, Z) group of a stack (``_from_blocks``; None is one fit), (F, Z, ...) views
        of its weights, missing probabilities and block fields (``_from_fits``' layout)."""
        arrays = (self.weights, self.missing_probs, *(a for block in self._blocks for a in block))
        out, first = [], 0
        for n_fits, n_comp in groups or ((1, self.n_components),):
            rows = slice(first, first := first + n_fits * n_comp)
            out.append(tuple(a[rows].reshape(n_fits, n_comp, *a.shape[1:]) for a in arrays))
        return out

    @classmethod
    def _from_fits(cls, arrays, schemas) -> "MixtureModel":
        """The checked stack (``_from_blocks``) of the F fits of one order whose
        (F, Z, ...) ``arrays`` are laid out as ``_fits`` gives them."""
        weights, missing_probs, *fields = (a.reshape(-1, *a.shape[2:]) for a in arrays)
        fields = iter(fields)
        blocks = [tuple(next(fields) for _ in _BLOCK_FIELDS[s.kind]) for s in schemas]
        return cls._from_blocks(weights, blocks, missing_probs, schemas, [arrays[0].shape])

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


def _n_weights(weights) -> int:
    """The length of ``weights``; ValueError unless it is a non-empty vector."""
    if np.ndim(weights) != 1 or not len(weights):
        raise ValueError("weights must be a non-empty vector")
    return len(weights)


def parameter_count(model: MixtureModel) -> int:
    """Free parameters: (Z - 1) mixture weights, Z*V missing probs, family params."""
    return _parameter_count(model.schemas, model.n_components)


def _parameter_count(schemas, order: int) -> int:
    """``parameter_count`` of every model of ``order`` components over ``schemas``: one
    per block field of each variable, but a categorical row of K probabilities has K - 1."""
    per_component = sum(len(s.domain) - 1 if s.kind is VariableKind.CATEGORICAL
                        else len(_BLOCK_FIELDS[s.kind]) for s in schemas)
    return (order - 1) + order * (len(schemas) + per_component)


def _log_joint(model: MixtureModel, dataset: Dataset, mode: str,
               columns: Sequence[int] | None = None) -> np.ndarray:
    """(Z, N) matrix of log w_z plus the per-variable log factors, as
    ``component_log_likelihoods`` defines them, component-major."""
    check_mode(mode)
    if tuple(dataset.schemas) != model.schemas:
        raise SchemaError("dataset schemas do not match the model's schemas")
    q = model.missing_probs[:, :, None]
    with np.errstate(divide="ignore"):
        missed, kept = (np.log(q), np.log1p(-q)) if mode == MODEL_MISSING else (np.zeros_like(q),) * 2
        out = np.repeat(np.log(model.weights)[:, None], dataset.n_subjects, axis=1)
        for v in _column_indices(columns, model.n_variables):
            out += _factors(model, dataset, v, slice(None), missed[:, v], kept[:, v])
    return out


def _factors(model: MixtureModel, dataset: Dataset, v: int, rows, missed, kept) -> np.ndarray:
    """(len(rows), N) log factors of column v under the components ``rows``: ``kept``
    plus the log mass or density where observed, ``missed`` where missing (both
    (len(rows), 1)). A finite column gathers its table by code + 1, missing first."""
    if model.schemas[v].kind.is_finite:
        table = np.column_stack([missed, kept + model._log_masses[v][rows]])
        return table.take(dataset.column_codes(v) + 1, axis=1)
    x = dataset.column_numeric(v)  # no bad cell, so NaN where missing
    factors = _LOG_PDF[model.schemas[v].kind](x[None], *(a[rows, None] for a in model._blocks[v]))
    factors += kept
    np.copyto(factors, missed, where=np.isnan(x)[None])
    return factors


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
    return log_sum_exp(_log_joint(model, dataset, mode, columns), axis=0)


def _record_log_joint(model: MixtureModel, columns: Sequence[int], cells: Sequence, mode: str,
                      row) -> np.ndarray:
    """(Z,) log joint of one record whose ``columns`` hold ``cells`` (MISSING allowed): row 0
    of ``component_log_likelihoods`` of its one-subject Dataset over ``columns``. A wrong cell
    count or a bad cell raises SchemaViolationError, each violation carrying ``row`` as its row."""
    cells = tuple(cells)
    if len(cells) != len(columns):
        raise SchemaViolationError([Violation(row, "<row>",
                                              f"{len(cells)} cells for {len(columns)} variables")])
    ds = Dataset(model.schemas, [cells], columns)
    bad = [replace(v, row=row) for j in columns for v in ds.cell_violations[j]]
    if bad:
        raise SchemaViolationError(bad)
    return component_log_likelihoods(model, ds, mode, columns)[0]


def joint_log_likelihood(model: MixtureModel, row: Sequence, mode: str) -> float:
    """Joint log-likelihood of one full row (MISSING cells allowed)."""
    return float(log_sum_exp(_record_log_joint(model, range(model.n_variables), row, mode, 0)))


def latent_posterior(model: MixtureModel, row: Sequence, mode: str) -> np.ndarray:
    """Posterior over components for one full row; ZeroLikelihoodError when the
    row has zero likelihood under every component."""
    comp = _record_log_joint(model, range(model.n_variables), row, mode, 0)
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
    return _record_log_joint(model, columns, evidence.values(), mode, None)


def sample_cohort(model: MixtureModel, n: int, rng) -> tuple[Dataset, np.ndarray]:
    """Draw ``n`` subjects; returns the dataset and the true component labels.

    Cells are dropped to MISSING independently with probability q[z, v]. The
    draw order is fixed (labels, then per variable: missingness, then values
    component by component) so a given seed always yields the same cohort.
    Each variable's draws go to the dataset as one column of plain values
    (``schema._encode_plain``).
    """
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    labels = rng.choice(model.n_components, size=n, p=model.weights)
    counts = np.bincount(labels, minlength=model.n_components)
    order = np.argsort(labels, kind="stable")  # the rows of component 0, then 1, ...
    placed = {}
    for v, cells in enumerate(zip(*model.params)):
        missing = rng.random(n) < model.missing_probs[labels, v]
        draws = np.concatenate([cell.sample(rng, size=c) for cell, c in zip(cells, counts) if c])
        column = np.empty_like(draws)
        column[order] = draws
        placed[v] = [_encode_plain(model.schemas[v], missing, column[~missing].tolist())]
    return Dataset._from_columns(model.schemas, n, placed), labels
