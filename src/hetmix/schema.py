"""Variable schemas, cell values, and immutable datasets for mixed-type tables.

A dataset is a subjects-by-variables grid. Every cell is either the MISSING
sentinel or a plain Python value whose admissible type depends on the column's
declared kind: real (float), nonnegative (float >= 0), ordinal (int from a
finite ordered domain), or categorical (str from a finite symbol set).
Construction is permissive so that malformed files can still be loaded and
reported on; ``validate_dataset`` produces the violation list and the training
and inference entry points refuse invalid data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

INPUT = "input"
OUTCOME = "outcome"
ROLES = (INPUT, OUTCOME)


class SchemaError(ValueError):
    """A schema definition is internally inconsistent."""


class SchemaViolationError(ValueError):
    """Data does not conform to its declared schemas."""

    def __init__(self, violations: Iterable["Violation"]):
        self.violations = list(violations)
        shown = "; ".join(str(v) for v in self.violations[:5])
        extra = len(self.violations) - 5
        if extra > 0:
            shown += f"; and {extra} more"
        super().__init__(f"{len(self.violations)} schema violation(s): {shown}")


class _MissingType:
    """Singleton sentinel for an unobserved cell."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False


MISSING = _MissingType()


def is_missing(value) -> bool:
    return value is MISSING


class VariableKind(str, Enum):
    """The four supported column types, each tied to one distribution family."""

    REAL = "real"
    NONNEGATIVE = "nonnegative"
    ORDINAL = "ordinal"
    CATEGORICAL = "categorical"

    @property
    def is_finite(self) -> bool:
        """True for kinds with a finite domain (ordinal, categorical)."""
        return self in (VariableKind.ORDINAL, VariableKind.CATEGORICAL)

    @property
    def is_continuous(self) -> bool:
        return not self.is_finite


@dataclass(frozen=True)
class VariableSchema:
    """Name, kind, domain, and role of one column.

    ``domain`` is required for finite kinds: a strictly increasing tuple of
    ints for ordinals, a tuple of distinct non-empty strings for categoricals.
    Continuous kinds must leave it empty. ``role`` tags the variable as model
    input or predicted outcome; it does not restrict which conditionals can be
    formed, only what the evaluation loop predicts by default.
    """

    name: str
    kind: VariableKind
    domain: tuple = ()
    role: str = INPUT

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise SchemaError("variable name must be a non-empty string")
        if not isinstance(self.kind, VariableKind):
            try:
                object.__setattr__(self, "kind", VariableKind(self.kind))
            except ValueError:
                raise SchemaError(f"unknown variable kind {self.kind!r}") from None
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.role not in ROLES:
            raise SchemaError(f"role must be one of {ROLES}, got {self.role!r}")
        if self.kind.is_continuous:
            if self.domain:
                raise SchemaError(f"{self.name}: {self.kind.value} variables take no domain")
            return
        if len(self.domain) < 2:
            raise SchemaError(f"{self.name}: finite domain needs at least 2 values")
        if self.kind is VariableKind.ORDINAL:
            if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) for d in self.domain):
                raise SchemaError(f"{self.name}: ordinal domain must be integers")
            object.__setattr__(self, "domain", tuple(int(d) for d in self.domain))
            if any(a >= b for a, b in zip(self.domain, self.domain[1:])):
                raise SchemaError(f"{self.name}: ordinal domain must be strictly increasing")
        else:
            if not all(isinstance(d, str) and d for d in self.domain):
                raise SchemaError(f"{self.name}: categorical domain must be non-empty strings")
            if len(set(self.domain)) != len(self.domain):
                raise SchemaError(f"{self.name}: categorical domain has duplicates")

    @cached_property
    def _domain_index(self) -> dict:
        return {v: i for i, v in enumerate(self.domain)}

    def validate_value(self, value) -> str | None:
        """Return a violation message for ``value``, or None if admissible."""
        if value is MISSING:
            return None
        kind = self.kind
        if kind is VariableKind.CATEGORICAL:
            if not isinstance(value, str):
                return f"expected a symbol from {self.domain}, got {value!r}"
            if value not in self._domain_index:
                return f"symbol {value!r} not in domain {self.domain}"
            return None
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return f"expected a number, got {value!r}"
        if kind is VariableKind.ORDINAL:
            if not isinstance(value, numbers.Integral):
                return f"expected an integer level, got {value!r}"
            if int(value) not in self._domain_index:
                return f"level {value!r} not in domain {self.domain}"
            return None
        x = float(value)
        if not math.isfinite(x):
            return f"non-finite value {value!r}"
        if kind is VariableKind.NONNEGATIVE and x < 0:
            return f"negative value {value!r} for a nonnegative variable"
        return None

    def code_of(self, value) -> int:
        """Domain index of a finite-kind value."""
        if self.kind.is_continuous:
            raise SchemaError(f"{self.name}: continuous variables have no codes")
        key = int(value) if self.kind is VariableKind.ORDINAL else value
        try:
            return self._domain_index[key]
        except (KeyError, TypeError):
            raise SchemaError(f"{self.name}: {value!r} not in domain") from None


class Dataset:
    """Immutable grid of cells with per-column encodings cached lazily.

    The encodings (missing masks, numeric columns, domain codes) assume the
    data passed validation; encoding an invalid column raises
    SchemaViolationError. Caches are idempotent, so concurrent reads are safe.
    """

    def __init__(self, schemas: Sequence[VariableSchema], rows: Iterable[Sequence]):
        schemas = tuple(schemas)
        if not schemas:
            raise SchemaError("a dataset needs at least one variable")
        names = [s.name for s in schemas]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate variable names: {dupes}")
        rows = list(rows)
        if not rows:
            raise SchemaError("a dataset needs at least one subject")
        n_vars = len(schemas)
        cells = np.empty((len(rows), n_vars), dtype=object)
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n_vars:
                raise SchemaError(f"row {i} has {len(row)} cells, expected {n_vars}")
            for j, value in enumerate(row):
                cells[i, j] = value
        cells.setflags(write=False)
        self.schemas = schemas
        self.cells = cells
        self._name_to_column = {name: j for j, name in enumerate(names)}
        self._masks: dict[int, np.ndarray] = {}
        self._numeric: dict[int, np.ndarray] = {}
        self._codes: dict[int, np.ndarray] = {}

    @property
    def n_subjects(self) -> int:
        return self.cells.shape[0]

    @property
    def n_variables(self) -> int:
        return self.cells.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.schemas)

    def column_index(self, name: str) -> int:
        try:
            return self._name_to_column[name]
        except KeyError:
            raise SchemaError(f"no variable named {name!r}") from None

    def schema(self, column) -> VariableSchema:
        if isinstance(column, str):
            column = self.column_index(column)
        return self.schemas[column]

    def value(self, subject: int, column: int):
        return self.cells[subject, column]

    def row(self, subject: int) -> tuple:
        return tuple(self.cells[subject])

    @property
    def input_columns(self) -> tuple[int, ...]:
        return tuple(j for j, s in enumerate(self.schemas) if s.role == INPUT)

    @property
    def outcome_columns(self) -> tuple[int, ...]:
        return tuple(j for j, s in enumerate(self.schemas) if s.role == OUTCOME)

    def missing_mask(self, column: int) -> np.ndarray:
        """Boolean vector, True where the cell is MISSING."""
        mask = self._masks.get(column)
        if mask is None:
            col = self.cells[:, column]
            mask = np.fromiter((c is MISSING for c in col), dtype=bool, count=len(col))
            mask.setflags(write=False)
            self._masks[column] = mask
        return mask

    def column_numeric(self, column: int) -> np.ndarray:
        """Float vector of a numeric column, NaN where missing."""
        out = self._numeric.get(column)
        if out is None:
            schema = self.schemas[column]
            if schema.kind is VariableKind.CATEGORICAL:
                raise SchemaError(f"{schema.name}: categorical column has no numeric view")
            out = np.full(self.n_subjects, np.nan)
            mask = self.missing_mask(column)
            col = self.cells[:, column]
            try:
                out[~mask] = [float(col[i]) for i in np.flatnonzero(~mask)]
            except (TypeError, ValueError):
                raise SchemaViolationError(_column_violations(self, column)) from None
            out.setflags(write=False)
            self._numeric[column] = out
        return out

    def column_codes(self, column: int) -> np.ndarray:
        """Int vector of domain codes for a finite column, -1 where missing."""
        out = self._codes.get(column)
        if out is None:
            schema = self.schemas[column]
            out = np.full(self.n_subjects, -1, dtype=np.int64)
            mask = self.missing_mask(column)
            col = self.cells[:, column]
            try:
                out[~mask] = [schema.code_of(col[i]) for i in np.flatnonzero(~mask)]
            except SchemaError:
                raise SchemaViolationError(_column_violations(self, column)) from None
            out.setflags(write=False)
            self._codes[column] = out
        return out

    def column_scale(self, column: int) -> float:
        """Natural scale of a numeric column, used for variance floors.

        Ordinals use the domain span; continuous columns use the observed
        span, falling back to 1.0 when degenerate.
        """
        schema = self.schemas[column]
        if schema.kind is VariableKind.ORDINAL:
            return float(schema.domain[-1] - schema.domain[0])
        values = self.column_numeric(column)
        values = values[~np.isnan(values)]
        if values.size == 0:
            return 1.0
        span = float(values.max() - values.min())
        return span if span > 0 else 1.0

    def subset(self, subjects) -> "Dataset":
        """Dataset restricted to the given subject indices (order kept)."""
        idx = np.asarray(subjects, dtype=np.int64)
        return Dataset(self.schemas, [tuple(self.cells[i]) for i in idx])

    def drop_subject(self, subject: int) -> "Dataset":
        keep = [i for i in range(self.n_subjects) if i != subject]
        return self.subset(keep)


@dataclass(frozen=True)
class Violation:
    """One schema violation; ``row`` is None for column-level findings."""

    row: int | None
    column: str
    message: str

    def __str__(self):
        where = f"row {self.row}, " if self.row is not None else ""
        return f"{where}column {self.column!r}: {self.message}"


def _column_violations(dataset: Dataset, column: int) -> list[Violation]:
    schema = dataset.schemas[column]
    out = []
    for i in range(dataset.n_subjects):
        msg = schema.validate_value(dataset.cells[i, column])
        if msg is not None:
            out.append(Violation(i, schema.name, msg))
    return out


def _zero_variability(dataset: Dataset, column: int) -> str | None:
    """Why the column carries no information, or None if it varies."""
    observed = [c for c in dataset.cells[:, column] if c is not MISSING]
    if not observed:
        return "no observed values"
    if all(v == observed[0] for v in observed[1:]):
        return f"constant column (always {observed[0]!r})"
    return None


def validate_dataset(dataset: Dataset) -> list[Violation]:
    """All violations in the dataset: bad cells, then zero-variability columns.

    A column has zero variability when every cell is missing or every observed
    value is identical (exact equality, floats included). Such columns carry
    no information and are rejected by training.
    """
    out = []
    for j, schema in enumerate(dataset.schemas):
        out.extend(_column_violations(dataset, j))
        reason = _zero_variability(dataset, j)
        if reason is not None:
            out.append(Violation(None, schema.name, reason))
    return out


def zero_variability_columns(dataset: Dataset) -> list[str]:
    """Names of columns that are always missing or observed-constant."""
    return [schema.name for j, schema in enumerate(dataset.schemas)
            if _zero_variability(dataset, j) is not None]


def drop_zero_variability(dataset: Dataset) -> tuple[Dataset, list[str]]:
    """Copy of the dataset without zero-variability columns, plus their names."""
    dropped = set(zero_variability_columns(dataset))
    if not dropped:
        return dataset, []
    keep = [j for j, s in enumerate(dataset.schemas) if s.name not in dropped]
    if not keep:
        raise SchemaViolationError([Violation(None, name, "no observed values or constant")
                                    for name in sorted(dropped)])
    schemas = [dataset.schemas[j] for j in keep]
    rows = [tuple(dataset.cells[i, j] for j in keep) for i in range(dataset.n_subjects)]
    return Dataset(schemas, rows), [s.name for s in dataset.schemas if s.name in dropped]


@dataclass(frozen=True)
class MissingnessProfile:
    """Per-subject missing-cell counts and the 'at least m missing' curve.

    ``subjects_with_at_least[m]`` counts subjects with >= m missing cells,
    for m = 0..V. The curve starts at the cohort size and never increases.
    """

    missing_counts: np.ndarray
    subjects_with_at_least: np.ndarray


def missingness_profile(dataset: Dataset) -> MissingnessProfile:
    counts = np.zeros(dataset.n_subjects, dtype=np.int64)
    for j in range(dataset.n_variables):
        counts += dataset.missing_mask(j)
    n_vars = dataset.n_variables
    hist = np.bincount(counts, minlength=n_vars + 1)
    at_least = hist[::-1].cumsum()[::-1].copy()
    counts.setflags(write=False)
    at_least.setflags(write=False)
    return MissingnessProfile(counts, at_least)
