"""Variable schemas, cell values, and immutable datasets for mixed-type tables.

A dataset is a subjects-by-variables table. Every cell is either the MISSING
sentinel or a plain Python value whose admissible type depends on the column's
declared kind: real (float), nonnegative (float >= 0), ordinal (int from a
finite ordered domain), or categorical (str from a finite symbol set).
Building a ``Dataset`` checks and encodes each cell once, recording bad cells
(unparseable text included) as violations instead of raising so that
malformed files can still be reported on; ``validate_dataset`` returns the
violations and training and inference refuse invalid data. A ``Dataset``
keeps two arrays: the missing mask and one float per cell, a continuous
cell's value or a finite cell's domain index, NaN where the cell is missing
or bad.

Encoding goes column by column. A column whose observed cells all have the
plain Python types of its kind (float or int for real and nonnegative, int
for ordinal, str for categorical) and are all admissible is encoded by numpy
in a few array operations. Any other column, one with a bad cell, a bool, a
numpy scalar or an int too large for its array, takes the per-cell path:
``VariableSchema.validate_value`` on each cell, which alone words the
violations, so their text and order do not depend on the path taken.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

INPUT = "input"
OUTCOME = "outcome"
ROLES = (INPUT, OUTCOME)
# EM multiplies the finite columns' one-hot this many rows at a time, each
# chunk cast to float64: one chunk, not a float copy of the whole, is its memory
_CHUNK_ROWS = 2048


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
        try:
            object.__setattr__(self, "domain", _checked_domain(self.kind, self.domain))
        except SchemaError as err:
            raise SchemaError(f"{self.name}: {err}") from None

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
                return f"expected a symbol from {self.domain}, got {_shown(value)}"
            if value not in self._domain_index:
                return f"symbol {value!r} not in domain {self.domain}"
            return None
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return f"expected a number, got {value!r}"
        if kind is VariableKind.ORDINAL:
            if not isinstance(value, numbers.Integral):
                return f"expected an integer level, got {value!r}"
            if int(value) not in self._domain_index:
                return f"level {_shown(value)} not in domain {self.domain}"
            return None
        try:
            x = float(value)
        except OverflowError:
            return f"value {_shown(value)} out of float range"
        if not math.isfinite(x):
            return f"non-finite value {value!r}"
        if kind is VariableKind.NONNEGATIVE and x < 0:
            return f"negative value {value!r} for a nonnegative variable"
        return None


def _checked_domain(kind: VariableKind, domain) -> tuple:
    """A finite ``kind``'s ``domain`` as a tuple; SchemaError unless it has at
    least 2 values: integers, not bools, strictly increasing for an ordinal (made
    ints), distinct non-empty strings for a categorical. Schemas and cells
    both check domains here."""
    domain = tuple(domain)
    if len(domain) < 2:
        raise SchemaError("finite domain needs at least 2 values")
    if kind is VariableKind.ORDINAL:
        if not all(map(_is_int, domain)):
            raise SchemaError("ordinal domain must be integers")
        domain = tuple(int(d) for d in domain)
        if any(a >= b for a, b in zip(domain, domain[1:])):
            raise SchemaError("ordinal domain must be strictly increasing")
    elif not all(isinstance(d, str) and d for d in domain):
        raise SchemaError("categorical domain must be non-empty strings")
    elif len(set(domain)) != len(domain):
        raise SchemaError("categorical domain has duplicates")
    return domain


def _is_int(x) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _shown(value) -> str:
    """A cell as violation messages show it: its repr, except an integer too
    large for a float, shown by its size, since its digits can run to
    thousands (and Python refuses to print ints past 4,300 digits)."""
    if isinstance(value, numbers.Integral):
        try:
            float(value)
        except OverflowError:
            sign = "negative " if value < 0 else ""
            return f"<{sign}integer of {int(value).bit_length()} bits>"
    return repr(value)


def _column_indices(columns: Sequence[int] | None, n_variables: int) -> Sequence[int]:
    """``columns`` (None: all); a SchemaError if one repeats or is not in 0..n_variables - 1."""
    columns = range(n_variables) if columns is None else tuple(columns)
    for k, j in enumerate(columns):
        if j in columns[:k]:
            raise SchemaError(f"column index {j} is repeated")
        if not 0 <= j < n_variables:
            raise SchemaError(f"column index {j} is not in 0..{n_variables - 1}")
    return columns


class Dataset:
    """Immutable subjects-by-variables table, checked and encoded once when built.

    Each cell is sorted into one of three outcomes: MISSING (the missing
    mask), inadmissible (a ``Violation`` in ``cell_violations``, one tuple per
    column), or encoded: ``_values`` holds one float per cell, a continuous
    cell's value or a finite cell's domain index, NaN where the cell is
    missing or bad. Only these are kept: ``value`` and ``row`` decode cells,
    ``column_numeric`` and ``column_codes`` derive a column's levels or codes,
    and reading a bad cell, or a view of a column with bad cells, raises
    SchemaViolationError. Subsets slice the arrays, unchecked.
    EM's sufficient statistics (``_stats``, the finite columns' as a one-hot
    that ``_onehot_chunks`` casts a row chunk at a time) and
    ``validate_dataset``'s findings (``_findings``) are built on first use.

    ``columns`` (distinct schema indices) names the variable of each cell of a
    row, in order; the other cells are MISSING. Default: all, in schema order.
    """

    def __init__(self, schemas: Sequence[VariableSchema], rows: Iterable[Sequence],
                 columns: Sequence[int] | None = None):
        schemas = tuple(schemas)
        rows = [tuple(row) for row in rows]
        columns = _column_indices(columns, len(schemas))
        for i, row in enumerate(rows):
            if len(row) != len(columns):
                raise SchemaError(f"row {i} has {len(row)} cells, expected {len(columns)}")
        self._encode(schemas, len(rows),
                     {j: ([v is MISSING for v in cells], [v for v in cells if v is not MISSING])
                      for j, cells in zip(columns, zip(*rows))})

    @classmethod
    def _from_columns(cls, schemas: Sequence[VariableSchema], n_rows: int,
                      placed: dict) -> "Dataset":
        """A Dataset built from columns instead of rows; ``placed`` as in ``_encode``."""
        dataset = cls.__new__(cls)
        dataset._encode(tuple(schemas), n_rows, placed)
        return dataset

    def _encode(self, schemas: tuple, n_rows: int, placed: dict):
        """Check the table's shape, then check and encode each column once.

        ``placed`` maps a schema index to that column's missing mask (one
        bool per row) and its observed cells, in row order; the columns it
        leaves out are all MISSING.
        """
        if not schemas:
            raise SchemaError("a dataset needs at least one variable")
        names = [s.name for s in schemas]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate variable names: {dupes}")
        if not n_rows:
            raise SchemaError("a dataset needs at least one subject")
        shape = (n_rows, len(schemas))
        # column-major, so each column's view is contiguous
        missing = np.ones(shape, dtype=bool, order="F")
        values = np.full(shape, np.nan, order="F")
        violations = []
        for j, schema in enumerate(schemas):
            bad = ()
            if j in placed:
                mask, cells = placed[j]
                missing[:, j] = mask
                rows = np.flatnonzero(~missing[:, j])
                encoded = _encode_plain(schema, cells)
                if encoded is None:
                    rows, encoded, bad = _encode_per_cell(schema, rows, cells)
                values[rows, j] = encoded
            violations.append(bad)
        self._store(schemas, missing, values, tuple(violations))

    def _store(self, schemas, missing, values, violations):
        missing.setflags(write=False)
        values.setflags(write=False)
        self.schemas = schemas
        self.cell_violations = violations
        self._missing = missing
        self._values = values
        self._name_to_column = {s.name: j for j, s in enumerate(schemas)}

    @property
    def n_subjects(self) -> int:
        return self._missing.shape[0]

    @property
    def n_variables(self) -> int:
        return self._missing.shape[1]

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
        """The decoded cell: MISSING, a float, an ordinal level or a symbol.
        A bad cell raises SchemaViolationError with its violation."""
        if self._missing[subject, column]:
            return MISSING
        if math.isnan(x := self._values[subject, column]):
            raise SchemaViolationError(v for v in self.cell_violations[column]
                                       if v.row == subject % self.n_subjects)
        schema = self.schemas[column]
        return schema.domain[int(x)] if schema.kind.is_finite else float(x)

    def row(self, subject: int) -> tuple:
        return tuple(self.value(subject, j) for j in range(self.n_variables))

    @property
    def input_columns(self) -> tuple[int, ...]:
        return tuple(j for j, s in enumerate(self.schemas) if s.role == INPUT)

    @property
    def outcome_columns(self) -> tuple[int, ...]:
        return tuple(j for j, s in enumerate(self.schemas) if s.role == OUTCOME)

    def missing_mask(self, column: int) -> np.ndarray:
        """Boolean vector, True where the cell is MISSING."""
        return self._missing[:, column]

    def column_numeric(self, column: int) -> np.ndarray:
        """Float vector of a numeric column (an ordinal's levels), NaN where missing."""
        schema = self.schemas[column]
        if schema.kind is VariableKind.CATEGORICAL:
            raise SchemaError(f"{schema.name}: categorical column has no numeric view")
        if schema.kind.is_continuous:
            return self._encoded(column)
        levels = np.append(np.asarray(schema.domain, dtype=float), np.nan)  # -1 picks NaN
        levels = levels[self.column_codes(column)]
        levels.setflags(write=False)
        return levels

    def column_codes(self, column: int) -> np.ndarray:
        """Int vector of domain codes for a finite column, -1 where missing."""
        schema = self.schemas[column]
        if schema.kind.is_continuous:
            raise SchemaError(f"{schema.name}: continuous variables have no codes")
        x = self._encoded(column)
        codes = np.where(np.isnan(x), -1, x).astype(np.int64)
        codes.setflags(write=False)
        return codes

    def _encoded(self, column: int) -> np.ndarray:
        if self.cell_violations[column]:
            raise SchemaViolationError(self.cell_violations[column])
        return self._values[:, column]

    def column_scale(self, column: int) -> float:
        """Natural scale of a numeric column, used for variance floors.

        Ordinals use the domain span; continuous columns use the observed
        span, falling back to 1.0 when degenerate (``_scales``).
        """
        if self.schemas[column].kind is not VariableKind.ORDINAL:
            self.column_numeric(column)  # refuses a categorical column, or bad cells
        return float(_scales(self)[0, column])

    @cached_property
    def _stats(self) -> tuple:
        """EM's sufficient statistics, built once, read-only: the (N, D)
        ``_stat_rows`` of the continuous columns side by side; the (N, S) uint8
        one-hot of the finite columns' codes, K + 1 slots per column (missing
        first, then the levels); per column (its slice of the D + S columns of
        [statistics | one-hot], its (centre, scale)); and the (D + S,) reach,
        each column's largest magnitude (a slot's: 1 if some row has it, else 0)."""
        widths = [len(s.domain) + 1 if s.kind.is_finite else
                  4 + (s.kind is VariableKind.NONNEGATIVE) for s in self.schemas]
        n_stats = sum(w for s, w in zip(self.schemas, widths) if not s.kind.is_finite)
        matrix = np.zeros((self.n_subjects, n_stats))
        onehot = np.zeros((self.n_subjects, sum(widths) - n_stats), dtype=np.uint8)
        starts, layout = [0, n_stats], []  # the next column of each part
        for v, (schema, width) in enumerate(zip(self.schemas, widths)):
            finite = schema.kind.is_finite
            cols = slice(starts[finite], starts[finite] + width)
            starts[finite] = cols.stop
            if finite:
                slots = cols.start - n_stats + 1 + self.column_codes(v)
                onehot[np.arange(self.n_subjects), slots] = 1
                layout.append((cols, (0.0, 1.0)))
            else:
                layout.append((cols, _stat_rows(schema.kind, self.column_numeric(v),
                                                matrix[:, cols])))
        matrix.setflags(write=False)
        onehot.setflags(write=False)
        reach = np.concatenate([np.maximum(matrix.max(axis=0), -matrix.min(axis=0)),
                                onehot.max(axis=0)])
        return matrix, onehot, tuple(layout), reach

    def _onehot_chunks(self):
        """(rows, their float64 one-hot) for every _CHUNK_ROWS rows of the
        ``_stats`` one-hot, in order: the boundaries depend on N alone. The
        chunks share one buffer, so each holds until the next is drawn."""
        onehot = self._stats[1]
        buffer = np.empty((min(self.n_subjects, _CHUNK_ROWS), onehot.shape[1]))
        for start in range(0, self.n_subjects, _CHUNK_ROWS):
            rows = onehot[start:start + _CHUNK_ROWS]
            chunk = buffer[:len(rows)]
            np.copyto(chunk, rows)
            yield slice(start, start + len(rows)), chunk

    @cached_property
    def _findings(self) -> tuple:
        """``validate_dataset``'s violations, found once: a Dataset never changes."""
        out = []
        for j, schema in enumerate(self.schemas):
            out.extend(self.cell_violations[j])
            out.extend(Violation(None, schema.name, reason)
                       for reason in _column_findings(self, j) if reason is not None)
        return tuple(out)

    def subset(self, subjects) -> "Dataset":
        """Dataset restricted to the given subject indices (order kept)."""
        return self._take(subjects, range(self.n_variables))

    def drop_subject(self, subject: int) -> "Dataset":
        """Every subject but ``subject``, which is indexed as in ``subset``."""
        subject = range(self.n_subjects)[subject]
        keep = [i for i in range(self.n_subjects) if i != subject]
        return self.subset(keep)

    def _take(self, subjects, columns) -> "Dataset":
        """The given subjects and columns, in order, sliced from the encoded
        arrays with no cell checked again; violation rows are renumbered."""
        rows = np.arange(self.n_subjects)[np.asarray(subjects, dtype=np.int64)].tolist()
        if not rows:
            raise SchemaError("a dataset needs at least one subject")
        violations = []
        for j in columns:
            by_row = {v.row: v for v in self.cell_violations[j]}
            violations.append(tuple(replace(by_row[old], row=new)
                                    for new, old in enumerate(rows) if old in by_row)
                              if by_row else ())
        dataset = Dataset.__new__(Dataset)
        # column-major copies, laid out like the arrays __init__ builds
        dataset._store(tuple(self.schemas[j] for j in columns),
                       *(np.asfortranarray(store[np.ix_(rows, columns)])
                         for store in (self._missing, self._values)),
                       tuple(violations))
        return dataset


def _stat_rows(kind: VariableKind, column: np.ndarray, out: np.ndarray) -> tuple:
    """Write into the zeroed (N, 4 or 5) ``out`` the sufficient statistics of
    a continuous column's cells (NaN where missing), 0 where they do not apply:
    missing, then observed, x~, x~^2 (real) or zero, positive, x, log x
    (nonnegative), x~ = (x - centre) / scale. Returns (centre, scale): a real
    column's median and the least power of two > the largest distance from it
    (|x~| < 1, 1.0 for no distance, scaling rounds nothing, a one-pass variance
    loses ~((mean - centre) / sd)^2 ulps, one extreme value hardly moves it), else (0.0, 1.0)."""
    missing = np.isnan(column)
    out[:, 0] = missing
    x = np.where(missing, 0.0, column)
    if kind is VariableKind.NONNEGATIVE:
        out[:, 1] = ~missing & (x == 0)
        out[:, 2] = positive = x > 0
        out[:, 3] = x
        np.log(x, out=out[:, 4], where=positive)
        return 0.0, 1.0
    observed = column[~missing]
    centre = np.median(observed) if observed.size else 0.0
    scale = np.ldexp(1.0, np.frexp(np.abs(observed - centre).max(initial=0.0))[1])
    out[:, 1] = ~missing
    np.divide(x - centre, scale, out=out[:, 2], where=~missing)
    np.square(out[:, 2], out=out[:, 3])
    return float(centre), float(scale)


def _encode_plain(schema: VariableSchema, cells: Sequence):
    """Encode a column's observed cells with numpy: a finite column's domain
    indices, a continuous one's values. None, sending the column to the
    per-cell path, unless every cell has its kind's plain type and is admissible."""
    kind = schema.kind
    types = set(map(type, cells))
    if kind is VariableKind.CATEGORICAL:
        if not types <= {str}:
            return None
        codes = np.fromiter(map(schema._domain_index.get, cells, repeat(-1)),
                            dtype=np.int64, count=len(cells))
        return codes if (codes >= 0).all() else None
    ordinal = kind is VariableKind.ORDINAL
    if not types <= ({int} if ordinal else {int, float}):
        return None
    try:  # an int too large for the array raises OverflowError
        values = np.fromiter(cells, dtype=np.int64 if ordinal else float, count=len(cells))
        if ordinal:
            levels = np.array(schema.domain, dtype=np.int64)
    except OverflowError:
        return None
    if ordinal:
        codes = np.searchsorted(levels, values)
        return codes if (levels[np.minimum(codes, len(levels) - 1)] == values).all() else None
    admissible = np.isfinite(values)
    if kind is VariableKind.NONNEGATIVE:
        admissible &= values >= 0
    return values if admissible.all() else None


def _encode_per_cell(schema: VariableSchema, rows: np.ndarray, cells: Sequence):
    """The admissible rows, their encoded values (as ``_encode_plain``'s) and
    the column's violations, from ``validate_value`` on each observed cell."""
    rows_ok, encoded, bad = [], [], []
    ordinal = schema.kind is VariableKind.ORDINAL
    for i, value in zip(rows.tolist(), cells):
        if (message := schema.validate_value(value)) is not None:
            bad.append(Violation(i, schema.name, message))
        else:
            rows_ok.append(i)
            encoded.append(float(value) if schema.kind.is_continuous
                           else schema._domain_index[int(value) if ordinal else value])
    return rows_ok, encoded, tuple(bad)


@dataclass(frozen=True)
class Violation:
    """One schema violation; ``row`` is None for column-level findings."""

    row: int | None
    column: str
    message: str

    def __str__(self):
        where = f"row {self.row}, " if self.row is not None else ""
        return f"{where}column {self.column!r}: {self.message}"


def _column_findings(dataset: Dataset, column: int) -> tuple:
    """(why the column carries no information (``_no_information``), why EM cannot fit its
    values (``distributions._fit_range_error``)), each None if it does not apply, from one
    slice of the observed values. A column with bad cells has neither: they are reported."""
    if dataset.cell_violations[column]:
        return None, None
    values = dataset._values[~dataset.missing_mask(column), column]
    kind = dataset.schemas[column].kind
    from .distributions import _fit_range_error  # distributions imports this module
    return (_no_information(dataset, column, values.size, values.min(initial=np.inf),
                            values.max(initial=-np.inf)),
            None if kind.is_finite or not values.size else _fit_range_error(kind, values))


def _kept_ranges(dataset: Dataset, kept: np.ndarray) -> tuple:
    """The (F, V) count, min and max of each column's encoded values (its cells
    neither missing nor bad) in the rows each row of the (F, N) mask ``kept``
    keeps, min inf and max -inf where none, one masked reduction per column:
    read by each fold's schema check, and by ``_scales`` once per batched fit."""
    shape = (len(kept), dataset.n_variables)
    counts, low, high = np.empty(shape, dtype=np.int64), np.empty(shape), np.empty(shape)
    for j in range(dataset.n_variables):
        column = dataset._values[:, j]
        observed = kept & ~np.isnan(column)
        counts[:, j] = observed.sum(axis=1)
        low[:, j] = np.where(observed, column, np.inf).min(axis=1)
        high[:, j] = np.where(observed, column, -np.inf).max(axis=1)
    return counts, low, high


def _scales(dataset: Dataset, kept=None) -> np.ndarray:
    """(F, V) column scales of the rows each row of the (F, N) mask ``kept`` keeps
    (default: one row keeping all), from ``_kept_ranges``: an ordinal's domain span,
    1.0 for a categorical, else the span of the kept values, 1.0 if that is 0 or
    none is left. A fit's variance floors and default parameters read them."""
    _, low, high = _kept_ranges(dataset, np.ones((1, dataset.n_subjects), dtype=bool)
                                if kept is None else kept)
    spans = high - low  # -inf where no value is kept
    scales = np.where(spans > 0, spans, 1.0)
    for v, schema in enumerate(dataset.schemas):
        if schema.kind.is_finite:
            ordinal = schema.kind is VariableKind.ORDINAL
            scales[:, v] = schema.domain[-1] - schema.domain[0] if ordinal else 1.0
    return scales


def _no_information(dataset: Dataset, column: int, count, low, high, kept=True) -> str | None:
    """Why ``column`` carries no information in the ``kept`` rows (a mask; default
    all), whose ``count`` observed values run from ``low`` to ``high``: none, or
    all equal (exactly; the message shows the first), as ``validate_dataset`` words it."""
    if not count:
        return "no observed values"
    if low != high:
        return None
    first = np.flatnonzero(~dataset.missing_mask(column) & kept)[0]
    return f"constant column (always {dataset.value(first, column)!r})"


def validate_dataset(dataset: Dataset) -> list[Violation]:
    """All violations in the dataset: bad cells, then per column its zero
    variability and values too large to fit.

    A column has zero variability when every cell is missing or every observed
    value is identical (exact equality, floats included). Such columns carry
    no information and are rejected by training. A real column whose observed
    values span 2**511 or more, or a nonnegative one whose total or largest
    value / SHAPE_MIN (the smallest Gamma shape) is not finite, is too large
    to fit: below these bounds the squared statistics scale and variance floor
    of a real column, and every Gamma mean and scale, are finite. A column
    with any bad cell is neither: its bad cells are its violations. Found once
    per dataset (``Dataset._findings``); each call returns a new list.
    """
    return list(dataset._findings)


def zero_variability_columns(dataset: Dataset) -> list[str]:
    """Names of columns that are always missing or observed-constant."""
    return [schema.name for j, schema in enumerate(dataset.schemas)
            if _column_findings(dataset, j)[0] is not None]


def drop_zero_variability(dataset: Dataset) -> tuple[Dataset, list[str]]:
    """Copy of the dataset without zero-variability columns, plus their names."""
    dropped = set(zero_variability_columns(dataset))
    if not dropped:
        return dataset, []
    keep = [j for j, s in enumerate(dataset.schemas) if s.name not in dropped]
    if not keep:
        raise SchemaViolationError([Violation(None, name, "no observed values or constant")
                                    for name in sorted(dropped)])
    return (dataset._take(range(dataset.n_subjects), keep),
            [s.name for s in dataset.schemas if s.name in dropped])


@dataclass(frozen=True)
class MissingnessProfile:
    """Per-subject missing-cell counts and the 'at least m missing' curve.

    ``subjects_with_at_least[m]`` counts subjects with >= m missing cells,
    for m = 0..V. The curve starts at the cohort size and never increases.
    """

    missing_counts: np.ndarray
    subjects_with_at_least: np.ndarray


def missingness_profile(dataset: Dataset) -> MissingnessProfile:
    counts = dataset._missing.sum(axis=1, dtype=np.int64)
    n_vars = dataset.n_variables
    hist = np.bincount(counts, minlength=n_vars + 1)
    at_least = hist[::-1].cumsum()[::-1].copy()
    counts.setflags(write=False)
    at_least.setflags(write=False)
    return MissingnessProfile(counts, at_least)
