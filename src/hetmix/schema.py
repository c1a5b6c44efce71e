"""Variable schemas, cell values, and immutable datasets for mixed-type tables.

A dataset is a subjects-by-variables table. Every cell is either the MISSING
sentinel or a plain Python value whose admissible type depends on the column's
declared kind: real (float), nonnegative (float >= 0), ordinal (int from a
finite ordered domain), or categorical (str from a finite symbol set).
Building a ``Dataset`` checks and encodes each cell once, recording bad cells
(unparseable text included) as violations instead of raising so that
malformed files can still be reported on; ``validate_dataset`` returns the
violations and training and inference refuse invalid data. A ``Dataset``
keeps one array, laid out for every dataset by ``Dataset._encode``: one float
per cell, a continuous cell's value or a finite cell's domain index, NaN where
the cell is bad (a violation names it) or else MISSING.

Encoding goes column by column, a piece of rows at a time (``_encode_piece``;
the CSV reader makes one piece per chunk of records). Its observed cells are
parsed as their source requires: Python cells of their kind's plain type
(float or int for real and nonnegative, int for ordinal, str for categorical)
by numpy, CSV texts by ``io``. Then one rule (``_admitted``) encodes them in a
few array operations if every one is admissible. Any other piece, one with a
bad cell, a bool, a numpy scalar, an unparseable text or an int too large for
its array, takes the per-cell path: ``VariableSchema.validate_value`` on each
cell, which alone words the violations, so their text and order do not depend
on the path taken.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

INPUT = "input"
OUTCOME = "outcome"
ROLES = (INPUT, OUTCOME)
# the fit-range bounds, which keep EM finite: ordinal levels and span below ORDINAL_LIMIT (the
# squared scale of their d~ < 2**962), a real span below REAL_SPAN_LIMIT (its squared statistics
# scale < 2 * span), and SHAPE_MIN, the M-step's least Gamma shape (a value / it is a scale)
ORDINAL_LIMIT = 2 ** 480
REAL_SPAN_LIMIT = 2.0 ** 511
SHAPE_MIN = 1e-3


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
    ints), the levels and their span below ORDINAL_LIMIT in magnitude, which stay
    distinct as floats; distinct non-empty strings for a categorical.
    Schemas and cells both check domains here."""
    domain = tuple(domain)
    if len(domain) < 2:
        raise SchemaError("finite domain needs at least 2 values")
    if kind is VariableKind.ORDINAL:
        if not all(map(_is_int, domain)):
            raise SchemaError("ordinal domain must be integers")
        domain = tuple(int(d) for d in domain)
        if any(a >= b for a, b in zip(domain, domain[1:])):
            raise SchemaError("ordinal domain must be strictly increasing")
        if max(-domain[0], domain[-1], domain[-1] - domain[0]) >= ORDINAL_LIMIT:
            raise SchemaError("ordinal levels and their span must be below 2**480 in magnitude")
        if len(set(map(float, domain))) < len(domain):  # the model reads the levels as floats
            raise SchemaError("ordinal levels must be distinct floats")
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


def _indices(indices, what: str) -> list:
    """``indices`` as a list; a SchemaError names the first that is not an
    integer (``_is_int``: numpy's are, bools are not) as a ``what`` index."""
    indices = list(indices)
    if bad := [i for i in indices if not _is_int(i)]:
        raise SchemaError(f"{what} index {bad[0]} is not an integer")
    return indices


def _index(index, what: str):
    """``index`` if it is an integer (``_indices``), else a SchemaError naming it."""
    return _indices([index], what)[0]


def _column_indices(columns: Sequence[int] | None, n_variables: int) -> Sequence[int]:
    """``columns`` (None: all); a SchemaError if one is not an integer (``_indices``),
    repeats or is not in 0..n_variables - 1."""
    columns = range(n_variables) if columns is None else _indices(columns, "column")
    for k, j in enumerate(columns):
        if j in columns[:k]:
            raise SchemaError(f"column index {j} is repeated")
        if not 0 <= j < n_variables:
            raise SchemaError(f"column index {j} is not in 0..{n_variables - 1}")
    return columns


def _name_index(schemas: tuple) -> dict:
    """The name -> column map of ``schemas``; SchemaError if a name repeats."""
    names = [s.name for s in schemas]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SchemaError(f"duplicate variable names: {dupes}")
    return {name: j for j, name in enumerate(names)}


class _Variables:
    """Variables found by name: the lookup a Dataset and a MixtureModel share. Each sets
    ``schemas`` and ``_name_to_column`` (``_name_index``) when built."""

    @property
    def n_variables(self) -> int:
        return len(self.schemas)

    def column_index(self, name: str) -> int:
        try:
            return self._name_to_column[name]
        except KeyError:
            raise SchemaError(f"no variable named {name!r}") from None

    def schema(self, column) -> VariableSchema:
        if isinstance(column, str):
            return self.schemas[self.column_index(column)]
        return self.schemas[_index(column, "column")]


class Dataset(_Variables):
    """Immutable subjects-by-variables table, checked and encoded once when built.

    Each cell is sorted into one of three outcomes: inadmissible (a ``Violation``
    in ``cell_violations``, one tuple per column), encoded, or MISSING: the one
    array ``_values`` holds one float per cell, a continuous cell's value or a
    finite cell's domain index, NaN where the cell is bad or else MISSING. Only
    these are kept: ``value`` and ``row`` decode cells, ``missing_mask``,
    ``column_numeric`` and ``column_codes`` derive a column's MISSING cells,
    levels or codes, and reading a bad cell, or a view of a column with bad cells,
    raises SchemaViolationError; an index that is a bool or a float is a
    SchemaError naming it. Subsets lay out each column's slice alike, unchecked.
    EM's sufficient statistics (``_stats``, one float64 matrix) and
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
        self._encode(schemas, len(rows), {
            j: [_encode_plain(schemas[j], np.array([v is MISSING for v in cells], dtype=bool),
                              [v for v in cells if v is not MISSING])]
            for j, cells in zip(columns, zip(*rows))})

    @classmethod
    def _from_columns(cls, schemas: Sequence[VariableSchema], n_rows: int,
                      placed: dict) -> "Dataset":
        """A Dataset from ``_encode``'s column pieces, not rows: read, sampled or sliced."""
        dataset = cls.__new__(cls)
        dataset._encode(tuple(schemas), n_rows, placed)
        return dataset

    def _encode(self, schemas: tuple, n_rows: int, placed: dict):
        """Check the table's shape, then lay out its encoded columns.

        ``placed`` maps a schema index to that column's pieces in row order, each
        an ``_encode_piece`` (values, violations); each column's pieces are
        concatenated once, into one read-only column-major array. The columns it
        leaves out are all MISSING.
        """
        if not schemas:
            raise SchemaError("a dataset needs at least one variable")
        self._name_to_column = _name_index(schemas)
        if not n_rows:
            raise SchemaError("a dataset needs at least one subject")
        shape = (n_rows, len(schemas))
        # column-major, so each column's view is contiguous
        values = np.full(shape, np.nan, order="F")
        violations = [()] * len(schemas)
        for j, pieces in placed.items():
            columns, bad = zip(*pieces)
            np.concatenate(columns, out=values[:, j])
            violations[j] = tuple(chain(*bad))
        values.setflags(write=False)
        self.schemas = schemas
        self.cell_violations = tuple(violations)
        self._values = values

    @property
    def n_subjects(self) -> int:
        return self._values.shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.schemas)

    def value(self, subject: int, column: int):
        """The decoded cell: MISSING, a float, an ordinal level or a symbol.
        A bad cell raises SchemaViolationError with its violation."""
        subject, column = _index(subject, "subject"), _index(column, "column")
        if math.isnan(x := self._values[subject, column]):
            subject %= self.n_subjects
            if bad := [v for v in self.cell_violations[column] if v.row == subject]:
                raise SchemaViolationError(bad)
            return MISSING
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
        """Read-only boolean vector, True where the cell is MISSING: NaN, no violation."""
        column = _index(column, "column")
        mask = np.isnan(self._values[:, column])
        mask[[v.row for v in self.cell_violations[column]]] = False
        mask.setflags(write=False)
        return mask

    def column_numeric(self, column: int) -> np.ndarray:
        """Float vector of a numeric column (an ordinal's levels), NaN where missing."""
        column = _index(column, "column")
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
        column = _index(column, "column")
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

    @cached_property
    def _stats(self) -> tuple:
        """EM's sufficient statistics, built once: the read-only (N, S) float64 matrix
        of every column's side by side, its ``_stat_rows`` (an ordinal's on its levels)
        or, for a categorical, K + 1 one-hot slots (missing first, then the symbols);
        per column (its slice of the S, its (centre, scale)); and the (S,) reach,
        each statistic's largest magnitude (a slot's: 1 if some row has it, else 0)."""
        widths = [len(s.domain) + 1 if s.kind is VariableKind.CATEGORICAL else
                  4 + (s.kind is VariableKind.NONNEGATIVE) for s in self.schemas]
        matrix = np.zeros((self.n_subjects, sum(widths)))
        starts, layout = np.cumsum([0, *widths]).tolist(), []
        for v, schema in enumerate(self.schemas):
            cols = slice(starts[v], starts[v + 1])
            if schema.kind is VariableKind.CATEGORICAL:
                matrix[np.arange(self.n_subjects), cols.start + 1 + self.column_codes(v)] = 1.0
                layout.append((cols, (0.0, 1.0)))
            else:
                layout.append((cols, _stat_rows(schema.kind, self.column_numeric(v),
                                                matrix[:, cols])))
        matrix.setflags(write=False)
        reach = np.maximum(matrix.max(axis=0), -matrix.min(axis=0))
        return matrix, tuple(layout), reach

    @cached_property
    def _findings(self) -> tuple:
        """``validate_dataset``'s violations, found once: a Dataset never changes."""
        ranges = counts, _, high, spans = _kept_ranges(self)
        uninformative, = _no_information(self, ranges)
        out = []
        for j, schema in enumerate(self.schemas):
            out.extend(self.cell_violations[j])
            out.extend(v for v in uninformative if v.column == schema.name)
            if schema.kind.is_finite or not counts[0, j] or self.cell_violations[j]:
                continue
            if schema.kind is VariableKind.REAL:  # its scale is its span, inf on overflow
                if (span := float(spans[0, j])) >= REAL_SPAN_LIMIT:
                    out.append(Violation(None, schema.name,
                                         f"values span {span}, not below 2**511: too wide to fit"))
                continue
            with np.errstate(over="ignore"):
                total = float((x := self._values[:, j])[~np.isnan(x)].sum())
            if not (math.isfinite(total) and math.isfinite(float(high[0, j]) / SHAPE_MIN)):
                out.append(Violation(None, schema.name, "values too large to fit: their total or "
                                     f"largest value / {SHAPE_MIN:g} is not finite"))
        return tuple(out)

    def subset(self, subjects) -> "Dataset":
        """Dataset restricted to the given subject indices (order kept)."""
        return self._take(subjects, range(self.n_variables))

    def drop_subject(self, subject: int) -> "Dataset":
        """Every subject but ``subject``, which is indexed as in ``subset``."""
        subject = range(self.n_subjects)[_index(subject, "subject")]
        keep = [i for i in range(self.n_subjects) if i != subject]
        return self.subset(keep)

    def _take(self, subjects, columns) -> "Dataset":
        """The given subjects and columns, in order: each column's slice of the encoded arrays
        is one piece for ``_from_columns``, no cell checked again, its violation rows renumbered."""
        rows = np.arange(self.n_subjects)[_indices(subjects, "subject")].tolist()
        placed = {}
        for new_j, j in enumerate(columns):
            by_row = {v.row: v for v in self.cell_violations[j]}
            placed[new_j] = [(self._values[rows, j],
                              [replace(by_row[old], row=new) for new, old in enumerate(rows)
                               if old in by_row] if by_row else ())]
        return Dataset._from_columns([self.schemas[j] for j in columns], len(rows), placed)


def _stat_rows(kind: VariableKind, column: np.ndarray, out: np.ndarray) -> tuple:
    """Write into the zeroed (N, 4 or 5) ``out`` the sufficient statistics of
    a numeric column's cells (an ordinal's levels; NaN where missing), 0 where they
    do not apply: missing, then observed, x~, x~^2 (real, ordinal) or zero, positive,
    x, log x (nonnegative), x~ = (x - centre) / scale. Returns (centre, scale): a real
    or ordinal column's median and the least power of two > the largest distance from it
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
    lo, hi = (observed.size - 1) // 2, observed.size // 2  # np.median's bits, no numpy.ma import
    centre = np.partition(observed, [lo, hi])[lo:hi + 1].mean() if observed.size else 0.0
    scale = np.ldexp(1.0, np.frexp(np.abs(observed - centre).max(initial=0.0))[1])
    out[:, 1] = ~missing
    np.divide(x - centre, scale, out=out[:, 2], where=~missing)
    np.square(out[:, 2], out=out[:, 3])
    return float(centre), float(scale)


def _admitted(schema: VariableSchema, cells):
    """The one rule that admits a column's observed ``cells`` (Python values of their
    kind's plain type, or texts), encoded: a categorical's symbols as domain indices,
    an ordinal's levels and a continuous column's values made int64 or float64 by
    numpy, which calls Python's own ``int`` / ``float``; None if one does not convert
    or is not admissible."""
    kind = schema.kind
    if kind is VariableKind.CATEGORICAL:
        codes = np.fromiter(map(schema._domain_index.get, cells, repeat(-1)),
                            dtype=np.int64, count=len(cells))
        return codes if (codes >= 0).all() else None
    ordinal = kind is VariableKind.ORDINAL
    try:  # a text that does not parse, or an int too large for its array
        values = np.asarray(cells, dtype=np.int64 if ordinal else float)
        levels = np.array(schema.domain, dtype=np.int64)  # empty unless ordinal
    except (ValueError, OverflowError):
        return None
    if ordinal:
        codes = np.searchsorted(levels, values)
        return codes if (levels[np.minimum(codes, len(levels) - 1)] == values).all() else None
    admissible = np.isfinite(values)
    if kind is VariableKind.NONNEGATIVE:
        admissible &= values >= 0
    return values if admissible.all() else None


def _encode_plain(schema: VariableSchema, missing: np.ndarray, cells: Sequence) -> tuple:
    """The piece (``_encode_piece``) of a column of Python cells, ``cells`` the observed
    ones in row order: ``_admitted`` if each has its kind's plain type (float or int for
    real and nonnegative, int for ordinal, str for categorical), else cell by cell."""
    plain = {VariableKind.CATEGORICAL: {str}, VariableKind.ORDINAL: {int}}.get(schema.kind,
                                                                              {int, float})
    encoded = _admitted(schema, cells) if set(map(type, cells)) <= plain else None
    return _encode_piece(schema, missing, encoded, cells)


def _encode_piece(schema: VariableSchema, missing: np.ndarray, encoded, cells, first: int = 0):
    """(values, violations) of the rows first, first + 1, ... of a column whose MISSING
    cells are True in ``missing``: values NaN where missing or bad, else ``encoded`` (the
    observed cells as ``_admitted`` encodes them) or, if that is None, each of the observed
    ``cells`` (an iterable, in row order) that ``validate_value`` admits, which alone
    words the violations of the others."""
    values = np.full(len(missing), np.nan)
    if encoded is not None:
        values[~missing] = encoded
        return values, ()
    bad = []
    ordinal = schema.kind is VariableKind.ORDINAL
    for i, value in zip(np.flatnonzero(~missing).tolist(), cells):
        if (message := schema.validate_value(value)) is not None:
            bad.append(Violation(first + i, schema.name, message))
        else:
            values[i] = (float(value) if schema.kind.is_continuous
                         else schema._domain_index[int(value) if ordinal else value])
    return values, tuple(bad)


@dataclass(frozen=True)
class Violation:
    """One schema violation; ``row`` is None for column-level findings."""

    row: int | None
    column: str
    message: str

    def __str__(self):
        where = f"row {self.row}, " if self.row is not None else ""
        return f"{where}column {self.column!r}: {self.message}"


def _kept_ranges(dataset: Dataset, kept=None) -> tuple:
    """The (F, V) count, min and max of each column's encoded values (its cells
    neither missing nor bad) in the rows each row of the (F, N) mask ``kept``
    keeps (default: one row keeping all), min inf and max -inf where none, one
    masked reduction per column; and the (F, V) column scales, the span of the kept
    values (of a finite column, its codes), 1.0 if that is 0 or none is left, which a
    fit's continuous default parameters and real variance floors read. The cohort may
    be unchecked: a span too wide for a float is inf, a column ``validate_dataset`` refuses."""
    if kept is None:
        kept = np.ones((1, dataset.n_subjects), dtype=bool)
    shape = (len(kept), dataset.n_variables)
    counts, low, high = np.empty(shape, dtype=np.int64), np.empty(shape), np.empty(shape)
    for j in range(dataset.n_variables):
        column = dataset._values[:, j]
        observed = kept & ~np.isnan(column)
        counts[:, j] = observed.sum(axis=1)
        low[:, j] = np.where(observed, column, np.inf).min(axis=1)
        high[:, j] = np.where(observed, column, -np.inf).max(axis=1)
    with np.errstate(over="ignore"):
        spans = high - low  # -inf where no value is kept
    return counts, low, high, np.where(spans > 0, spans, 1.0)


def _no_information(dataset: Dataset, ranges: tuple, kept=None) -> list:
    """Per row of the (F, N) mask ``kept`` (default: one row keeping all), the
    violations of the columns that carry no information in the rows it keeps, in
    column order, from their ``_kept_ranges(dataset, kept)`` counts, mins and maxes:
    a column with no bad cell whose kept values are none or all equal (exactly; the
    message shows the first), as ``validate_dataset`` words them."""
    counts, low, high, _ = ranges
    checked = np.array([not bad for bad in dataset.cell_violations])
    found = [[] for _ in counts]
    for f, j in np.argwhere(((counts == 0) | (low == high)) & checked).tolist():
        why = "no observed values"
        if counts[f, j]:
            rows = ~np.isnan(dataset._values[:, j]) & (True if kept is None else kept[f])
            why = f"constant column (always {dataset.value(np.flatnonzero(rows)[0], j)!r})"
        found[f].append(Violation(None, dataset.schemas[j].name, why))
    return found


def validate_dataset(dataset: Dataset) -> list[Violation]:
    """All violations in the dataset, column by column: its bad cells, then its
    zero variability (``_no_information``, the check each leave-one-out fold
    makes) and values too large to fit.

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
    return [v.column for v in _no_information(dataset, _kept_ranges(dataset))[0]]


def drop_zero_variability(dataset: Dataset) -> tuple[Dataset, list[str]]:
    """Copy of the dataset without zero-variability columns, plus their names. If no column
    would be left, SchemaViolationError with each column's own violation, in column order."""
    found, = _no_information(dataset, _kept_ranges(dataset))
    dropped = [v.column for v in found]
    keep = [j for j, s in enumerate(dataset.schemas) if s.name not in dropped]
    if dropped and not keep:
        raise SchemaViolationError(found)
    return (dataset._take(range(dataset.n_subjects), keep) if dropped else dataset), dropped


@dataclass(frozen=True)
class MissingnessProfile:
    """Per-subject missing-cell counts and the 'at least m missing' curve.

    ``subjects_with_at_least[m]`` counts subjects with >= m missing cells,
    for m = 0..V. The curve starts at the cohort size and never increases.
    """

    missing_counts: np.ndarray
    subjects_with_at_least: np.ndarray


def missingness_profile(dataset: Dataset) -> MissingnessProfile:
    n_vars = dataset.n_variables
    counts = np.sum([dataset.missing_mask(j) for j in range(n_vars)], axis=0, dtype=np.int64)
    hist = np.bincount(counts, minlength=n_vars + 1)
    at_least = hist[::-1].cumsum()[::-1].copy()
    counts.setflags(write=False)
    at_least.setflags(write=False)
    return MissingnessProfile(counts, at_least)
