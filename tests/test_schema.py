"""Schemas, datasets, validation, and missingness profiles."""

import ast
import csv
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetmix.distributions
import hetmix.io
import hetmix.schema
from hetmix import (MISSING, Dataset, SchemaError, SchemaViolationError,
                    VariableKind, VariableSchema, drop_zero_variability,
                    missingness_profile, validate_dataset,
                    zero_variability_columns)
from hetmix.io import read_data_csv
from hetmix.schema import Violation, _kept_ranges

from conftest import assert_same_store, recovery_model, widest_fit_values


def test_missing_is_a_singleton():
    assert MISSING is type(MISSING)()
    assert repr(MISSING) == "MISSING"
    assert not MISSING  # falsy, but never use truthiness to test for it


class TestVariableSchema:
    def test_kind_accepts_strings(self):
        s = VariableSchema("x", "real")
        assert s.kind is VariableKind.REAL

    @pytest.mark.parametrize("name", ["", None, 3, b"x"])
    def test_name_must_be_a_non_empty_string(self, name):
        with pytest.raises(SchemaError, match="^variable name must be a non-empty string$"):
            VariableSchema(name, "real")

    def test_unknown_kind_is_named(self):
        with pytest.raises(SchemaError, match="^unknown variable kind 'interval'$"):
            VariableSchema("x", "interval")

    def test_continuous_kinds_reject_domains(self):
        with pytest.raises(SchemaError):
            VariableSchema("x", "real", (1, 2))

    def test_finite_kinds_require_domains(self):
        with pytest.raises(SchemaError):
            VariableSchema("x", "ordinal")

    def test_ordinal_domain_must_increase(self):
        with pytest.raises(SchemaError):
            VariableSchema("x", "ordinal", (3, 1, 2))
        with pytest.raises(SchemaError):
            VariableSchema("x", "ordinal", (1, 1, 2))

    @pytest.mark.parametrize("domain", [(2**60, 2**60 + 1, 2**60 + 2), (2**53, 2**53 + 1),
                                        (-2**70 - 1, -2**70)])
    def test_ordinal_domain_must_read_as_floats(self, domain):
        """Levels that round to one float are refused: the model reads levels as floats."""
        with pytest.raises(SchemaError, match="^x: ordinal levels must be distinct floats$"):
            VariableSchema("x", "ordinal", domain)
        assert VariableSchema("x", "ordinal", (1, 2**70)).domain == (1, 2**70)

    @pytest.mark.parametrize("domain", [(0, 2**600), (0, 2**511), (-2**481, 0), (0, 10**400),
                                        (-10**308, 10**308)])
    def test_ordinal_domain_must_stay_below_the_limit(self, domain):
        """Levels or a span of 2**480 or more are refused, past the float range or not:
        an M-step on enough rows would overflow their squared deviations."""
        with pytest.raises(SchemaError, match=r"^x: ordinal levels and their span must be "
                                              r"below 2\*\*480 in magnitude$"):
            VariableSchema("x", "ordinal", domain)
        for admitted in ((1, 2**70), (0, 2**479), (-2**479, 2**479 - 1)):
            assert VariableSchema("x", "ordinal", admitted).domain == admitted

    def test_ordinal_domain_may_have_gaps(self):
        s = VariableSchema("x", "ordinal", (1, 2, 5, 9))
        assert s.domain == (1, 2, 5, 9)

    def test_categorical_domain_distinct_symbols(self):
        with pytest.raises(SchemaError):
            VariableSchema("x", "categorical", ("a", "a"))
        with pytest.raises(SchemaError):
            VariableSchema("x", "categorical", ("a", ""))

    def test_bad_role(self):
        with pytest.raises(SchemaError):
            VariableSchema("x", "real", role="predictor")

    def test_validate_value(self):
        real = VariableSchema("x", "real")
        assert real.validate_value(1.5) is None
        assert real.validate_value(MISSING) is None
        assert real.validate_value(float("nan")) is not None
        assert real.validate_value(True) is not None
        assert real.validate_value("1.5") is not None

        nonneg = VariableSchema("x", "nonnegative")
        assert nonneg.validate_value(0.0) is None
        assert nonneg.validate_value(-0.1) is not None

        ordinal = VariableSchema("x", "ordinal", (1, 2, 3))
        assert ordinal.validate_value(2) is None
        assert ordinal.validate_value(4) is not None
        assert ordinal.validate_value(2.0) is not None  # levels are integers

        cat = VariableSchema("x", "categorical", ("a", "b"))
        assert cat.validate_value("a") is None
        assert cat.validate_value("c") is not None
        assert cat.validate_value(1) is not None

    @pytest.mark.parametrize("kind,domain,value,message", [
        ("real", (), 10**400, "value <integer of 1329 bits> out of float range"),
        ("nonnegative", (), -10**400, "value <negative integer of 1329 bits> out of float range"),
        ("ordinal", (1, 2, 3), 10**5000, "level <integer of 16610 bits> not in domain (1, 2, 3)"),
        ("categorical", ("a", "b"), 10**5000,
         "expected a symbol from ('a', 'b'), got <integer of 16610 bits>"),
    ], ids=["real", "nonnegative", "ordinal", "categorical"])
    def test_huge_ints_are_violations(self, kind, domain, value, message):
        """An int too large for a float is a violation shown by its size, not
        an OverflowError, nor a ValueError from printing its digits."""
        schema = VariableSchema("x", kind, domain)
        assert schema.validate_value(value) == message
        rows = [(value,), (schema.domain or (1.0, 2.0))[0:1], (schema.domain or (1.0, 2.0))[1:2]]
        ds = Dataset((schema,), rows)
        assert ds.cell_violations[0] == (Violation(0, "x", message),)
        assert ds.row(2) == rows[2]


def _toy_dataset():
    schemas = (VariableSchema("age", "real"),
               VariableSchema("stage", "ordinal", (1, 2, 3)),
               VariableSchema("site", "categorical", ("a", "b")))
    rows = [(1.5, 2, "a"),
            (MISSING, 1, "b"),
            (2.5, MISSING, MISSING)]
    return Dataset(schemas, rows)


class TestDataset:
    def test_shape_and_access(self):
        ds = _toy_dataset()
        assert (ds.n_subjects, ds.n_variables) == (3, 3)
        assert ds.value(0, 0) == 1.5
        assert ds.row(2) == (2.5, MISSING, MISSING)
        assert ds.column_index("site") == 2
        with pytest.raises(SchemaError):
            ds.column_index("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Dataset((VariableSchema("x", "real"), VariableSchema("x", "real")),
                    [(1.0, 2.0)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Dataset((VariableSchema("x", "real"),), [])
        with pytest.raises(SchemaError):
            Dataset((), [()])

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaError):
            Dataset((VariableSchema("x", "real"),), [(1.0, 2.0)])

    def test_bad_column_indices_rejected(self):
        """Each cell of a row names one variable: a repeated, negative or
        out-of-range index would drop its cell, so it is refused by name."""
        schemas = (VariableSchema("x", "real"), VariableSchema("y", "real"))
        assert Dataset(schemas, [(2.0,)], [1]).row(0) == (MISSING, 2.0)
        for columns, row, message in (([0, 0], (1.0, 2.0), "column index 0 is repeated"),
                                      ([5], (1.0,), "column index 5 is not in 0..1"),
                                      ([-1], (1.0,), "column index -1 is not in 0..1"),
                                      ([True], (1.0,), "column index True is not an integer"),
                                      ([1.0], (1.0,), "column index 1.0 is not an integer")):
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                Dataset(schemas, [row], columns)

    def test_missing_mask(self):
        ds = _toy_dataset()
        assert ds.missing_mask(0).tolist() == [False, True, False]
        assert ds.missing_mask(1).tolist() == [False, False, True]

    def test_column_numeric_and_codes(self):
        ds = _toy_dataset()
        col = ds.column_numeric(0)
        assert col[0] == 1.5 and math.isnan(col[1])
        np.testing.assert_array_equal(ds.column_numeric(1), [2.0, 1.0, math.nan])
        assert ds.column_codes(1).tolist() == [1, 0, -1]
        assert ds.column_codes(2).tolist() == [0, 1, -1]
        with pytest.raises(SchemaError):
            ds.column_numeric(2)

    def test_column_codes_domain_index(self):
        schemas = (VariableSchema("x", "ordinal", (2, 4, 6)), VariableSchema("y", "real"))
        ds = Dataset(schemas, [(4, 1.0), (6, 2.0), (2, 3.0)])
        assert ds.column_codes(0).tolist() == [1, 2, 0]
        assert ds.column_numeric(0).tolist() == [4.0, 6.0, 2.0]
        bad = Dataset(schemas, [(4, 1.0), (3, 2.0)])
        assert [(v.row, v.column) for v in bad.cell_violations[0]] == [(1, "x")]
        # a bad cell is not missing, and it holds no value
        assert not bad.missing_mask(0)[1] and math.isnan(bad._values[1, 0])
        with pytest.raises(SchemaViolationError):
            bad.column_codes(0)
        with pytest.raises(SchemaError):
            ds.column_codes(1)

    def test_encoding_invalid_column_raises(self):
        ds = Dataset((VariableSchema("x", "real"),), [("oops",), (1.0,)])
        with pytest.raises(SchemaViolationError):
            ds.column_numeric(0)
        for subject in (0, -2):
            with pytest.raises(SchemaViolationError) as err:
                ds.value(subject, 0)
            assert [v.row for v in err.value.violations] == [0]
        assert ds.value(-1, 0) == 1.0

    def test_column_scale(self):
        scales = _kept_ranges(_toy_dataset())[3]
        assert scales[0, 0] == 1.0  # observed span 2.5 - 1.5

    def test_cells_read_only(self):
        """The encoded cells cannot be written, in a dataset or in its subset."""
        ds = _toy_dataset()
        for data in (ds, ds.subset([2, 0])):
            for view in (data.missing_mask(0), data.column_numeric(0), data.column_codes(1)):
                with pytest.raises(ValueError):
                    view[0] = view[1]

    def test_subset_keeps_order(self):
        ds = _toy_dataset()
        sub = ds.subset([2, 0])
        assert sub.row(0) == ds.row(2)
        assert sub.row(1) == ds.row(0)
        assert ds.drop_subject(1).n_subjects == 2

    def test_drop_subject_indexes_like_subset(self):
        ds = Dataset((VariableSchema("x", "real"),), [(float(i),) for i in range(5)])
        for subject in (0, 3, 4, -1, -5):
            kept = [i for i in range(5) if i != range(5)[subject]]
            assert ds.drop_subject(subject).row(0) == ds.subset(kept).row(0)
            assert [ds.drop_subject(subject).value(i, 0) for i in range(4)] == \
                [float(i) for i in kept]
        for subject in (5, 99, -6):
            with pytest.raises(IndexError):
                ds.drop_subject(subject)
            with pytest.raises(IndexError):
                ds.subset([subject])

    def test_subject_indices_must_be_integers(self):
        """A mask or a float is not read as row numbers, nor a bool as row 1;
        numpy integers are indices."""
        ds = _toy_dataset()
        for take, message in ((lambda: ds.subset(np.array([True, False, True])), "True"),
                              (lambda: ds.subset([0.9, 2.2]), "0.9"),
                              (lambda: ds.subset([0, np.float64(2.0)]), "2.0"),
                              (lambda: ds.drop_subject(True), "True")):
            with pytest.raises(SchemaError, match=f"^subject index {message} is not an integer$"):
                take()
        assert ds.subset(np.array([2, 0], dtype=np.int32)).row(0) == ds.row(2)
        assert ds.drop_subject(np.int64(0)).row(0) == ds.row(1)

    _ONE_INDEX = {"value subject": (lambda ds, i: ds.value(i, 0), "subject"),
                  "value column": (lambda ds, i: ds.value(0, i), "column"),
                  "row": (lambda ds, i: ds.row(i), "subject"),
                  "missing_mask": (lambda ds, i: ds.missing_mask(i), "column"),
                  "column_numeric": (lambda ds, i: ds.column_numeric(i), "column"),
                  "column_codes": (lambda ds, i: ds.column_codes(i), "column"),
                  "schema": (lambda ds, i: ds.schema(i), "column"),
                  "model schema": (lambda ds, i: recovery_model().schema(i), "column")}

    @pytest.mark.parametrize("index", [True, np.True_, 1.0, np.float64(0)], ids=repr)
    @pytest.mark.parametrize("accessor", sorted(_ONE_INDEX))
    def test_single_indices_must_be_integers(self, accessor, index):
        """An accessor of one subject or column refuses a bool or a float by name, as
        ``subset`` does: a bool is not row or column 1, nor a float truncated."""
        call, what = self._ONE_INDEX[accessor]
        with pytest.raises(SchemaError, match=f"^{what} index {re.escape(str(index))} "
                                              "is not an integer$"):
            call(_toy_dataset(), index)

    def test_single_indices_take_numpy_and_negative_integers(self):
        ds = _toy_dataset()
        assert ds.value(np.int64(-1), np.int32(0)) == 2.5
        assert ds.row(np.int8(-2)) == (MISSING, 1, "b")
        assert ds.missing_mask(np.int64(-3)).tolist() == [False, True, False]
        assert ds.column_numeric(np.uint8(1)).tolist()[:2] == [2.0, 1.0]
        assert ds.column_codes(np.int64(-1)).tolist() == [0, 1, -1]
        assert ds.schema(np.int64(2)).name == "site"
        assert recovery_model().schema(np.int16(-1)).name == "d_code"

    def test_roles(self):
        schemas = (VariableSchema("x", "real"),
                   VariableSchema("y", "ordinal", (1, 2), role="outcome"))
        ds = Dataset(schemas, [(1.0, 1), (2.0, 2)])
        assert ds.input_columns == (0,)
        assert ds.outcome_columns == (1,)


_MIXED_SCHEMAS = (VariableSchema("r", "real"),
                  VariableSchema("n", "nonnegative"),
                  VariableSchema("o", "ordinal", (0, 2, 5)),
                  VariableSchema("c", "categorical", ("a", "b", "c")))

# valid values, MISSING, wrong types, out-of-domain levels and symbols,
# non-finite values, negatives, ints too large for a float or an int64,
# and a list-valued cell
_MIXED_CELL = st.one_of(
    st.just(MISSING),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 6),
    st.integers(-3, 6).map(np.int64),
    st.sampled_from([2**63, 10**400, -10**5000]),
    st.booleans(),
    st.sampled_from(["a", "b", "c", "z", "", "1.5"]),
    st.just([1, 2]),
)

# admissible cells of each column's plain Python types: a column of these
# (and MISSING) is encoded by numpy, not cell by cell
_PLAIN_CELL = (
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**70, 2**70)),
    st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 2**70)),
    st.sampled_from((0, 2, 5)),
    st.sampled_from(("a", "b", "c")),
)


@st.composite
def _mixed_rows(draw, max_size=8):
    """Rows over _MIXED_SCHEMAS; each column is drawn either from
    _MIXED_CELL or, half the time, from MISSING and its plain cells."""
    n = draw(st.integers(1, max_size))
    columns = [draw(st.lists(st.one_of(st.just(MISSING), plain) if draw(st.booleans())
                             else _MIXED_CELL, min_size=n, max_size=n))
               for plain in _PLAIN_CELL]
    return list(zip(*columns))


def _reference_zero_variability(schema, column, bad):
    """The column's zero-variability finding, from its raw cells: none with
    bad cells, else no observed cell, else one repeated decoded value."""
    if bad:
        return None
    observed = [v for v in column if v is not MISSING]
    if not observed:
        return "no observed values"
    decode = {VariableKind.CATEGORICAL: str, VariableKind.ORDINAL: int}.get(schema.kind, float)
    decoded = [decode(v) for v in observed]
    if all(d == decoded[0] for d in decoded):
        return f"constant column (always {decoded[0]!r})"
    return None


def _reference_too_large(schema, column, bad):
    """The column's too-large-to-fit finding, from its raw cells: a real span
    of 2**511 or more, a nonnegative total or largest value / 0.001 not finite."""
    if bad or schema.kind.is_finite or all(v is MISSING for v in column):
        return None
    observed = [float(v) for v in column if v is not MISSING]
    if schema.kind is VariableKind.REAL:
        span = max(observed) - min(observed)
        if span < 2.0 ** 511:
            return None
        return f"values span {span}, not below 2**511: too wide to fit"
    with np.errstate(over="ignore"):
        total = float(np.sum(observed))
    if math.isfinite(total) and math.isfinite(max(observed) / 0.001):
        return None
    return "values too large to fit: their total or largest value / 0.001 is not finite"


def _reference_encoding(schema, column):
    """Per-cell mask, numeric value, code and violations from validate_value."""
    mask, numeric, codes, bad = [], [], [], []
    for i, value in enumerate(column):
        message = None if value is MISSING else schema.validate_value(value)
        ok = value is not MISSING and message is None
        mask.append(value is MISSING)
        numeric.append(float(value) if ok and schema.kind is not VariableKind.CATEGORICAL
                       else math.nan)
        key = int(value) if ok and schema.kind is VariableKind.ORDINAL else value
        codes.append(schema.domain.index(key) if ok and schema.kind.is_finite else -1)
        if message is not None:
            bad.append(Violation(i, schema.name, message))
    return mask, numeric, codes, bad


class TestEncodingMatchesPerCellReference:
    @given(rows=_mixed_rows())
    @settings(max_examples=200, deadline=None)
    def test_construction_equals_reference(self, rows):
        ds = Dataset(_MIXED_SCHEMAS, rows)
        expected_report = []
        for j, schema in enumerate(_MIXED_SCHEMAS):
            mask, numeric, codes, bad = _reference_encoding(schema, [r[j] for r in rows])
            assert ds.missing_mask(j).tolist() == mask
            assert list(ds.cell_violations[j]) == bad
            if bad:
                with pytest.raises(SchemaViolationError):
                    ds.column_codes(j) if schema.kind.is_finite else ds.column_numeric(j)
            else:
                if schema.kind is not VariableKind.CATEGORICAL:
                    np.testing.assert_array_equal(ds.column_numeric(j), numeric)
                if schema.kind.is_finite:
                    assert ds.column_codes(j).tolist() == codes
            expected_report.extend(bad)
            for reference in (_reference_zero_variability, _reference_too_large):
                reason = reference(schema, [r[j] for r in rows], bad)
                if reason is not None:
                    expected_report.append(Violation(None, schema.name, reason))
        assert validate_dataset(ds) == expected_report
        counts = missingness_profile(ds).missing_counts.tolist()
        assert counts == [sum(c is MISSING for c in row) for row in rows]

    def test_plain_columns_skip_per_cell_checks(self, monkeypatch):
        """Columns of plain admissible cells never reach validate_value; a
        column with one bad cell is checked cell by cell."""
        rows = [(1.5, 0, 2, "a"), (MISSING, 3.0, MISSING, "c"), (-2, MISSING, 5, MISSING)]
        checked = []
        original = VariableSchema.validate_value
        monkeypatch.setattr(VariableSchema, "validate_value",
                            lambda self, value: checked.append(value) or original(self, value))
        ds = Dataset(_MIXED_SCHEMAS, rows)
        assert checked == []
        assert ds.row(2) == (-2.0, MISSING, 5, MISSING)
        Dataset(_MIXED_SCHEMAS, rows + [(1.0, 1.0, 1, "a")])
        assert checked == [2, 5, 1]  # the ordinal column, level 1 being bad


class TestSlicingEqualsRebuilding:
    """subset, drop_subject and drop_zero_variability slice the encoded
    arrays; the result equals a Dataset built from the same raw cells."""

    @given(data=st.data(), rows=_mixed_rows())
    @settings(max_examples=200, deadline=None)
    def test_slices_equal_rebuilt_datasets(self, data, rows):
        ds = Dataset(_MIXED_SCHEMAS, rows)
        n = len(rows)
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
        assert_same_store(ds.subset(idx), Dataset(_MIXED_SCHEMAS, [rows[i] for i in idx]))
        if n > 1:
            drop = data.draw(st.integers(0, n - 1))
            assert_same_store(ds.drop_subject(drop),
                               Dataset(_MIXED_SCHEMAS, rows[:drop] + rows[drop + 1:]))
        names = zero_variability_columns(ds)
        keep = [j for j, s in enumerate(_MIXED_SCHEMAS) if s.name not in names]
        if not keep:
            with pytest.raises(SchemaViolationError):
                drop_zero_variability(ds)
            return
        reduced, dropped = drop_zero_variability(ds)
        assert dropped == names
        assert_same_store(reduced, Dataset([_MIXED_SCHEMAS[j] for j in keep],
                                            [tuple(r[j] for j in keep) for r in rows]))

    def test_slices_never_check_cells_again(self, monkeypatch):
        schemas = (VariableSchema("x", "real"), VariableSchema("y", "real"),
                   VariableSchema("s", "categorical", ("a", "b")))
        ds = Dataset(schemas, [(5.0, 1.0, "a"), (5.0, 2.0, "z"), (MISSING, 3.0, "q")])

        def refuse(*args, **kwargs):
            raise AssertionError("a cell was checked again")

        monkeypatch.setattr(VariableSchema, "validate_value", refuse)
        monkeypatch.setattr(Dataset, "__init__", refuse)
        sub = ds.subset([2, 1])
        assert [(v.row, v.message) for v in sub.cell_violations[2]] == [
            (0, ds.cell_violations[2][1].message), (1, ds.cell_violations[2][0].message)]
        assert ds.drop_subject(0).cell_violations[2][0].row == 0
        reduced, dropped = drop_zero_variability(ds)
        assert dropped == ["x"]
        assert reduced.names == ("y", "s")
        assert reduced.cell_violations == ds.cell_violations[1:]

    def test_subset_of_no_subjects_raises(self):
        ds = Dataset((VariableSchema("x", "real"),), [(1.0,), (2.0,)])
        with pytest.raises(SchemaError, match="^a dataset needs at least one subject$"):
            ds.subset([])


_TOKEN = "NA"  # the CSV's missing token; no drawn cell's text


def _tagged_cell(schema):
    """One cell of ``schema``'s column, tagged: ("missing", MISSING), ("good", an
    admissible value) or ("bad", a wrong type, a bool, an out-of-domain level or
    symbol, or a non-finite value), whose text reads back as bad too."""
    kind = schema.kind
    if kind is VariableKind.ORDINAL:
        good = st.sampled_from(schema.domain)
        wrong = st.sampled_from(["x", 1.5])
        outside = st.integers(-9, 9).filter(lambda level: level not in schema.domain)
    elif kind is VariableKind.CATEGORICAL:
        good = st.sampled_from(schema.domain)
        wrong = st.sampled_from([1, 2.5])
        outside = st.sampled_from(["g", "h", "A", ""])
    else:
        low = 0 if kind is VariableKind.NONNEGATIVE else None
        good = st.one_of(st.floats(min_value=low, allow_nan=False, allow_infinity=False),
                         st.integers(low if low is not None else -10**6, 10**6))
        wrong = st.sampled_from(["x", ""])
        outside = st.sampled_from([-1.0, -1e-300] if low is not None else [math.inf])
    bad = st.one_of(wrong, st.booleans(), outside, st.sampled_from([math.nan, -math.inf]))
    return st.one_of(st.just(("missing", MISSING)), good.map(lambda v: ("good", v)),
                     bad.map(lambda v: ("bad", v)))


@st.composite
def _tagged_table(draw):
    """Random schemas of all four kinds, and rows of their tagged cells (``_tagged_cell``)."""
    schemas = []
    for j, kind in enumerate(draw(st.lists(st.sampled_from(list(VariableKind)),
                                           min_size=1, max_size=4))):
        domain = ()
        if kind is VariableKind.ORDINAL:
            domain = sorted(draw(st.sets(st.integers(-5, 5), min_size=2, max_size=4)))
        elif kind is VariableKind.CATEGORICAL:
            domain = draw(st.lists(st.sampled_from("abcdef"), min_size=2, max_size=4, unique=True))
        schemas.append(VariableSchema(f"v{j}", kind, tuple(domain)))
    cells = st.tuples(*map(_tagged_cell, schemas))
    return tuple(schemas), draw(st.lists(cells, min_size=1, max_size=8))


def _cell_text(tag, value) -> str:
    if tag == "missing":
        return _TOKEN
    return repr(value) if isinstance(value, float) else str(value)


def _assert_tagged(ds, rows):
    """``ds`` is ``rows`` of tagged cells: its one array, and per column the MISSING
    cells (``missing_mask``, ``value``, ``missingness_profile``) and the bad ones."""
    arrays = {name: a for name, a in vars(ds).items() if isinstance(a, np.ndarray)}
    assert list(arrays) == ["_values"]
    assert ds._values.shape == (len(rows), len(rows[0])) and ds._values.dtype == np.float64
    assert ds._values.flags.f_contiguous and not ds._values.flags.writeable
    for j in range(ds.n_variables):
        column = [row[j] for row in rows]
        mask = ds.missing_mask(j)
        assert mask.tolist() == [tag == "missing" for tag, _ in column]
        assert not mask.flags.writeable
        assert [v.row for v in ds.cell_violations[j]] == [
            i for i, (tag, _) in enumerate(column) if tag == "bad"]
        for i, (tag, value) in enumerate(column):
            if tag == "bad":
                with pytest.raises(SchemaViolationError):
                    ds.value(i, j)
            elif tag == "missing":
                assert ds.value(i, j) is MISSING
            else:
                assert ds.value(i, j) == value
    assert missingness_profile(ds).missing_counts.tolist() == [
        sum(tag == "missing" for tag, _ in row) for row in rows]


class TestMissingIsNanWithoutViolation:
    """A Dataset keeps one array: a cell is MISSING when it is NaN and its column has no
    violation on its row. Built from rows, read from a CSV, subset or reduced, a bad cell
    is never MISSING and a MISSING cell never bad."""

    @given(data=st.data(), table=_tagged_table(), chunk=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_every_construction(self, tmp_path_factory, data, table, chunk):
        schemas, rows = table
        ds = Dataset(schemas, [tuple(value for _, value in row) for row in rows])
        _assert_tagged(ds, rows)
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows([[s.name for s in schemas]]
                                         + [[_cell_text(*cell) for cell in row] for row in rows])
        with mock.patch.object(hetmix.io, "_CHUNK_RECORDS", chunk):
            _assert_tagged(read_data_csv(path, schemas, missing_token=_TOKEN), rows)
        n = len(rows)
        idx = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=10))
        _assert_tagged(ds.subset(idx), [rows[i] for i in idx])
        names = zero_variability_columns(ds)
        if keep := [j for j, s in enumerate(schemas) if s.name not in names]:
            _assert_tagged(drop_zero_variability(ds)[0], [[row[j] for j in keep] for row in rows])


class TestValidateDataset:
    def test_clean(self):
        assert validate_dataset(_toy_dataset()) == []

    def test_cell_violations_name_row_and_column(self):
        schemas = (VariableSchema("x", "real"), VariableSchema("s", "ordinal", (1, 2)))
        ds = Dataset(schemas, [(1.0, 1), ("text", 2), (2.0, 7)])
        out = validate_dataset(ds)
        assert [(v.row, v.column) for v in out] == [(1, "x"), (2, "s")]

    def test_all_missing_column(self):
        ds = Dataset((VariableSchema("x", "real"), VariableSchema("y", "real")),
                     [(MISSING, 1.0), (MISSING, 2.0)])
        out = validate_dataset(ds)
        assert [(v.row, v.column) for v in out] == [(None, "x")]
        assert zero_variability_columns(ds) == ["x"]

    def test_constant_column_exact_float_equality(self):
        ds = Dataset((VariableSchema("x", "real"), VariableSchema("y", "real")),
                     [(0.1, 1.0), (0.1, 2.0), (MISSING, 3.0)])
        assert zero_variability_columns(ds) == ["x"]
        # a one-ulp difference counts as variability
        ds2 = Dataset((VariableSchema("x", "real"), VariableSchema("y", "real")),
                      [(0.1, 1.0), (np.nextafter(0.1, 1.0), 2.0)])
        assert zero_variability_columns(ds2) == []

    def test_drop_zero_variability(self):
        ds = Dataset((VariableSchema("x", "real"), VariableSchema("y", "real")),
                     [(5.0, 1.0), (5.0, 2.0)])
        reduced, dropped = drop_zero_variability(ds)
        assert dropped == ["x"]
        assert reduced.names == ("y",)
        assert validate_dataset(reduced) == []

    def test_drop_everything_raises(self):
        ds = Dataset((VariableSchema("x", "real"),), [(5.0,), (5.0,)])
        with pytest.raises(SchemaViolationError):
            drop_zero_variability(ds)

    def test_drop_everything_names_each_column_in_order(self):
        """The refusal gives each column's own violation, as ``validate_dataset``
        words it, in column order."""
        ds = Dataset((VariableSchema("b", "real"), VariableSchema("a", "real")),
                     [(2.5, MISSING), (2.5, MISSING)])
        with pytest.raises(SchemaViolationError) as caught:
            drop_zero_variability(ds)
        assert [(v.row, v.column, v.message) for v in caught.value.violations] == [
            (None, "b", "constant column (always 2.5)"), (None, "a", "no observed values")]
        assert caught.value.violations == validate_dataset(ds)


class TestFitRange:
    """Columns EM cannot fit are violations: a real span of 2**511 or more
    (its squared statistics scale and variance floor overflow), a nonnegative
    column whose total, or largest value / SHAPE_MIN, is not finite (a Gamma
    mean or scale overflows). Each bound admits the value just inside it."""

    SPAN, LARGEST = widest_fit_values()
    REAL = "values span {}, not below 2**511: too wide to fit"
    NONNEGATIVE = "values too large to fit: their total or largest value / 0.001 is not finite"

    @pytest.mark.parametrize("kind, cells, message", [
        ("real", (2e154, -1e154), REAL.format(3e154)),
        ("real", (1e308, -1e308), REAL.format(math.inf)),
        ("real", (0.0, 2.0 ** 511), REAL.format(2.0 ** 511)),
        ("real", (-2.0 ** 510, 2.0 ** 510), REAL.format(2.0 ** 511)),
        ("nonnegative", (1.7e308, 0.0), NONNEGATIVE),
        ("nonnegative", (float(np.nextafter(LARGEST, math.inf)), 0.0), NONNEGATIVE),
    ])
    def test_refused(self, kind, cells, message):
        ds = Dataset((VariableSchema("x", kind), VariableSchema("y", "real")),
                     [(cells[0], 1.0), (cells[1], 2.0), (MISSING, 3.0)])
        assert validate_dataset(ds) == [Violation(None, "x", message)]
        assert zero_variability_columns(ds) == []

    def test_an_infinite_total_is_refused(self):
        cells = [(1.7e305 - 1e304 * (i % 2), float(i)) for i in range(1100)]
        ds = Dataset((VariableSchema("x", "nonnegative"), VariableSchema("y", "real")), cells)
        assert validate_dataset(ds) == [Violation(None, "x", self.NONNEGATIVE)]

    @pytest.mark.parametrize("kind, cells", [
        ("real", (0.0, SPAN)), ("real", (-SPAN / 2, SPAN / 2)), ("real", (-1e153, 1e153)),
        ("nonnegative", (LARGEST, 0.0)), ("nonnegative", (LARGEST, LARGEST / 2))])
    def test_just_inside_is_admitted(self, kind, cells):
        ds = Dataset((VariableSchema("x", kind), VariableSchema("y", "real")),
                     [(cells[0], 1.0), (cells[1], 2.0), (MISSING, 3.0)])
        assert validate_dataset(ds) == []

    def test_an_overflowing_span_warns_nothing(self):
        """A real span too wide for a float reads as inf, with no overflow
        warning from the reduction of every column that validation makes."""
        ds = Dataset((VariableSchema("x", "real"), VariableSchema("y", "real")),
                     [(1e308, 1.0), (-1e308, 2.0), (MISSING, 3.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_dataset(ds) == [Violation(None, "x", self.REAL.format(math.inf))]
            assert zero_variability_columns(ds) == []
            assert _kept_ranges(ds)[3].tolist() == [[math.inf, 2.0]]

    def test_bad_cells_are_reported_alone(self):
        ds = Dataset((VariableSchema("x", "real"),), [(1e308,), (-1e308,), ("text",)])
        assert [(v.row, v.column) for v in validate_dataset(ds)] == [(2, "x")]


def test_schema_is_the_base_layer():
    """``schema`` imports nothing from the package, and the fit-range bounds it
    checks are the M-step's own constants."""
    tree = ast.parse(Path(hetmix.schema.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("hetmix"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("hetmix") for a in node.names)
    assert hetmix.distributions.SHAPE_MIN is hetmix.schema.SHAPE_MIN
    assert not hasattr(hetmix.distributions, "_fit_range_error")


class TestMissingnessProfile:
    def test_frozen_example(self):
        schemas = tuple(VariableSchema(f"v{j}", "real") for j in range(3))
        rows = [(1.0, 2.0, 3.0),
                (MISSING, MISSING, 1.0),
                (MISSING, 1.0, MISSING)]
        profile = missingness_profile(Dataset(schemas, rows))
        assert profile.missing_counts.tolist() == [0, 2, 2]
        assert profile.subjects_with_at_least.tolist() == [3, 2, 2, 0]

    def test_curve_invariants_on_random_masks(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, v = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            schemas = tuple(VariableSchema(f"v{j}", "real") for j in range(v))
            rows = [tuple(MISSING if rng.random() < 0.4 else float(rng.normal())
                          for _ in range(v)) for _ in range(n)]
            profile = missingness_profile(Dataset(schemas, rows))
            curve = profile.subjects_with_at_least
            assert len(curve) == v + 1
            assert curve[0] == n
            assert all(a >= b for a, b in zip(curve, curve[1:]))
