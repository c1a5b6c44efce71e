"""Schemas, datasets, validation, and missingness profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmix import (MISSING, Dataset, SchemaError, SchemaViolationError,
                    VariableKind, VariableSchema, drop_zero_variability,
                    is_missing, missingness_profile, validate_dataset,
                    zero_variability_columns)
from hetmix.schema import Violation, _zero_variability


def test_missing_is_a_singleton():
    assert MISSING is type(MISSING)()
    assert is_missing(MISSING)
    assert not is_missing(0.0)
    assert repr(MISSING) == "MISSING"
    assert not MISSING  # falsy, but never use truthiness to test for it


class TestVariableSchema:
    def test_kind_accepts_strings(self):
        s = VariableSchema("x", "real")
        assert s.kind is VariableKind.REAL

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

    def test_missing_mask(self):
        ds = _toy_dataset()
        assert ds.missing_mask(0).tolist() == [False, True, False]
        assert ds.missing_mask(1).tolist() == [False, False, True]

    def test_column_numeric_and_codes(self):
        ds = _toy_dataset()
        col = ds.column_numeric(0)
        assert col[0] == 1.5 and math.isnan(col[1])
        assert ds.column_codes(1).tolist() == [1, 0, -1]
        assert ds.column_codes(2).tolist() == [0, 1, -1]
        with pytest.raises(SchemaError):
            ds.column_numeric(2)

    def test_column_codes_domain_index(self):
        schemas = (VariableSchema("x", "ordinal", (2, 4, 6)), VariableSchema("y", "real"))
        ds = Dataset(schemas, [(4, 1.0), (6, 2.0), (2, 3.0)])
        assert ds.column_codes(0).tolist() == [1, 2, 0]
        bad = Dataset(schemas, [(4, 1.0), (3, 2.0)])
        assert [(v.row, v.column) for v in bad.cell_violations[0]] == [(1, "x")]
        with pytest.raises(SchemaViolationError):
            bad.column_codes(0)
        with pytest.raises(SchemaError):
            ds.column_codes(1)

    def test_encoding_invalid_column_raises(self):
        ds = Dataset((VariableSchema("x", "real"),), [("oops",), (1.0,)])
        with pytest.raises(SchemaViolationError):
            ds.column_numeric(0)

    def test_column_scale(self):
        ds = _toy_dataset()
        assert ds.column_scale(0) == 1.0  # observed span 2.5 - 1.5
        assert ds.column_scale(1) == 2.0  # ordinal domain span

    def test_cells_read_only(self):
        ds = _toy_dataset()
        with pytest.raises(ValueError):
            ds.cells[0, 0] = 9.9

    def test_subset_keeps_order(self):
        ds = _toy_dataset()
        sub = ds.subset([2, 0])
        assert sub.row(0) == ds.row(2)
        assert sub.row(1) == ds.row(0)
        assert ds.drop_subject(1).n_subjects == 2

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
# non-finite values, negatives, and a list-valued cell
_MIXED_CELL = st.one_of(
    st.just(MISSING),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 6),
    st.integers(-3, 6).map(np.int64),
    st.booleans(),
    st.sampled_from(["a", "b", "c", "z", "", "1.5"]),
    st.just([1, 2]),
)


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
    @given(rows=st.lists(st.tuples(*[_MIXED_CELL] * len(_MIXED_SCHEMAS)),
                         min_size=1, max_size=8))
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
            reason = _zero_variability(ds, j)
            if reason is not None:
                expected_report.append(Violation(None, schema.name, reason))
        assert validate_dataset(ds) == expected_report
        counts = missingness_profile(ds).missing_counts.tolist()
        assert counts == [sum(c is MISSING for c in row) for row in rows]


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
