"""Round trips for schema JSON, data CSV, model JSON, and report tables."""

import csv
import io
import json
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetmix.io
from conftest import assert_same_store, random_cell_params, random_model
from hetmix import (MISSING, Categorical, Dataset, Gaussian, InflatedGamma, MixtureModel,
                    QuantizedGaussian, SchemaViolationError, VariableSchema, sample_cohort,
                    validate_dataset)
from hetmix.demo import demo_model
from hetmix.io import (FormatError, _parse_cell, atomic_write_text,
                       load_dataset, load_model, load_schemas, model_from_dict,
                       model_to_dict, params_from_dict, params_to_dict,
                       read_data_csv, read_evidence_csv, save_model, save_schemas,
                       sha256_file, write_csv_table, write_data_csv)

SCHEMAS = (VariableSchema("age", "real"),
           VariableSchema("dose", "nonnegative"),
           VariableSchema("stage", "ordinal", (1, 2, 3), role="outcome"),
           VariableSchema("site", "categorical", ("north", "south")))


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        atomic_write_text(target, "replaced\n")
        assert target.read_text() == "replaced\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failing_chunks_leave_the_target_and_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "kept\n")

        def chunks():
            yield "partial\n"
            raise KeyError("chunk 2")

        with pytest.raises(KeyError, match="chunk 2"):
            atomic_write_text(target, chunks())
        assert target.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_sha256_tracks_content(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        atomic_write_text(a, "same")
        atomic_write_text(b, "same")
        assert sha256_file(a) == sha256_file(b)
        atomic_write_text(b, "different")
        assert sha256_file(a) != sha256_file(b)


class TestSchemaFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        save_schemas(SCHEMAS, path)
        assert load_schemas(path) == SCHEMAS

    def test_bad_json(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_schemas(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"format_version": 99, "variables": []}))
        with pytest.raises(FormatError):
            load_schemas(path)

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "schema.json"
        payload = {"format_version": 1,
                   "variables": [{"name": "x", "kind": "fancy"}]}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            load_schemas(path)

    @pytest.mark.parametrize("variables", [5, "x", {"name": "x", "kind": "real"}, None])
    def test_variables_not_a_list(self, tmp_path, variables):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"format_version": 1, "variables": variables}))
        with pytest.raises(FormatError, match="'variables' list"):
            load_schemas(path)


# Cell texts the CSV reader must read exactly as _parse_cell does, column by
# column: the missing tokens, valid cells, padded, underscored and Arabic-Indic
# numerals, nan / inf, an integer too large for int64, a float where a level
# belongs, unparseable text, out-of-domain levels and symbols.
_CELL_TEXT = st.one_of(
    st.sampled_from(["", "NA", "1.5", " 2 ", "1_0", "\u0661\u0662", "3", "0", "-0.0", "nan",
                     "-inf", "1e400", "99999999999999999999", "3.0", "2.0", "oops", "4",
                     "north", "south", " north", "east"]),
    st.floats(allow_nan=False).map(repr),
    st.integers(-2, 5).map(str),
)


class TestColumnReaderMatchesPerCellReference:
    """read_data_csv encodes a chunk of records at a time, a column at a time;
    the result equals a Dataset built from the rows of _parse_cell values,
    violations (numbered by their row in the file) included."""

    @given(data=st.data(), chunk=st.integers(1, 4), token=st.sampled_from(["", "NA"]),
           order=st.permutations(range(len(SCHEMAS))))
    @settings(max_examples=150, deadline=None)
    def test_same_store_and_violations(self, tmp_path_factory, data, chunk, token, order):
        texts = data.draw(st.lists(st.lists(_CELL_TEXT, min_size=len(SCHEMAS),
                                            max_size=len(SCHEMAS)), min_size=1, max_size=9))
        if data.draw(st.booleans()):  # a bad cell in any row, of any chunk
            row = data.draw(st.integers(0, len(texts) - 1))
            texts[row][data.draw(st.integers(0, len(SCHEMAS) - 1))] = "oops"
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows([[SCHEMAS[j].name for j in order]]
                                         + [[row[j] for j in order] for row in texts])
        want = Dataset(SCHEMAS, [tuple(MISSING if text == token else _parse_cell(text, s)
                                       for s, text in zip(SCHEMAS, row)) for row in texts])
        with mock.patch.object(hetmix.io, "_CHUNK_RECORDS", chunk):
            got = read_data_csv(path, SCHEMAS, missing_token=token)
        assert_same_store(got, want)
        assert validate_dataset(got) == validate_dataset(want)


class TestReaderMemory:
    def test_peak_is_a_small_multiple_of_the_store(self, tmp_path):
        """No cell's Python object outlives its chunk: reading a 20,000-row
        demo_model cohort peaks at no more than 2.5 times the bytes of the
        encoded store it builds (``_values``)."""
        model = demo_model()
        cohort, _ = sample_cohort(model, 20_000, np.random.default_rng(0))
        path = tmp_path / "cohort.csv"
        write_data_csv(cohort, path)
        read_data_csv(path, model.schemas)  # builds the schemas' cached domain indices
        tracemalloc.start()
        try:
            dataset = read_data_csv(path, model.schemas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_store(dataset, cohort)
        assert peak <= 2.5 * dataset._values.nbytes


class TestDataCsv:
    def _dataset(self):
        rows = [(1.5, 0.0, 2, "north"),
                (MISSING, 3.25, MISSING, "south"),
                (-0.75, MISSING, 1, MISSING)]
        return Dataset(SCHEMAS, rows)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        original = self._dataset()
        write_data_csv(original, path)
        loaded = read_data_csv(path, SCHEMAS)
        for i in range(original.n_subjects):
            assert loaded.row(i) == original.row(i)

    def test_round_trip_with_token(self, tmp_path):
        path = tmp_path / "data.csv"
        write_data_csv(self._dataset(), path, missing_token="NA")
        assert "NA" in path.read_text()
        loaded = read_data_csv(path, SCHEMAS, missing_token="NA")
        assert loaded.value(1, 0) is MISSING

    def test_column_order_free(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("site,stage,dose,age\nnorth,2,0.5,1.25\n")
        loaded = read_data_csv(path, SCHEMAS)
        assert loaded.names == ("age", "dose", "stage", "site")
        assert loaded.row(0) == (1.25, 0.5, 2, "north")

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("age,dose,stage\n1.0,2.0,1\n")
        with pytest.raises(FormatError):
            read_data_csv(path, SCHEMAS)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("age,dose,stage,site\n1.0,2.0,1\n")
        with pytest.raises(FormatError):
            read_data_csv(path, SCHEMAS)

    def test_empty_and_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_data_csv(path, SCHEMAS)
        path.write_text("age,dose,stage,site\n")
        with pytest.raises(FormatError):
            read_data_csv(path, SCHEMAS)

    def test_missing_token_clash(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("age,dose,stage,site\n1.0,2.0,1,north\n")
        # a categorical symbol, an ordinal level, and texts that int reads as a level
        for token in ("north", "2", " 2 ", "\u0662"):
            with pytest.raises(FormatError):
                read_data_csv(path, SCHEMAS, missing_token=token)

    def test_missing_token_clash_beyond_int64(self, tmp_path):
        """A level too large for int64 is read cell by cell, and so is the token."""
        path = tmp_path / "data.csv"
        path.write_text("stage\n1\n")
        schemas = (VariableSchema("stage", "ordinal", (1, 2 ** 70)),)
        for token in ("1", str(2 ** 70)):
            with pytest.raises(FormatError, match=f"missing token '{token}'"):
                read_data_csv(path, schemas, missing_token=token)
        assert read_data_csv(path, schemas, missing_token="2").row(0) == (1,)

    @pytest.mark.parametrize("token", ["north", "2", "0.0", "-0.75"])
    def test_write_refuses_a_token_that_would_not_read_back(self, tmp_path, token):
        """A symbol, a level, or the text of an observed value (the 0.0 dose,
        the -0.75 age) would read back as MISSING: refused, and no file written,
        also where the only clashing cells follow 520 rows, in the third chunk of
        256 records, after two chunks were written."""
        rows = [(1.5, 3.25, 2, "south")] * 520 + [self._dataset().row(i) for i in range(3)]
        for dataset in (self._dataset(), Dataset(SCHEMAS, rows)):
            with pytest.raises(FormatError, match=f"missing token '{token}'"):
                write_data_csv(dataset, tmp_path / "data.csv", missing_token=token)
            assert not any(tmp_path.iterdir())  # not even a .tmp-* file

    def test_write_refuses_a_bad_cell_past_row_512(self, tmp_path):
        """A cohort whose one bad cell, at row 530, is in the third chunk of 256
        records: SchemaViolationError naming it, and no file written."""
        rows = [(1.5, 3.25, 2, "south")] * 600
        rows[530] = (1.5, 3.25, 2, "east")
        with pytest.raises(SchemaViolationError) as caught:
            write_data_csv(Dataset(SCHEMAS, rows), tmp_path / "data.csv")
        assert [(v.row, v.column) for v in caught.value.violations] == [(530, "site")]
        assert not any(tmp_path.iterdir())  # not even a .tmp-* file

    def test_unparseable_kept_for_validator(self, tmp_path):
        from hetmix import validate_dataset
        path = tmp_path / "data.csv"
        path.write_text("age,dose,stage,site\noops,2.0,1,north\n")
        loaded = read_data_csv(path, SCHEMAS)
        violations = validate_dataset(loaded)
        assert violations and violations[0].column == "age"
        assert "'oops'" in violations[0].message
        with pytest.raises(SchemaViolationError):
            loaded.value(0, 0)


@pytest.fixture(params=["data", "evidence"])
def read_csv(request):
    """A reader of CSV files over SCHEMAS: read_data_csv, or read_evidence_csv
    under a one-component model over them, each giving its Dataset."""
    if request.param == "data":
        return lambda path: read_data_csv(path, SCHEMAS)
    rng = np.random.default_rng(0)
    model = MixtureModel([1.0], (tuple(random_cell_params(s, rng) for s in SCHEMAS),),
                         np.full((1, len(SCHEMAS)), 0.2), SCHEMAS)
    return lambda path: read_evidence_csv(path, model)[0]


class TestRecordWidths:
    """Each chunk of records is checked at once; the error names the first bad record."""

    HEADER = "age,dose,stage,site\n"

    def test_short_record_in_the_second_chunk(self, read_csv, tmp_path):
        path = tmp_path / "data.csv"
        records = ["1.0,2.0,1,north\n"] * 600
        records[300] = "1.0,2.0,1\n"
        records[400] = "1.0,2.0,1,north,extra\n"
        path.write_text(self.HEADER + "".join(records))
        with pytest.raises(FormatError) as err:
            read_csv(path)
        assert str(err.value) == f"{path}: row 300 has 3 fields, expected 4"

    @pytest.mark.parametrize("record", ["1.0,2.0,1\n", "\n"], ids=["short", "blank"])
    def test_every_record_of_one_wrong_width(self, read_csv, tmp_path, record):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + record * 300)
        with pytest.raises(FormatError) as err:
            read_csv(path)
        width = record.count(",") + 1 if record.strip() else 0
        assert str(err.value) == f"{path}: row 0 has {width} fields, expected 4"


class TestUnreadableFiles:
    """A file that cannot be read is a FormatError that names it: a CSV cell past
    csv's field limit, a byte that is not UTF-8, JSON nested too deeply or holding an
    integer past Python's digit limit. A leading UTF-8 byte-order mark is read past."""

    def test_cell_past_the_field_limit(self, read_csv, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("age,dose,stage,site\n1.0,2.0,1,north\n"
                        + "1" * 200_000 + ",2.0,1,north\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 3: field larger"):
            read_csv(path)

    def test_csv_byte_not_utf8(self, read_csv, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"age,dose,\xffstage,site\n1.0,2.0,1,north\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*byte 0xff"):
            read_csv(path)

    def test_csv_byte_order_mark(self, read_csv, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_data_csv(Dataset(SCHEMAS, [(1.5, 0.0, 2, "north"), (MISSING, 3.25, 1, "south")]),
                       plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert_same_store(read_csv(marked), read_csv(plain))

    @pytest.mark.parametrize("text", [b"[" * 200_000, b'{"format_version": \xff1}',
                                      b"[" + b"1" * 5000 + b"]"],
                             ids=["nested", "not-utf8", "int-past-the-digit-limit"])
    @pytest.mark.parametrize("load", [load_schemas, load_model])
    def test_unreadable_json(self, tmp_path, text, load):
        path = tmp_path / "file.json"
        path.write_bytes(text)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not valid JSON"):
            load(path)

    def test_json_byte_order_mark(self, tmp_path):
        path = tmp_path / "schema.json"
        save_schemas(SCHEMAS, path)
        assert not path.read_bytes().startswith(b"\xef\xbb\xbf")  # written without one
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_schemas(path) == SCHEMAS


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        schema_path = tmp_path / "schema.json"
        data_path = tmp_path / "data.csv"
        save_schemas(SCHEMAS, schema_path)
        data_path.write_text("age,dose,stage,site\n"
                             "1.0,2.0,1,north\n"
                             "2.0,,3,south\n"
                             "3.0,1.5,1,north\n")
        dataset, dropped = load_dataset(data_path, schema_path)
        assert dataset.n_subjects == 3
        assert dropped == []
        assert dataset.value(1, 1) is MISSING

    def test_violations_raise(self, tmp_path):
        schema_path = tmp_path / "schema.json"
        data_path = tmp_path / "data.csv"
        save_schemas(SCHEMAS, schema_path)
        data_path.write_text("age,dose,stage,site\n"
                             "1.0,-2.0,1,north\n"
                             "2.0,1.0,3,south\n")
        with pytest.raises(SchemaViolationError) as err:
            load_dataset(data_path, schema_path)
        assert any(v.column == "dose" for v in err.value.violations)

    def test_drop_constant(self, tmp_path):
        schema_path = tmp_path / "schema.json"
        data_path = tmp_path / "data.csv"
        save_schemas(SCHEMAS, schema_path)
        data_path.write_text("age,dose,stage,site\n"
                             "1.0,2.0,1,north\n"
                             "1.0,1.5,3,south\n")
        with pytest.raises(SchemaViolationError):
            load_dataset(data_path, schema_path)
        dataset, dropped = load_dataset(data_path, schema_path, drop_constant=True)
        assert dropped == ["age"]
        assert dataset.names == ("dose", "stage", "site")

    def test_drop_leaving_no_column_names_each(self, tmp_path):
        """A cohort whose every column carries no information is not reduced: the
        check names each column's own violation, in column order."""
        schema_path = tmp_path / "schema.json"
        data_path = tmp_path / "data.csv"
        save_schemas((VariableSchema("b", "real"), VariableSchema("a", "real")), schema_path)
        data_path.write_text("b,a\n2.5,\n2.5,\n")
        with pytest.raises(SchemaViolationError) as caught:
            load_dataset(data_path, schema_path, drop_constant=True)
        assert [(v.row, v.column, v.message) for v in caught.value.violations] == [
            (None, "b", "constant column (always 2.5)"), (None, "a", "no observed values")]


class TestLabels:
    def test_write(self, tmp_path):
        """``simulate`` writes its labels as a report table."""
        path = tmp_path / "labels.csv"
        write_csv_table(path, ["subject", "component"], enumerate(np.array([2, 0, 1]).tolist()))
        assert path.read_text() == "subject,component\n0,2\n1,0\n2,1\n"


class TestModelFiles:
    def test_params_round_trip_exact(self, rng):
        model = random_model(rng)
        for row in model.params:
            for cell in row:
                assert params_from_dict(params_to_dict(cell)) == cell

    # one cell per family, with the text json writes for its params_to_dict: a level past
    # int64 stays an int, and numpy inputs are stored (and written) as Python floats
    CELLS = [
        (Gaussian(np.float64(1.0) / 3.0, 0.1 + 0.2),
         '{"family": "gaussian", "mean": 0.3333333333333333, "variance": 0.30000000000000004}'),
        (InflatedGamma(0.25, np.float32(1.5), 3),
         '{"family": "inflated_gamma", "scale": 3.0, "shape": 1.5, "zero_prob": 0.25}'),
        (QuantizedGaussian(2.5, 4.0, (1, 2**70)),
         '{"domain": [1, 1180591620717411303424], "family": "quantized_gaussian", '
         '"mean": 2.5, "variance": 4.0}'),
        (Categorical(np.array([0.2, 0.3, 0.5]), ("a", "b", "c")),
         '{"domain": ["a", "b", "c"], "family": "categorical", "probs": [0.2, 0.3, 0.5]}')]

    @pytest.mark.parametrize("cell, text", CELLS, ids=lambda c: getattr(c, "family", ""))
    def test_cell_json(self, cell, text):
        assert json.dumps(params_to_dict(cell), sort_keys=True) == text
        assert json.loads(json.dumps(params_to_dict(cell))) == json.loads(text)

    def test_four_family_model_json(self):
        schemas = (VariableSchema("x", "real"), VariableSchema("dose", "nonnegative"),
                   VariableSchema("grade", "ordinal", (1, 2**70)),
                   VariableSchema("site", "categorical", ("a", "b", "c")))
        second = (Gaussian(-2.0, 0.5), InflatedGamma(0.0, 2.0, 0.5),
                  QuantizedGaussian(2**69, 1e40, (1, 2**70)),
                  Categorical((0.5, 0.25, 0.25), ("a", "b", "c")))
        model = MixtureModel((0.25, 0.75), ([cell for cell, _ in self.CELLS], second),
                             [[0.1, 0.2, 0.3, 0.4], [0.5, 0.0, 0.125, 1e-300]], schemas)
        cells = ", ".join(text for _, text in self.CELLS)
        assert json.dumps(model_to_dict(model), sort_keys=True) == (
            '{"components": [[' + cells + '], [{"family": "gaussian", "mean": -2.0, '
            '"variance": 0.5}, {"family": "inflated_gamma", "scale": 0.5, "shape": 2.0, '
            '"zero_prob": 0.0}, {"domain": [1, 1180591620717411303424], "family": '
            '"quantized_gaussian", "mean": 5.902958103587057e+20, "variance": 1e+40}, '
            '{"domain": ["a", "b", "c"], "family": "categorical", "probs": [0.5, 0.25, 0.25]}]], '
            '"format_version": 1, "missing_probs": [[0.1, 0.2, 0.3, 0.4], '
            '[0.5, 0.0, 0.125, 1e-300]], "variables": [{"kind": "real", "name": "x", '
            '"role": "input"}, {"kind": "nonnegative", "name": "dose", "role": "input"}, '
            '{"domain": [1, 1180591620717411303424], "kind": "ordinal", "name": "grade", '
            '"role": "input"}, {"domain": ["a", "b", "c"], "kind": "categorical", '
            '"name": "site", "role": "input"}], "weights": [0.25, 0.75]}')

    def test_model_round_trip_exact(self, tmp_path, rng):
        for _ in range(5):
            model = random_model(rng)
            path = tmp_path / "model.json"
            save_model(model, path)
            loaded = load_model(path)
            assert model_to_dict(loaded) == model_to_dict(model)
            assert np.array_equal(loaded.weights, model.weights)
            assert np.array_equal(loaded.missing_probs, model.missing_probs)
            assert loaded.params == model.params
            assert loaded.schemas == model.schemas

    def test_serialized_floats_are_exact(self, tmp_path):
        schema = (VariableSchema("x", "real"),)
        model = MixtureModel((1.0,), ((Gaussian(1.0 / 3.0, 0.1 + 0.2),),),
                             [[0.123456789012345678]], schema)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.params[0][0].mean == 1.0 / 3.0
        assert loaded.params[0][0].variance == 0.1 + 0.2
        assert loaded.missing_probs[0, 0] == 0.123456789012345678

    def test_bad_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 0}))
        with pytest.raises(FormatError):
            load_model(path)

    def test_bad_family(self):
        with pytest.raises(FormatError):
            params_from_dict({"family": "triangular", "mean": 0.0})
        with pytest.raises(FormatError):
            model_from_dict(["not", "an", "object"])

    def test_stacked_weights_refused(self):
        payload = model_to_dict(MixtureModel((0.5, 0.5), ((Gaussian(0.0, 1.0),),
                                                          (Gaussian(1.0, 1.0),)),
                                             [[0.1], [0.1]], (VariableSchema("x", "real"),)))
        model_from_dict(payload)
        payload["weights"] = [[1.0], [1.0]]
        with pytest.raises(FormatError, match="non-empty vector"):
            model_from_dict(payload)

    @pytest.mark.parametrize("field, edit", [
        ("weights", lambda p: {**p, "weights": ["0.7", "0.3"]}),
        ("missing_probs", lambda p: {**p, "missing_probs": [["0.1"], ["0.1"]]}),
        ("weights", lambda p: {**p, "weights": [True, False]}),
        ("missing_probs", lambda p: {**p, "missing_probs": [[False], [True]]}),
        ("mean", lambda p: {**p, "components": [[{**p["components"][0][0], "mean": True}],
                                                p["components"][1]]}),
    ], ids=["string-weights", "string-missing-probs", "bool-weights", "bool-missing-probs",
            "bool-mean"])
    def test_non_numbers_refused(self, field, edit):
        """A string (which NumPy would parse) or a bool (which it would read as
        1.0 or 0.0) where a number belongs is refused, naming the field."""
        payload = model_to_dict(MixtureModel((0.7, 0.3), ((Gaussian(0.0, 1.0),),
                                                          (Gaussian(1.0, 1.0),)),
                                             [[0.1], [0.1]], (VariableSchema("x", "real"),)))
        model_from_dict(payload)
        with pytest.raises(FormatError, match=rf"{field} must be numbers \(not bools or text\)"):
            model_from_dict(edit(payload))

    def test_sampled_cohort_file_round_trip(self, tmp_path, rng):
        model = random_model(rng)
        cohort, _ = sample_cohort(model, 30, np.random.default_rng(4))
        path = tmp_path / "cohort.csv"
        write_data_csv(cohort, path)
        loaded = read_data_csv(path, model.schemas)
        for i in range(30):
            assert loaded.row(i) == cohort.row(i)


# report-table cells: floats at the edges of repr's forms, ints, flags, None, and text
# that csv must quote
_TABLE_CELL = st.one_of(
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-5]),
    st.integers(), st.booleans(), st.none(),
    st.text(st.sampled_from(["a", ",", '"', "\n", "\r", " ", "é"]), max_size=5))


class TestCsvTable:
    def test_floats_and_bools(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv_table(path, ["a", "b", "c"],
                        [[1, 0.1, True], [2, 2.0 / 3.0, False]])
        text = path.read_text()
        assert text.splitlines()[0] == "a,b,c"
        assert text.splitlines()[1] == "1,0.1,True"
        assert text.splitlines()[2] == f"2,{2.0 / 3.0!r},False"

    def test_none_is_an_empty_cell(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv_table(path, ["a", "b", "c"], [(2, None, "x"), (None, None, None)])
        assert path.read_text() == "a,b,c\n2,,x\n,,\n"

    def test_a_lone_none_is_a_quoted_empty_field(self, tmp_path):
        """A one-column row whose cell is None: csv quotes the empty field, so that the
        line reads back as one cell, not as a blank line."""
        path = tmp_path / "table.csv"
        write_csv_table(path, ["a"], [(None,), (1.5,)])
        assert path.read_text() == 'a\n""\n1.5\n'
        with open(path, encoding="utf-8", newline="") as handle:
            assert list(csv.reader(handle)) == [["a"], [""], ["1.5"]]

    def test_floats_use_repr(self, tmp_path):
        """A numpy float is a float subclass: csv writes it by its value's repr too."""
        path = tmp_path / "table.csv"
        write_csv_table(path, ["a", "b", "c"], [(0.1, 1.0 / 3.0, np.float64(2.5))])
        assert path.read_text() == f"a,b,c\n0.1,{1.0 / 3.0!r},2.5\n"

    def test_ints_and_symbols(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv_table(path, ["a", "b", "c"], [(7, np.int64(7), "north")])
        assert path.read_text() == "a,b,c\n7,7,north\n"

    @given(rows=st.lists(st.lists(_TABLE_CELL, min_size=3, max_size=3), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_cells_as_each_kind_is_written(self, tmp_path_factory, rows):
        """Byte for byte, every row as csv writes cells made text one by one: "" for None,
        str for a bool, repr for a float, str for any other value."""
        path = tmp_path_factory.mktemp("table") / "table.csv"
        write_csv_table(path, ["a", "b,c", 'd"'], rows)
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(
            [["a", "b,c", 'd"'], *(["" if c is None else str(c) if type(c) is bool else
                                    repr(c) if type(c) is float else str(c) for c in row]
                                   for row in rows)])
        assert path.read_bytes() == want.getvalue().encode("utf-8")
