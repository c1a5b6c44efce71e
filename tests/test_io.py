"""Round trips for schema JSON, data CSV, model JSON, and report tables."""

import json
import os

import numpy as np
import pytest

from conftest import random_model
from hetmix import (MISSING, Dataset, Gaussian, MixtureModel, SchemaViolationError,
                    VariableSchema, sample_cohort)
from hetmix.io import (FormatError, atomic_write_text, format_value,
                       load_dataset, load_model, load_schemas, model_from_dict,
                       model_to_dict, params_from_dict, params_to_dict,
                       read_data_csv, save_model, save_schemas, sha256_file,
                       write_csv_table, write_data_csv, write_labels_csv)

SCHEMAS = (VariableSchema("age", "real"),
           VariableSchema("dose", "nonnegative"),
           VariableSchema("stage", "ordinal", (1, 2, 3), role="outcome"),
           VariableSchema("site", "categorical", ("north", "south")))


class TestFormatValue:
    def test_floats_use_repr(self):
        assert format_value(0.1) == "0.1"
        assert format_value(1.0 / 3.0) == repr(1.0 / 3.0)
        assert float(format_value(np.float64(2.5))) == 2.5

    def test_ints_and_symbols(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(7)) == "7"
        assert format_value("north") == "north"

    def test_missing_and_bool(self):
        assert format_value(MISSING) == ""
        assert format_value(MISSING, "NA") == "NA"
        with pytest.raises(ValueError):
            format_value(True)


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        atomic_write_text(target, "replaced\n")
        assert target.read_text() == "replaced\n"
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
        for token in ("north", "2"):  # a categorical symbol, an ordinal level
            with pytest.raises(FormatError):
                read_data_csv(path, SCHEMAS, missing_token=token)

    def test_unparseable_kept_for_validator(self, tmp_path):
        from hetmix import validate_dataset
        path = tmp_path / "data.csv"
        path.write_text("age,dose,stage,site\noops,2.0,1,north\n")
        loaded = read_data_csv(path, SCHEMAS)
        assert loaded.value(0, 0) == "oops"
        violations = validate_dataset(loaded)
        assert violations and violations[0].column == "age"


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


class TestLabels:
    def test_write(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels_csv(np.array([2, 0, 1]), path)
        assert path.read_text() == "subject,component\n0,2\n1,0\n2,1\n"


class TestModelFiles:
    def test_params_round_trip_exact(self, rng):
        model = random_model(rng)
        for row in model.params:
            for cell in row:
                assert params_from_dict(params_to_dict(cell)) == cell

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

    def test_sampled_cohort_file_round_trip(self, tmp_path, rng):
        model = random_model(rng)
        cohort, _ = sample_cohort(model, 30, np.random.default_rng(4))
        path = tmp_path / "cohort.csv"
        write_data_csv(cohort, path)
        loaded = read_data_csv(path, model.schemas)
        for i in range(30):
            assert loaded.row(i) == cohort.row(i)


class TestCsvTable:
    def test_floats_and_bools(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv_table(path, ["a", "b", "c"],
                        [[1, 0.1, True], [2, 2.0 / 3.0, False]])
        text = path.read_text()
        assert text.splitlines()[0] == "a,b,c"
        assert text.splitlines()[1] == "1,0.1,True"
        assert text.splitlines()[2] == f"2,{2.0 / 3.0!r},False"
