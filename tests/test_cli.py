"""End-to-end command-line runs, exercised in process through main()."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hetmix
from hetmix import (MISSING, Categorical, Gaussian, InferenceRequest,
                    InflatedGamma, MixtureModel, QuantizedGaussian,
                    SchemaViolationError, VariableSchema, ZeroLikelihoodError,
                    infer, point_predict)
from hetmix.cli import main, parse_orders
from hetmix.io import (load_dataset, load_model, model_to_dict, params_to_dict,
                       save_model, save_schemas)

from conftest import m_step_alone, widest_fit_values


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _last_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])["error"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared demo model, simulated cohort, and an order-1 fit."""
    root = tmp_path_factory.mktemp("cli")
    demo = root / "demo"
    assert main(["demo-model", "--out-dir", str(demo), "--variant", "small"]) == 0
    sim = root / "sim"
    assert main(["simulate", "--out-dir", str(sim),
                 "--model", str(demo / "model.json"),
                 "--n", "60", "--seed", "3"]) == 0
    fit1 = root / "fit1"
    assert main(["fit", "--out-dir", str(fit1),
                 "--data", str(sim / "cohort.csv"),
                 "--schema", str(sim / "schema.json"),
                 "--order", "1", "--restarts", "1"]) == 0
    return {"root": root, "demo": demo, "sim": sim, "fit1": fit1,
            "data": sim / "cohort.csv", "schema": sim / "schema.json"}


class TestParseOrders:
    def test_forms(self):
        assert parse_orders("3") == [3]
        assert parse_orders("1,2,5") == [1, 2, 5]
        assert parse_orders("1-4") == [1, 2, 3, 4]
        assert parse_orders("2,1-3,2") == [1, 2, 3]

    def test_empty_or_reversed(self):
        with pytest.raises(ValueError):
            parse_orders("")
        with pytest.raises(ValueError):
            parse_orders("5-3")
        # a reversed range inside a list is refused too, not dropped
        for text in ("1,3-1", "3-1,2", "1-2,6-4"):
            with pytest.raises(ValueError, match="reversed range"):
                parse_orders(text)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("hetmix ")

    def test_usage_errors_exit_2(self, work):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--out-dir", "x"])  # no data/schema/order
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["infer", "--out-dir", "x", "--model", "m", "--evidence", "e"])
        assert err.value.code == 2  # --mode is mandatory
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--out-dir", "x",
                  "--data", str(work["data"]), "--schema", str(work["schema"]),
                  "--orders", "1"])
        assert err.value.code == 2  # --mode is mandatory here too

    def test_missing_file_exit_6(self, tmp_path, capsys):
        code = main(["fit", "--out-dir", str(tmp_path / "out"),
                     "--data", str(tmp_path / "nope.csv"),
                     "--schema", str(tmp_path / "nope.json"),
                     "--order", "1"])
        assert code == 6
        assert _last_error(capsys)["category"] == "io"

    def test_import_loads_no_scipy(self):
        """The command line runs on NumPy and the standard library alone."""
        code = ("import hetmix.cli, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(hetmix.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout == "[]\n"


class TestDemoAndSimulate:
    def test_demo_model_files(self, work):
        model = load_model(work["demo"] / "model.json")
        assert model.n_components == 3
        assert model.n_variables == 8
        manifest = json.loads((work["demo"] / "manifest.json").read_text())
        assert manifest["command"] == "demo-model"
        assert manifest["outputs"] == ["model.json", "schema.json"]

    def test_full_variant(self, tmp_path):
        out = tmp_path / "full"
        assert main(["demo-model", "--out-dir", str(out)]) == 0
        assert load_model(out / "model.json").n_variables == 20

    def test_simulated_cohort_shape(self, work):
        dataset, dropped = load_dataset(work["data"], work["schema"])
        assert dataset.n_subjects == 60
        assert dropped == []
        header, rows = _read_csv(work["sim"] / "labels.csv")
        assert header == ["subject", "component"]
        assert {r[1] for r in rows} <= {"0", "1", "2"}

    def test_simulate_rejects_zero_subjects(self, work, tmp_path, capsys):
        code = main(["simulate", "--out-dir", str(tmp_path / "out"),
                     "--model", str(work["demo"] / "model.json"), "--n", "0"])
        assert code == 3
        assert _last_error(capsys)["category"] == "validation"

    def test_all_missing_model_gives_empty_fields(self, work, tmp_path):
        base = load_model(work["demo"] / "model.json")
        opaque = MixtureModel(base.weights, base.params,
                              np.ones_like(base.missing_probs), base.schemas)
        model_path = tmp_path / "opaque.json"
        save_model(opaque, model_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--out-dir", str(out),
                     "--model", str(model_path), "--n", "3"]) == 0
        lines = (out / "cohort.csv").read_text().splitlines()
        assert lines[1:] == ["," * (base.n_variables - 1)] * 3


    @pytest.mark.parametrize("variable, block", [
        ("severity", {"family": "gaussian", "mean": 3.0, "variance": 1.0}),
        ("site", {"family": "categorical", "probs": [0.5, 0.5],
                  "domain": ["north", "south"]}),
    ])
    def test_mismatched_model_file_exit_3(self, work, tmp_path, capsys, variable, block):
        payload = json.loads((work["demo"] / "model.json").read_text())
        j = [v["name"] for v in payload["variables"]].index(variable)
        payload["components"][0][j] = block
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        evidence = tmp_path / "evidence.csv"
        evidence.write_text("marker_a\n0.5\n")
        assert main(["simulate", "--out-dir", str(tmp_path / "sim"),
                     "--model", str(model_path), "--n", "20"]) == 3
        assert _last_error(capsys)["category"] == "validation"
        assert main(["infer", "--out-dir", str(tmp_path / "infer"),
                     "--model", str(model_path), "--evidence", str(evidence),
                     "--mode", "model_missing"]) == 3
        assert _last_error(capsys)["category"] == "validation"

    @pytest.mark.parametrize("edit", [
        lambda payload: payload["weights"].__setitem__(0, float("nan")),
        lambda payload: payload["components"][0][0].__setitem__("mean", float("inf")),
    ])
    def test_non_finite_model_file_exit_3(self, work, tmp_path, capsys, edit):
        payload = json.loads((work["demo"] / "model.json").read_text())
        edit(payload)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        evidence = tmp_path / "evidence.csv"
        evidence.write_text("marker_a\n0.5\n")
        assert main(["simulate", "--out-dir", str(tmp_path / "sim"),
                     "--model", str(model_path), "--n", "20"]) == 3
        assert _last_error(capsys)["category"] == "validation"
        assert not (tmp_path / "sim" / "cohort.csv").exists()
        assert main(["infer", "--out-dir", str(tmp_path / "infer"),
                     "--model", str(model_path), "--evidence", str(evidence),
                     "--mode", "model_missing"]) == 3
        assert _last_error(capsys)["category"] == "validation"
        assert not (tmp_path / "infer" / "predictions.jsonl").exists()


class TestValidate:
    def test_clean_cohort(self, work, tmp_path):
        out = tmp_path / "report"
        assert main(["validate", "--out-dir", str(out),
                     "--data", str(work["data"]),
                     "--schema", str(work["schema"])]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["subjects"] == 60
        assert report["violations"] == []
        curve = report["subjects_with_at_least_m_missing"]
        assert curve[0] == 60
        assert curve == sorted(curve, reverse=True)

    def test_violations_exit_3_with_report(self, work, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        text = work["data"].read_text().splitlines()
        fields = text[1].split(",")
        fields[text[0].split(",").index("site")] = "atlantis"
        bad.write_text("\n".join([text[0], ",".join(fields)] + text[2:]) + "\n")
        out = tmp_path / "report"
        code = main(["validate", "--out-dir", str(out),
                     "--data", str(bad), "--schema", str(work["schema"])])
        assert code == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert error["violations"][0]["column"] == "site"
        report = json.loads((out / "validation_report.json").read_text())
        assert len(report["violations"]) == 1
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("name", ["marker_a", "site"])
    def test_bad_text_column_is_not_dropped_as_constant(self, work, tmp_path, capsys, name):
        """A column whose every cell holds the same bad text is reported cell
        by cell, not dropped as a constant column, by validate and by fit."""
        bad = tmp_path / "bad.csv"
        text = work["data"].read_text().splitlines()
        column = text[0].split(",").index(name)
        lines = [text[0]]
        for line in text[1:]:
            fields = line.split(",")
            fields[column] = "oops"
            lines.append(",".join(fields))
        bad.write_text("\n".join(lines) + "\n")
        data = ["--data", str(bad), "--schema", str(work["schema"]),
                "--drop-zero-variability"]
        assert main(["validate", "--out-dir", str(tmp_path / "report")] + data) == 3
        report = json.loads((tmp_path / "report" / "validation_report.json").read_text())
        assert report["dropped_columns"] == []
        assert len(report["violations"]) == 60
        assert all(v["column"] == name and "'oops'" in v["message"]
                   for v in report["violations"])
        capsys.readouterr()
        assert main(["fit", "--out-dir", str(tmp_path / "fit"), "--order", "1",
                     "--restarts", "1"] + data) == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert [v["row"] for v in error["violations"]] == list(range(60))
        assert not (tmp_path / "fit" / "model.json").exists()


    def test_schema_naming_a_variable_twice_exit_3(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "variables": [
            {"name": "x", "kind": "real"}, {"name": "x", "kind": "real"}]}))
        data = tmp_path / "data.csv"
        data.write_text("x,x\n1.0,2.0\n3.0,4.0\n")
        assert main(["validate", "--out-dir", str(tmp_path / "report"),
                     "--data", str(data), "--schema", str(schema)]) == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert "duplicate variable names: ['x']" in error["message"]

    def test_schema_variables_not_a_list_exit_3(self, work, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "variables": 5}))
        assert main(["validate", "--out-dir", str(tmp_path / "report"),
                     "--data", str(work["data"]), "--schema", str(schema)]) == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert "'variables' list" in error["message"]


class TestFit:
    def test_order_one_is_the_column_mle(self, work):
        dataset, _ = load_dataset(work["data"], work["schema"])
        expected, _ = m_step_alone(dataset, np.ones((dataset.n_subjects, 1)))
        fitted = load_model(work["fit1"] / "model.json")
        assert model_to_dict(fitted) == model_to_dict(expected)

    def test_trace_is_non_increasing(self, work):
        header, rows = _read_csv(work["fit1"] / "trace.csv")
        assert header == ["iteration", "nll"]
        nlls = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-8 for a, b in zip(nlls, nlls[1:]))

    def test_identical_runs_are_byte_identical(self, work, tmp_path):
        out2 = tmp_path / "fit2"
        assert main(["fit", "--out-dir", str(out2),
                     "--data", str(work["data"]),
                     "--schema", str(work["schema"]),
                     "--order", "1", "--restarts", "1"]) == 0
        for name in ("model.json", "trace.csv", "manifest.json"):
            assert (out2 / name).read_bytes() == \
                (work["fit1"] / name).read_bytes()

    def test_bad_order_exit_3(self, work, tmp_path, capsys):
        code = main(["fit", "--out-dir", str(tmp_path / "out"),
                     "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--order", "0"])
        assert code == 3
        assert _last_error(capsys)["category"] == "validation"


class TestFitRange:
    """Values EM cannot fit are refused by validation, exit 3, not a crash in
    EM; the values just inside the bounds fit with no RuntimeWarning."""

    SPAN, LARGEST = widest_fit_values()

    @staticmethod
    def _fit(tmp_path, x, conc):
        schema = tmp_path / "schema.json"
        save_schemas((VariableSchema("x", "real"), VariableSchema("conc", "nonnegative")), schema)
        data = tmp_path / "data.csv"
        rows = zip((*x, 0.5, 1.0, -3.0, 2.0), (*conc, 0.0, 1.5, 4.0, 0.0))
        data.write_text("x,conc\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        return main(["fit", "--out-dir", str(tmp_path / "fit"), "--data", str(data),
                     "--schema", str(schema), "--order", "2", "--restarts", "2"])

    @pytest.mark.parametrize("x, conc, column", [
        ((2e154, -1e154), (1.0, 2.0), "x"),
        ((1e308, -1e308), (1.0, 2.0), "x"),
        ((0.25, -0.25), (1.7e308, 2.0), "conc"),
        ((0.25, -0.25), (float(np.nextafter(LARGEST, np.inf)), 2.0), "conc")])
    def test_values_too_large_to_fit_exit_3(self, tmp_path, capsys, x, conc, column):
        assert self._fit(tmp_path, x, conc) == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert [(v["row"], v["column"]) for v in error["violations"]] == [(None, column)]
        assert not (tmp_path / "fit" / "model.json").exists()

    @pytest.mark.parametrize("x, conc", [
        ((0.0, SPAN), (1.0, 2.0)),
        ((-SPAN / 2, SPAN / 2), (1.0, 2.0)),
        ((0.25, -0.25), (LARGEST, 2.0)),
        ((0.25, -0.25), (LARGEST, LARGEST))])
    def test_values_just_inside_the_bounds_fit(self, tmp_path, x, conc):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self._fit(tmp_path, x, conc) == 0
        model = load_model(tmp_path / "fit" / "model.json")
        assert all(np.isfinite(a).all() for block in model._blocks for a in block)


class TestSelect:
    def test_order_range_table(self, work, tmp_path):
        out = tmp_path / "select"
        assert main(["select", "--out-dir", str(out),
                     "--data", str(work["data"]),
                     "--schema", str(work["schema"]),
                     "--orders", "1-3", "--restarts", "2",
                     "--max-iterations", "80"]) == 0
        header, rows = _read_csv(out / "bic_table.csv")
        assert header == ["order", "n_params", "nll", "bic", "converged", "error"]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        nlls = [float(r[2]) for r in rows]
        assert all(b <= a + 1e-8 for a, b in zip(nlls, nlls[1:]))
        assert load_model(out / "model.json").n_components >= 1

    def test_single_order(self, work, tmp_path, capsys):
        out = tmp_path / "select1"
        assert main(["select", "--out-dir", str(out),
                     "--data", str(work["data"]),
                     "--schema", str(work["schema"]),
                     "--orders", "1", "--restarts", "1"]) == 0
        assert "selected order 1" in capsys.readouterr().out
        _, rows = _read_csv(out / "bic_table.csv")
        assert len(rows) == 1


class TestInfer:
    def _evidence(self, tmp_path, rows):
        path = tmp_path / "evidence.csv"
        path.write_text("marker_a,site\n" + "\n".join(rows) + "\n")
        return path

    def test_predictions_jsonl(self, work, tmp_path):
        evidence = self._evidence(tmp_path, ["-4.2,alpha", ",beta"])
        out = tmp_path / "infer"
        assert main(["infer", "--out-dir", str(out),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(evidence),
                     "--mode", "model_missing"]) == 0
        lines = (out / "predictions.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert sum(record["posterior"]) == pytest.approx(1.0)
            assert set(record["targets"]) == {"severity", "status"}
            severity = record["targets"]["severity"]
            assert severity["domain"] == list(range(1, 9))
            assert sum(severity["probabilities"]) == pytest.approx(1.0)
            assert severity["point"] in severity["domain"]

    def test_explicit_target_subset(self, work, tmp_path):
        evidence = self._evidence(tmp_path, ["0.5,gamma"])
        out = tmp_path / "infer"
        assert main(["infer", "--out-dir", str(out),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(evidence),
                     "--targets", "severity",
                     "--mode", "ignore_missing"]) == 0
        record = json.loads((out / "predictions.jsonl").read_text())
        assert list(record["targets"]) == ["severity"]

    def test_bad_record_exit_5_keeps_good_lines(self, work, tmp_path, capsys):
        evidence = self._evidence(tmp_path, ["-4.2,alpha", "0.1,atlantis"])
        out = tmp_path / "infer"
        code = main(["infer", "--out-dir", str(out),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(evidence),
                     "--mode", "model_missing"])
        assert code == 5
        assert _last_error(capsys)["category"] == "inference"
        lines = [json.loads(l) for l in
                 (out / "predictions.jsonl").read_text().splitlines()]
        assert "targets" in lines[0]
        assert "error" in lines[1]
        assert (out / "manifest.json").exists()

    def test_unknown_target_exit_3(self, work, tmp_path, capsys):
        evidence = self._evidence(tmp_path, ["0.5,alpha"])
        code = main(["infer", "--out-dir", str(tmp_path / "out"),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(evidence),
                     "--targets", "bogus", "--mode", "model_missing"])
        assert code == 3
        assert _last_error(capsys)["category"] == "validation"

    def test_duplicate_targets_exit_3_before_any_record(self, work, tmp_path, capsys):
        evidence = self._evidence(tmp_path, ["0.5,alpha", "-4.2,beta"])
        out = tmp_path / "out"
        code = main(["infer", "--out-dir", str(out),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(evidence),
                     "--targets", "severity,severity", "--mode", "model_missing"])
        assert code == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert error["message"] == "duplicate targets"
        assert not (out / "predictions.jsonl").exists()

    def test_target_as_evidence_column_exit_3(self, work, tmp_path, capsys):
        path = tmp_path / "evidence.csv"
        path.write_text("severity,site\n3,alpha\n")
        code = main(["infer", "--out-dir", str(tmp_path / "out"),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(path),
                     "--mode", "model_missing"])
        assert code == 3

    def test_missing_token_clash_exit_3(self, work, tmp_path, capsys):
        evidence = self._evidence(tmp_path, ["0.5,alpha"])
        code = main(["infer", "--out-dir", str(tmp_path / "out"),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(evidence),
                     "--missing-token", "alpha", "--mode", "model_missing"])
        assert code == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert "missing token 'alpha'" in error["message"]


class TestInferMatchesPerRecordInfer:
    """Each predictions.jsonl line is what per-record ``infer`` returns or raises."""

    # header order differs from the schema's (marker_a, marker_b, dose, stage, ...)
    HEADER = "site,dose,marker_a,stage"
    RECORDS = ["alpha,2.5,-4.2,3",      # clean
               "beta,,0.1,2",           # explicit missing-token cell
               "atlantis,2.5,oops,3",   # two bad cells
               "delta,1.0,0.0,2"]       # a category of zero mass
    EVIDENCE = [{"site": "alpha", "dose": 2.5, "marker_a": -4.2, "stage": 3},
                {"site": "beta", "dose": MISSING, "marker_a": 0.1, "stage": 2},
                {"site": "atlantis", "dose": 2.5, "marker_a": "oops", "stage": 3},
                {"site": "delta", "dose": 1.0, "marker_a": 0.0, "stage": 2}]

    @pytest.fixture
    def model_path(self, work, tmp_path):
        payload = json.loads((work["demo"] / "model.json").read_text())
        j = [v["name"] for v in payload["variables"]].index("site")
        for row in payload["components"]:
            row[j]["probs"] = [0.5, 0.25, 0.25, 0.0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("mode", ["model_missing", "ignore_missing"])
    def test_lines_match_infer(self, model_path, tmp_path, mode):
        evidence = tmp_path / "evidence.csv"
        evidence.write_text("\n".join([self.HEADER] + self.RECORDS) + "\n")
        out = tmp_path / "infer"
        assert main(["infer", "--out-dir", str(out), "--model", str(model_path),
                     "--evidence", str(evidence), "--mode", mode]) == 5
        lines = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert [line["record"] for line in lines] == [0, 1, 2, 3]
        model = load_model(model_path)
        for line, values in zip(lines, self.EVIDENCE):
            request = InferenceRequest(values, ("severity", "status"), mode)
            try:
                predicted = infer(model, request)
            except (SchemaViolationError, ZeroLikelihoodError) as err:
                assert line == {"record": line["record"], "error": str(err)}
                continue
            assert line["posterior"] == predicted.posterior.tolist()
            for name in request.targets:
                assert line["targets"][name]["probabilities"] == \
                    predicted[name].probabilities.tolist()
        assert "targets" in lines[0] and "targets" in lines[1]
        assert lines[2]["error"].startswith("2 schema violation(s): column 'site'")
        assert "zero likelihood" in lines[3]["error"]

    def test_all_records_bad_exit_5(self, model_path, tmp_path, capsys):
        evidence = tmp_path / "evidence.csv"
        evidence.write_text("marker_a,site\noops,alpha\n1.0,atlantis\n")
        out = tmp_path / "infer"
        assert main(["infer", "--out-dir", str(out), "--model", str(model_path),
                     "--evidence", str(evidence), "--mode", "model_missing"]) == 5
        assert _last_error(capsys)["category"] == "inference"
        lines = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert [sorted(line) for line in lines] == [["error", "record"]] * 2


class TestPredictionsBytes:
    """predictions.jsonl holds, line by line, ``json.dumps(payload,
    sort_keys=True)`` of the payload built from per-record ``infer``."""

    TARGETS = ("grade", "city", "conc")  # not in key order

    @staticmethod
    def _model():
        schemas = (VariableSchema("x", "real"),
                   VariableSchema("site", "categorical", ("a", "b")),
                   VariableSchema("grade", "ordinal", (1, 2, 3, 4), role="outcome"),
                   VariableSchema("city", "categorical", ("Zürich", "東京", "Ørsted"),
                                  role="outcome"),
                   VariableSchema("conc", "nonnegative", role="outcome"))
        params = tuple((Gaussian(mean, 1.5), Categorical((1.0, 0.0), ("a", "b")),
                        QuantizedGaussian(grade, 0.8, (1, 2, 3, 4)),
                        Categorical(city, ("Zürich", "東京", "Ørsted")),
                        InflatedGamma(zero, 2.0, scale))
                       for mean, grade, city, zero, scale in
                       ((-2.0, 1.5, (0.6, 0.3, 0.1), 0.2, 1.5),
                        (1.0, 3.0, (0.1, 0.3, 0.6), 0.05, 0.7),
                        (3.0, 2.5, (0.3, 0.4, 0.3), 0.4, 3.0)))
        return MixtureModel((0.3, 0.5, 0.2), params, [[0.1, 0.2, 0.1, 0.1, 0.1]] * 3,
                            schemas)

    def _payload(self, model, record, evidence):
        """The payload of one record, built as the writer of earlier versions did."""
        try:
            predicted = infer(model, InferenceRequest(evidence, self.TARGETS, "model_missing"))
        except (SchemaViolationError, ZeroLikelihoodError) as err:
            return {"record": record, "error": str(err)}
        targets = {}
        for name in self.TARGETS:
            schema, prediction = model.schema(name), predicted[name]
            if schema.kind.is_finite:
                targets[name] = {"kind": schema.kind.value, "domain": list(schema.domain),
                                 "probabilities": prediction.probabilities.tolist()}
            else:
                j = model.column_index(name)
                targets[name] = {"kind": schema.kind.value,
                                 "components": [params_to_dict(row[j]) for row in model.params],
                                 "weights": prediction.weights.tolist()}
            targets[name]["point"] = point_predict(prediction)
        return {"record": record, "posterior": predicted.posterior.tolist(),
                "targets": targets}

    def test_lines_equal_json_dumps_of_the_payload(self, tmp_path, capsys):
        model = self._model()
        save_model(model, tmp_path / "model.json")
        rng = np.random.default_rng(8)
        # more records than one encoding chunk; a bad cell, a bad symbol, an
        # explicit missing cell and a symbol of zero likelihood among them
        cells = [(repr(float(x)), "a") for x in rng.normal(0.0, 3.0, 1030)]
        cells[3], cells[500], cells[1024], cells[1029] = \
            ("oops", "a"), ("0.5", "atlantis"), ("", "a"), ("1.0", "b")
        (tmp_path / "evidence.csv").write_text(
            "x,site\n" + "".join(f"{x},{site}\n" for x, site in cells))
        assert main(["infer", "--out-dir", str(tmp_path / "out"),
                     "--model", str(tmp_path / "model.json"),
                     "--evidence", str(tmp_path / "evidence.csv"),
                     "--targets", ",".join(self.TARGETS), "--mode", "model_missing"]) == 5
        assert "1027 of 1030 records inferred" in capsys.readouterr().out
        want = [json.dumps(self._payload(model, i, {
            "x": MISSING if x == "" else x if x == "oops" else float(x), "site": site}),
            sort_keys=True) + "\n" for i, (x, site) in enumerate(cells)]
        text = (tmp_path / "out" / "predictions.jsonl").read_text(encoding="ascii")
        assert text.splitlines(keepends=True) == want
        assert [i for i, line in enumerate(want) if '"error"' in line] == [3, 500, 1029]
        assert json.loads(want[1029])["error"] == "evidence has zero likelihood under every component"
        assert "\\u6771\\u4eac" in want[0]  # the non-ASCII symbol, as json escapes it


@pytest.fixture(scope="module")
def evaluated(work, tmp_path_factory):
    root = tmp_path_factory.mktemp("evaluate")
    sim = root / "sim"
    assert main(["simulate", "--out-dir", str(sim),
                 "--model", str(work["demo"] / "model.json"),
                 "--n", "18", "--seed", "11"]) == 0
    out = root / "eval"
    code = main(["evaluate", "--out-dir", str(out),
                 "--data", str(sim / "cohort.csv"),
                 "--schema", str(sim / "schema.json"),
                 "--orders", "1", "--mode", "model_missing",
                 "--restarts", "1", "--max-iterations", "40"])
    assert code == 0
    return out


class TestEvaluate:
    def test_performance_table(self, evaluated):
        header, rows = _read_csv(evaluated / "performance.csv")
        assert header[:3] == ["order", "target", "n"]
        pairs = {(r[0], r[1]) for r in rows}
        assert {("0", "severity"), ("0", "status"),
                ("1", "severity"), ("1", "status")} <= pairs

    def test_chance_categorical_error(self, evaluated):
        _, rows = _read_csv(evaluated / "eae_records.csv")
        chance_status = [float(r[4]) for r in rows
                         if r[0] == "0" and r[2] == "status"]
        assert chance_status
        for value in chance_status:
            assert value == pytest.approx(100.0 * 2 / 3)

    def test_confidence_and_curve_files(self, evaluated):
        _, conf = _read_csv(evaluated / "confidence_records.csv")
        assert conf and all(0.0 <= float(r[3]) <= 1.0 for r in conf)
        _, curve = _read_csv(evaluated / "threshold_curve.csv")
        _, eae = _read_csv(evaluated / "eae_records.csv")
        kept_at_zero = {(r[0], r[1]): int(r[3])
                        for r in curve if float(r[2]) == 0.0}
        assert kept_at_zero
        for (order, target), kept in kept_at_zero.items():
            assert kept == sum(1 for r in eae
                               if r[0] == order and r[2] == target)
        manifest = json.loads((evaluated / "manifest.json").read_text())
        assert "performance.csv" in manifest["outputs"]
        assert "error_density.csv" in manifest["outputs"]


class TestRerun:
    def test_reproduces_bytes(self, work, tmp_path):
        out2 = tmp_path / "again"
        assert main(["rerun",
                     "--manifest", str(work["fit1"] / "manifest.json"),
                     "--out-dir", str(out2)]) == 0
        for name in ("model.json", "trace.csv", "manifest.json"):
            assert (out2 / name).read_bytes() == \
                (work["fit1"] / name).read_bytes()

    def test_detects_changed_input(self, work, tmp_path, capsys):
        data = tmp_path / "cohort.csv"
        schema = tmp_path / "schema.json"
        data.write_text(work["data"].read_text())
        schema.write_text(work["schema"].read_text())
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--out-dir", str(fit_dir),
                     "--data", str(data), "--schema", str(schema),
                     "--order", "1", "--restarts", "1"]) == 0
        data.write_text(work["data"].read_text() + "\n")
        code = main(["rerun", "--manifest", str(fit_dir / "manifest.json"),
                     "--out-dir", str(tmp_path / "again")])
        assert code == 3
        assert "changed" in _last_error(capsys)["message"]

    def test_rejects_unknown_manifest(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format_version": 1, "command": "explode",
                                    "arguments": {}, "inputs": {}}))
        code = main(["rerun", "--manifest", str(path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "unknown command" in _last_error(capsys)["message"]


    @pytest.mark.parametrize("edit", [
        lambda m: [m],
        lambda m: {k: v for k, v in m.items() if k != "arguments"},
        lambda m: {**m, "command": "demo-model", "arguments": {}, "inputs": {}},
        lambda m: {**m, "inputs": {"data": {"sha256": m["inputs"]["data"]["sha256"]}}},
        lambda m: {**m, "arguments": {**m["arguments"], "order": "two"}},
        lambda m: {**m, "arguments": {**m["arguments"], "restarts": 1.5}},
    ], ids=["list", "no-arguments", "argument-keys-missing", "input-without-path",
            "order-not-an-int", "restarts-not-an-int"])
    def test_malformed_manifest_exits_3(self, work, tmp_path, capsys, edit):
        manifest = json.loads((work["fit1"] / "manifest.json").read_text())
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(edit(manifest)))
        code = main(["rerun", "--manifest", str(path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert _last_error(capsys)["category"] == "validation"
        assert not (tmp_path / "out").exists()


class TestEvaluateOptions:
    @pytest.mark.parametrize("option", [
        ["--threshold-steps", "-1"], ["--threshold-steps", "-2"],
        ["--density-points", "-1"], ["--workers", "0"],
        ["--bin-cutoff", "7"], ["--bin-cutoff", "-0.1"],
    ])
    def test_bad_report_or_worker_option_exits_3_before_any_fold(
            self, work, tmp_path, capsys, monkeypatch, option):
        import hetmix.cli as cli
        monkeypatch.setattr(cli, "loo_evaluate",
                            lambda *a, **k: pytest.fail("a fold ran"))
        out = tmp_path / "out"
        code = main(["evaluate", "--out-dir", str(out),
                     "--data", str(work["data"]), "--schema", str(work["schema"]),
                     "--orders", "1", "--restarts", "1",
                     "--mode", "model_missing"] + option)
        assert code == 3
        assert _last_error(capsys)["category"] == "validation"
        assert not (out / "performance.csv").exists()

    def test_duplicate_targets_exit_3_before_any_fold(self, work, tmp_path, capsys,
                                                       monkeypatch):
        import hetmix.evaluation as evaluation
        monkeypatch.setattr(evaluation, "_evaluate_folds",
                            lambda *a, **k: pytest.fail("a fold ran"))
        out = tmp_path / "out"
        code = main(["evaluate", "--out-dir", str(out),
                     "--data", str(work["data"]), "--schema", str(work["schema"]),
                     "--orders", "1", "--restarts", "1", "--mode", "model_missing",
                     "--targets", "severity,severity"])
        assert code == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert error["message"] == "duplicate targets"
        assert list(out.glob("*.csv")) == []

    def test_no_targets_exit_3(self, work, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(work["schema"].read_text().replace('"outcome"', '"input"'))
        out = tmp_path / "out"
        code = main(["evaluate", "--out-dir", str(out),
                     "--data", str(work["data"]), "--schema", str(schema),
                     "--orders", "1", "--restarts", "1", "--mode", "model_missing"])
        assert code == 3
        assert _last_error(capsys)["message"] == "at least one target is required"
        assert list(out.glob("*.csv")) == []


class TestManifestArguments:
    EXPECTED = {
        "validate": {"data", "schema", "missing_token", "drop_constant"},
        "fit": {"data", "schema", "missing_token", "drop_constant", "order",
                "seed", "restarts", "max_iterations", "rel_tol"},
        "select": {"data", "schema", "missing_token", "drop_constant", "orders",
                   "seed", "restarts", "max_iterations", "rel_tol"},
        "infer": {"model", "evidence", "targets", "missing_token", "mode"},
        "evaluate": {"data", "schema", "missing_token", "drop_constant", "orders",
                     "targets", "mode", "seed", "restarts", "max_iterations",
                     "rel_tol", "workers", "bin_cutoff", "threshold_steps",
                     "density_points"},
        "simulate": {"model", "n", "seed", "missing_token"},
        "demo-model": {"variant"},
    }

    def test_each_command_records_its_full_argument_set(self, work, evaluated, tmp_path):
        data = ["--data", str(work["data"]), "--schema", str(work["schema"])]
        evidence = tmp_path / "evidence.csv"
        evidence.write_text("marker_a,site\n-4.2,alpha\n")
        assert main(["validate", "--out-dir", str(tmp_path / "validate")] + data) == 0
        assert main(["select", "--out-dir", str(tmp_path / "select"), "--orders", "1",
                     "--restarts", "1"] + data) == 0
        assert main(["infer", "--out-dir", str(tmp_path / "infer"),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(evidence), "--mode", "model_missing"]) == 0
        out_dirs = {"validate": tmp_path / "validate", "fit": work["fit1"],
                    "select": tmp_path / "select", "infer": tmp_path / "infer",
                    "evaluate": evaluated, "simulate": work["sim"],
                    "demo-model": work["demo"]}
        for command, out_dir in out_dirs.items():
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["command"] == command
            assert set(manifest["arguments"]) == self.EXPECTED[command], command
