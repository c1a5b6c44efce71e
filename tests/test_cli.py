"""End-to-end command-line runs, exercised in process through main()."""

import json

import numpy as np
import pytest

from hetmix import MixtureModel
from hetmix.cli import main, parse_orders
from hetmix.io import load_dataset, load_model, model_to_dict, save_model
from hetmix.training import m_step


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


class TestFit:
    def test_order_one_is_the_column_mle(self, work):
        dataset, _ = load_dataset(work["data"], work["schema"])
        expected = m_step(dataset, np.ones((dataset.n_subjects, 1)))
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
