"""End-to-end command-line runs, exercised in process through main()."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetmix
from hetmix import (MISSING, Categorical, EmConfig, Gaussian, InferenceRequest,
                    InflatedGamma, MixtureModel, QuantizedGaussian,
                    SchemaViolationError, VariableSchema,
                    ZeroLikelihoodError, infer, point_predict)
from hetmix.cli import _em_config, _json_rows, build_parser, main, parse_orders, run_rerun
from hetmix.io import (FormatError, load_dataset, load_model, load_schemas, model_to_dict,
                       params_to_dict, read_data_csv, save_model, save_schemas, sha256_file)
from hetmix.training import _checked_orders

from conftest import collapse_starts, m_step_alone, widest_fit_values


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _last_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])["error"]


def _flat_cohort(tmp_path) -> list:
    """Data options of a cohort whose every column carries no information: ``b``
    is constant and ``a`` all missing."""
    schema = tmp_path / "flat.json"
    save_schemas((VariableSchema("b", "real"), VariableSchema("a", "real")), schema)
    data = tmp_path / "flat.csv"
    data.write_text("b,a\n2.5,\n2.5,\n")
    return ["--data", str(data), "--schema", str(schema), "--drop-zero-variability"]


FLAT_VIOLATIONS = [{"row": None, "column": "b", "message": "constant column (always 2.5)"},
                   {"row": None, "column": "a", "message": "no observed values"}]


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
        """The orders as written, ranges expanded only as they are read."""
        assert list(parse_orders("3")) == [3]
        assert list(parse_orders("1,2,5")) == [1, 2, 5]
        assert list(parse_orders("1-4")) == [1, 2, 3, 4]
        assert list(parse_orders("2,1-3,2")) == [2, 1, 2, 3, 2]
        assert next(parse_orders(f"1-{10**12}")) == 1
        # syntax alone: -3 parses, and the order check refuses it
        assert list(parse_orders("-3")) == [-3]
        with pytest.raises(ValueError, match="^orders must be >= 1$"):
            _checked_orders(parse_orders("-3"), 3)

    def test_empty_or_reversed(self):
        with pytest.raises(ValueError):
            parse_orders("")
        with pytest.raises(ValueError):
            parse_orders("5-3")
        # a reversed range inside a list is refused too, not dropped
        for text in ("1,3-1", "3-1,2", "1-2,6-4"):
            with pytest.raises(ValueError, match="reversed range"):
                parse_orders(text)

    @pytest.mark.parametrize("text", ["2-3-4", "1-", "a", "-", "1-x", "1.5"])
    def test_malformed_part_is_named(self, text):
        """A part that is neither N nor N-M is named in the error, alone and in a list."""
        with pytest.raises(ValueError, match=re.escape(
                f"bad order {text!r} in {text!r}: expected N or N-M")):
            parse_orders(text)
        with pytest.raises(ValueError, match=re.escape(
                f"bad order {text!r} in {'1,' + text!r}: expected N or N-M")):
            parse_orders("1," + text)

    def test_bound_is_inclusive(self):
        assert _checked_orders(parse_orders("1-3"), 3) == [1, 2, 3]
        assert _checked_orders(parse_orders("3,1"), 3) == [1, 3]

    @pytest.mark.parametrize("text, top", [
        ("4", 4), ("1,4", 4), ("2-4", 4), ("1-2,3-4", 4),
        # a range to 10**12 is refused at its first order past the bound
        (f"1-{10**12}", 4), (f"{10**15}", 10**15)])
    def test_order_above_the_bound_refused(self, text, top):
        with pytest.raises(ValueError, match=rf"^order {top} exceeds the 3 "
                                             r"subject\(s\) a fit trains on$"):
            _checked_orders(parse_orders(text), 3)

    @given(parts=st.lists(st.tuples(st.integers(1, 60), st.integers(0, 60), st.booleans()),
                          min_size=1, max_size=4), limit=st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_checked_spec_is_its_sorted_set_or_its_first_order_past_the_bound(self, parts,
                                                                              limit):
        """Singles and ranges in [1, 60]: the checked orders are the sorted set of the
        expanded spec, or the error names its first order past the bound, whether the
        orders come parsed, as a list, as a generator or (one part) as a range."""
        spans = [(lo, min(lo + extra, 60)) if ranged else (lo, lo)
                 for lo, extra, ranged in parts]
        text = ",".join(f"{lo}-{hi}" if hi > lo else str(lo) for lo, hi in spans)
        expanded = [k for lo, hi in spans for k in range(lo, hi + 1)]
        inputs = [parse_orders(text), expanded, (k for k in expanded)]
        if len(spans) == 1:
            inputs.append(range(spans[0][0], spans[0][1] + 1))
        for orders in inputs:
            if past := [k for k in expanded if k > limit]:
                with pytest.raises(ValueError, match=rf"^order {past[0]} exceeds the {limit} "
                                                     r"subject\(s\) a fit trains on$"):
                    _checked_orders(orders, limit)
            else:
                assert _checked_orders(orders, limit) == sorted(set(expanded))

    @pytest.mark.parametrize("limit", [1, 30, 79])
    def test_huge_ranges_refused_within_limit_plus_one_reads(self, limit):
        """range(-10**12, 5) is refused at its first order, 1-10**12 at order limit + 1."""
        reads = []

        def counted(orders):
            for order in orders:
                reads.append(order)
                yield order

        with pytest.raises(ValueError, match="^orders must be >= 1$"):
            _checked_orders(counted(range(-10**12, 5)), limit)
        assert reads == [-10**12]
        reads.clear()
        with pytest.raises(ValueError, match=rf"^order {limit + 1} exceeds the {limit} "):
            _checked_orders(counted(parse_orders(f"1-{10**12}")), limit)
        assert len(reads) == limit + 1


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

    def test_em_defaults_are_em_configs(self):
        """fit, select and evaluate take EM's defaults from EmConfig."""
        for command in (["fit", "--order", "1"], ["select", "--orders", "1"],
                        ["evaluate", "--orders", "1", "--mode", "model_missing"]):
            args = build_parser().parse_args(command + ["--out-dir", "x", "--data", "d",
                                                        "--schema", "s"])
            assert _em_config(vars(args)) == EmConfig()

    def test_missing_file_exit_6(self, tmp_path, capsys):
        code = main(["fit", "--out-dir", str(tmp_path / "out"),
                     "--data", str(tmp_path / "nope.csv"),
                     "--schema", str(tmp_path / "nope.json"),
                     "--order", "1"])
        assert code == 6
        assert _last_error(capsys)["category"] == "io"

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                     "and data type float64"), None),
        (MemoryError(), "out of memory")])
    def test_out_of_memory_exit_6(self, tmp_path, capsys, monkeypatch, error, message):
        """A command that runs out of memory (a stand-in runner raises, so nothing is
        allocated) exits 6 with one JSON error line and no traceback."""
        import hetmix.cli as cli

        def runner(arguments, out_dir):
            raise error

        monkeypatch.setitem(cli._RUNNERS, "simulate", runner)
        code = main(["simulate", "--out-dir", str(tmp_path / "out"), "--model", "m.json",
                     "--n", str(10**12)])
        assert code == 6
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"error": {"category": "memory", "message": message or str(error)}}]

    def test_import_loads_no_scipy(self):
        """The command line runs on NumPy and the standard library alone."""
        code = ("import hetmix.cli, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(hetmix.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout == "[]\n"

    def test_module_runs_as_a_program(self):
        """``python -m hetmix.cli`` runs the command line: its help names every command."""
        env = dict(os.environ, PYTHONPATH=str(Path(hetmix.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "hetmix.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage:")
        for command in ("validate", "fit", "select", "infer", "evaluate", "simulate",
                        "demo-model", "rerun"):
            assert command in done.stdout


class TestEncoding:
    def test_files_are_utf8_under_an_ascii_locale(self, work, tmp_path):
        """Every file is read and written as UTF-8, whatever the locale: under
        the C locale, validate reads a schema and cohort whose site symbol is
        "café", and simulate from a model that holds it writes a cohort that
        reads back."""
        env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
                   PYTHONPATH=str(Path(hetmix.__file__).parents[1]))

        def run(*args):
            return subprocess.run([sys.executable, "-m", "hetmix.cli", *args], env=env,
                                  capture_output=True, text=True, timeout=120)

        paths = {}
        for name, source in (("schema.json", work["schema"]), ("cohort.csv", work["data"]),
                             ("model.json", work["demo"] / "model.json")):
            paths[name] = tmp_path / name
            text = source.read_text(encoding="utf-8").replace("alpha", "café")
            paths[name].write_text(text, encoding="utf-8")
        done = run("validate", "--data", str(paths["cohort.csv"]),
                   "--schema", str(paths["schema.json"]), "--out-dir", str(tmp_path / "validate"))
        assert done.returncode == 0, done.stderr
        assert "0 violation(s)" in done.stdout
        done = run("simulate", "--model", str(paths["model.json"]), "--n", "40", "--seed", "2",
                   "--out-dir", str(tmp_path / "simulate"))
        assert done.returncode == 0, done.stderr
        schemas = load_model(paths["model.json"]).schemas
        assert "café" in schemas[[s.name for s in schemas].index("site")].domain
        cohort = read_data_csv(tmp_path / "simulate" / "cohort.csv", schemas)
        assert cohort.n_subjects == 40 and any("café" in cohort.row(i) for i in range(40))


class TestUnreadableInputs:
    """A file that cannot be read is refused with exit 3 and one error line that
    names it, never a traceback; a UTF-8 byte-order mark is read past."""

    def _refused(self, argv, path, capsys) -> str:
        assert main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "Traceback" not in err[0]
        message = json.loads(err[0])["error"]["message"]
        assert message.startswith(f"{path}: ")
        return message

    def _validate(self, data, schema, tmp_path) -> list:
        return ["validate", "--data", str(data), "--schema", str(schema),
                "--out-dir", str(tmp_path / "out")]

    def test_csv_cell_past_the_field_limit(self, work, tmp_path, capsys):
        lines = work["data"].read_text().splitlines()
        fields = lines[1].split(",")
        fields[lines[0].split(",").index("marker_a")] = "1" * 200_000
        data = tmp_path / "long.csv"
        data.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
        message = self._refused(self._validate(data, work["schema"], tmp_path), data, capsys)
        assert "line 2: field larger than field limit" in message

    def test_schema_nested_too_deeply(self, work, tmp_path, capsys):
        schema = tmp_path / "nested.json"
        schema.write_text("[" * 200_000)
        message = self._refused(self._validate(work["data"], schema, tmp_path), schema, capsys)
        assert "not valid JSON" in message

    @pytest.mark.parametrize("which", ["data", "schema"])
    def test_byte_not_utf8(self, work, tmp_path, capsys, which):
        source = work[which]
        path = tmp_path / source.name
        text = source.read_bytes()
        path.write_bytes(text[:9] + b"\xff" + text[10:])
        files = {"data": work["data"], "schema": work["schema"], which: path}
        message = self._refused(self._validate(files["data"], files["schema"], tmp_path),
                                path, capsys)
        assert "can't decode byte 0xff" in message

    def test_manifest_not_json(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("not json\n")
        message = self._refused(["rerun", "--manifest", str(manifest),
                                 "--out-dir", str(tmp_path / "out")], manifest, capsys)
        assert "not valid JSON" in message

    @pytest.mark.parametrize("edit", ["not-an-object", "format-version-2"])
    @pytest.mark.parametrize("which", ["schema", "model", "manifest"])
    def test_json_file_not_an_object_or_of_another_version(self, work, tmp_path, capsys,
                                                           which, edit):
        """One rule for the three JSON formats: a file that is not a JSON object, or whose
        format_version is another, is a FormatError naming the file (a schema by its path),
        read by the library or by the command line (exit 3)."""
        source = {"schema": work["schema"], "model": work["demo"] / "model.json",
                  "manifest": work["fit1"] / "manifest.json"}[which]
        payload = json.loads(source.read_text())
        path = tmp_path / source.name
        path.write_text(json.dumps([payload] if edit == "not-an-object"
                                   else {**payload, "format_version": 2}))
        name = {"schema": str(path), "model": "model file", "manifest": "manifest"}[which]
        message = f"{name}: " + ("expected a JSON object" if edit == "not-an-object"
                                 else "unsupported format_version 2")
        load = {"schema": load_schemas, "model": load_model,
                "manifest": lambda p: run_rerun(argparse.Namespace(manifest=p,
                                                                   out_dir=tmp_path / "lib"))}
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load[which](path)
        argv = {"schema": self._validate(work["data"], path, tmp_path),
                "model": ["simulate", "--model", str(path), "--n", "5",
                          "--out-dir", str(tmp_path / "out")],
                "manifest": ["rerun", "--manifest", str(path), "--out-dir", str(tmp_path / "out")]}
        assert self._refused(argv[which], name, capsys) == message
        assert not (tmp_path / "lib").exists()

    def test_byte_order_mark_cohort_fits_like_the_plain_one(self, work, tmp_path):
        data = tmp_path / "cohort.csv"
        data.write_bytes(b"\xef\xbb\xbf" + work["data"].read_bytes())
        out = tmp_path / "fit"
        assert main(["fit", "--out-dir", str(out), "--data", str(data),
                     "--schema", str(work["schema"]), "--order", "1", "--restarts", "1"]) == 0
        assert sha256_file(out / "model.json") == sha256_file(work["fit1"] / "model.json")


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
        """The cohort-size rule is ``sample_cohort``'s alone: exit 3, one JSON error
        line in its wording, and nothing written."""
        out = tmp_path / "out"
        code = main(["simulate", "--out-dir", str(out),
                     "--model", str(work["demo"] / "model.json"), "--n", "0"])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == {"category": "validation",
                                               "message": "n must be an integer >= 1, got 0"}
        assert out.is_dir() and not any(out.iterdir())

    @pytest.mark.parametrize("token, message", [
        ("alpha", "site: missing token 'alpha' is also a domain value"),
        ("0.0", "dose: missing token '0.0' is also the text of an observed cell, "
                "which would read back as MISSING")], ids=["site-symbol", "zero-dose"])
    def test_simulate_refuses_a_token_that_would_not_read_back(self, work, tmp_path, capsys,
                                                               token, message):
        out = tmp_path / "out"
        code = main(["simulate", "--out-dir", str(out), "--model", str(work["demo"] / "model.json"),
                     "--n", "200", "--seed", "1", "--missing-token", token])
        assert code == 3
        assert _last_error(capsys) == {"category": "validation", "message": message}
        assert not (out / "cohort.csv").exists()

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
        # a level that is not an integer, once truncated to the schema's domain
        ("severity", {"family": "quantized_gaussian", "mean": 3.0, "variance": 1.0,
                      "domain": [1.5, 2, 3, 4, 5, 6, 7, 8]}),
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
        # an integer past float's range, which json reads as an int
        lambda payload: payload["components"][0][0].__setitem__("mean", 10 ** 400),
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

    def test_model_file_with_duplicate_names_exit_3(self, work, tmp_path, capsys):
        """A model file whose second variable takes the first one's name is refused as it
        is read: one error line, no traceback, no predictions."""
        payload = json.loads((work["demo"] / "model.json").read_text())
        first = payload["variables"][0]["name"]
        payload["variables"][1]["name"] = first
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        evidence = tmp_path / "evidence.csv"
        evidence.write_text(f"{first}\n0.5\n")
        assert main(["infer", "--out-dir", str(tmp_path / "infer"),
                     "--model", str(model_path), "--evidence", str(evidence),
                     "--mode", "model_missing"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "Traceback" not in err[0]
        assert json.loads(err[0])["error"]["message"] == (
            f"bad model file: duplicate variable names: [{first!r}]")
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


    def test_drop_leaving_no_column_reports_each(self, tmp_path, capsys):
        """--drop-zero-variability keeps a cohort whose every column has no information
        as it was read: the report, its manifest and the error name each column."""
        out = tmp_path / "report"
        assert main(["validate", "--out-dir", str(out)] + _flat_cohort(tmp_path)) == 3
        assert _last_error(capsys)["violations"] == FLAT_VIOLATIONS
        report = json.loads((out / "validation_report.json").read_text())
        assert report["dropped_columns"] == []
        assert report["violations"] == FLAT_VIOLATIONS
        assert sorted(os.listdir(out)) == ["manifest.json", "validation_report.json"]

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

    @pytest.mark.parametrize("domain", [[2**60, 2**60 + 1, 2**60 + 2], [2**53, 2**53 + 1],
                                        [-2**70 - 1, -2**70]])
    def test_ordinal_domain_not_read_as_floats_exit_3(self, tmp_path, capsys, domain):
        """One error line and no traceback, for levels that round to one float."""
        assert self._ordinal_domain_error(tmp_path, capsys, domain).endswith(
            "g: ordinal levels must be distinct floats")

    @pytest.mark.parametrize("domain", [[0, 2**600], [0, 2**511], [-2**481, 0], [0, 10**400],
                                        [-10**308, 10**308]])
    def test_ordinal_domain_past_the_bound_exit_3(self, tmp_path, capsys, domain):
        """One error line and no traceback, for levels or a span of 2**480 or more, whose
        squared deviations an M-step on enough rows would overflow ([0, 2**600] used to
        pass validate and fail fit)."""
        assert self._ordinal_domain_error(tmp_path, capsys, domain).endswith(
            "g: ordinal levels and their span must be below 2**480 in magnitude")

    @staticmethod
    def _ordinal_domain_error(tmp_path, capsys, domain):
        """The message of validate's one error line (exit 3, no traceback) on a schema of
        an ordinal ``g`` over ``domain`` beside a real ``x``."""
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "variables": [
            {"name": "g", "kind": "ordinal", "domain": domain}, {"name": "x", "kind": "real"}]}))
        data = tmp_path / "data.csv"
        data.write_text("g,x\n,1.0\n,2.0\n")
        assert main(["validate", "--out-dir", str(tmp_path / "report"),
                     "--data", str(data), "--schema", str(schema)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "Traceback" not in err[0]
        error = json.loads(err[0])["error"]
        assert error["category"] == "validation"
        return error["message"]

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

    def test_training_error_exit_4(self, work, tmp_path, capsys, collapsing_starts):
        code = main(["fit", "--out-dir", str(tmp_path / "fit"), "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--order", "2", "--restarts", "2"])
        assert code == 4
        collapsed = "component 0 collapsed (total responsibility 0.000e+00)"
        assert _last_error(capsys) == {"category": "training", "message": (
            f"all 2 restart(s) failed for order 2: restart 0: {collapsed}; "
            f"restart 1: {collapsed}")}

    def test_dropped_column_is_reported(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "variables": [
            {"name": "x", "kind": "real"}, {"name": "y", "kind": "real"}]}))
        data = tmp_path / "data.csv"
        data.write_text("x,y\n1.0,5.0\n3.0,5.0\n2.5,5.0\n")
        out = tmp_path / "fit"
        assert main(["fit", "--out-dir", str(out), "--data", str(data), "--schema", str(schema),
                     "--order", "1", "--restarts", "1", "--drop-zero-variability"]) == 0
        assert "dropped zero-variability column: y\n" in capsys.readouterr().out
        assert [s.name for s in load_model(out / "model.json").schemas] == ["x"]

    def test_bad_order_exit_3(self, work, tmp_path, capsys):
        code = main(["fit", "--out-dir", str(tmp_path / "out"),
                     "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--order", "0"])
        assert code == 3
        assert _last_error(capsys)["category"] == "validation"

    @pytest.mark.parametrize("order", [61, 10**15])
    def test_order_above_the_subjects_exit_3(self, work, tmp_path, capsys, order):
        """The 60-row cohort refuses 61 components, and 10**15, whose EM posteriors would
        take 10**15 x 60 floats, before any EM runs: one JSON error line."""
        code = main(["fit", "--out-dir", str(tmp_path / "out"), "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--order", str(order), "--restarts", "1"])
        assert code == 3
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"error": {"category": "validation",
                       "message": f"order {order} exceeds the 60 subject(s) a fit trains on"}}]
        assert not (tmp_path / "out" / "model.json").exists()


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

    def test_a_span_too_narrow_to_fit_exit_3(self, tmp_path, capsys):
        """40 values of U(0, 1) * 1e-200, whose variance floor underflows to 0: validate,
        and fit at orders 1 and 2 with --drop-zero-variability too, exit 3 with the one
        violation naming x, not a message about a model's variance."""
        schema, data = tmp_path / "schema.json", tmp_path / "data.csv"
        save_schemas((VariableSchema("x", "real"),), schema)
        values = np.random.default_rng(1).random(40) * 1e-200
        data.write_text("x\n" + "".join(f"{x!r}\n" for x in values.tolist()))
        span = float(values.max() - values.min())
        for command in (["validate"], ["fit", "--order", "1"], ["fit", "--order", "2"],
                        ["fit", "--order", "1", "--drop-zero-variability"]):
            out = tmp_path / "-".join(command)
            assert main([*command, "--out-dir", str(out), "--data", str(data),
                         "--schema", str(schema)]) == 3
            error = _last_error(capsys)
            assert (error["category"], error["violations"]) == ("validation", [
                {"row": None, "column": "x",
                 "message": f"values span {span}, below 2**-480: too narrow to fit"}])
            assert not (out / "model.json").exists()


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


    def test_failed_order_row_has_empty_cells(self, work, tmp_path, monkeypatch):
        """An order that fails while another trains is a row of its order, empty
        cells and its error; here order 2's starts give component 1 no responsibility."""
        collapse_starts(monkeypatch, lambda order, stream: order > 1, component=1)
        out = tmp_path / "select"
        assert main(["select", "--out-dir", str(out), "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--orders", "1-2",
                     "--restarts", "1"]) == 0
        rows = (out / "bic_table.csv").read_text().splitlines()
        assert rows[1].startswith("1,") and ",," not in rows[1]
        assert rows[2] == ("2,,,,,all 1 restart(s) failed for order 2: restart 0: "
                           "component 1 collapsed (total responsibility 0.000e+00)")

    @pytest.mark.parametrize("orders, top", [("60-61", 61), ("61", 61),
                                             (f"1-{10**12}", 61)])
    def test_order_above_the_subjects_exit_3(self, work, tmp_path, capsys, orders, top):
        """On the 60-row cohort an order above 60 is one JSON error line, and the range
        1-10**12 is refused at its order 61, without being expanded."""
        code = main(["select", "--out-dir", str(tmp_path / "select"), "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--orders", orders, "--restarts", "1"])
        assert code == 3
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"error": {"category": "validation", "message": f"order {top} exceeds the 60 "
                                                            "subject(s) a fit trains on"}}]
        assert not (tmp_path / "select" / "bic_table.csv").exists()

    def test_malformed_orders_exit_3_naming_the_part(self, work, tmp_path, capsys):
        code = main(["select", "--out-dir", str(tmp_path / "select"), "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--orders", "1,2-3-4", "--restarts", "1"])
        assert code == 3
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"error": {"category": "validation",
                       "message": "bad order '2-3-4' in '1,2-3-4': expected N or N-M"}}]

    def test_drop_leaving_no_column_exit_3(self, tmp_path, capsys):
        out = tmp_path / "select"
        assert main(["select", "--out-dir", str(out), "--orders", "1"]
                    + _flat_cohort(tmp_path)) == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert error["violations"] == FLAT_VIOLATIONS
        assert not (out / "bic_table.csv").exists()

    def test_failed_orders_warn_in_json_lines(self, work, tmp_path, capsys, collapsing_starts):
        """Each order that fails is a warning on stderr, one JSON line, before the error."""
        code = main(["select", "--out-dir", str(tmp_path / "select"), "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--orders", "1-2", "--restarts", "1"])
        assert code == 4
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [list(line) for line in lines] == [["warning"], ["warning"], ["error"]]
        collapsed = "component 0 collapsed (total responsibility 0.000e+00)"
        for order, line in enumerate(lines[:2], 1):
            assert line == {"warning": {"category": "UserWarning",
                                        "message": f"order {order} failed: all 1 restart(s) "
                                        f"failed for order {order}: restart 0: {collapsed}"}}


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

    def test_value_past_every_component_has_zero_likelihood_exit_5(self, work, tmp_path,
                                                                    capsys):
        """marker_a = 1e200 overflows each component's squared deviation: its record has
        zero likelihood, an error line (exit 5, one error line on stderr, no warning), and
        the other record's line keeps the bytes it has alone."""
        model = ["--model", str(work["demo"] / "model.json"), "--mode", "model_missing"]
        assert main(["infer", "--out-dir", str(tmp_path / "alone"), *model, "--evidence",
                     str(self._evidence(tmp_path, ["-4.2,alpha"]))]) == 0
        alone = (tmp_path / "alone" / "predictions.jsonl").read_text()
        capsys.readouterr()
        assert main(["infer", "--out-dir", str(tmp_path / "out"), *model, "--evidence",
                     str(self._evidence(tmp_path, ["-4.2,alpha", "1e200,alpha"]))]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"]["category"] == "inference"
        near, far = (tmp_path / "out" / "predictions.jsonl").read_text().splitlines()
        assert "zero likelihood" in json.loads(far)["error"]
        assert near + "\n" == alone

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

    def test_duplicate_evidence_columns_exit_3(self, work, tmp_path, capsys):
        path = tmp_path / "evidence.csv"
        path.write_text("site,marker_a,site\nalpha,0.5,beta\n")
        code = main(["infer", "--out-dir", str(tmp_path / "out"),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(path), "--mode", "model_missing"])
        assert code == 3
        assert _last_error(capsys)["message"] == f"{path}: duplicate evidence columns"

    def test_blank_line_evidence_exit_3_names_the_file(self, work, tmp_path, capsys):
        """A file of blank lines has a header naming no column: a format fault, not
        records with no evidence, and no predictions are written."""
        path = tmp_path / "evidence.csv"
        path.write_text("\n\n\n")
        out = tmp_path / "out"
        code = main(["infer", "--out-dir", str(out), "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(path), "--mode", "model_missing"])
        assert code == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "category": "validation", "message": f"{path}: the header names no column"}
        assert not (out / "predictions.jsonl").exists()

    def test_unknown_evidence_column_exit_3_names_the_file(self, work, tmp_path, capsys):
        """A header naming no model variable is a format fault of the evidence file."""
        path = tmp_path / "evidence.csv"
        path.write_text("marker_a, stage\n0.5,2\n")
        code = main(["infer", "--out-dir", str(tmp_path / "out"),
                     "--model", str(work["fit1"] / "model.json"),
                     "--evidence", str(path), "--mode", "model_missing"])
        assert code == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "category": "validation", "message": f"{path}: no variable named ' stage'"}

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


def test_json_rows_encodes_each_row_as_json_dumps():
    """Rows of 1, 1024, 1025 and 2049 record matrices and vectors: repeated rows,
    a value repeated across a chunk boundary, and 0.0 beside -0.0 in one chunk."""
    rng = np.random.default_rng(4)
    for n in (1, 1024, 1025, 2049):
        matrix = rng.choice([0.1, 1.0, 0.0, 1 / 3, 1e-300], size=(n, 3))
        matrix[::7] = rng.normal(size=3)  # one row repeated through every chunk
        matrix[n // 3, 2] = np.nan
        matrix[0, 2] = matrix[-1, 2] = np.pi
        matrix[n // 2, :2] = -0.0, 0.0
        assert list(_json_rows(matrix)) == [json.dumps(row)[1:-1] for row in matrix.tolist()]
        for vector in (matrix[:, 0], matrix[:, 2]):
            assert list(_json_rows(vector)) == [json.dumps(item) for item in vector.tolist()]


class TestPredictionsBytes:
    """predictions.jsonl holds, line by line, ``json.dumps(payload,
    sort_keys=True)`` of the payload built from per-record ``infer``."""

    CITIES = ("Zürich", "東京", "Ørsted")

    @staticmethod
    def _model(spread=1.0, city="city", cities=CITIES):
        """Components whose means of x lie ``spread`` times (-2, 1, 3); the outcomes
        ``grade``, ``city`` (so named by default) and ``conc``, not in key order."""
        schemas = (VariableSchema("x", "real"),
                   VariableSchema("site", "categorical", ("a", "b")),
                   VariableSchema("grade", "ordinal", (1, 2, 3, 4), role="outcome"),
                   VariableSchema(city, "categorical", cities, role="outcome"),
                   VariableSchema("conc", "nonnegative", role="outcome"))
        params = tuple((Gaussian(mean, 1.5), Categorical((1.0, 0.0), ("a", "b")),
                        QuantizedGaussian(grade, 0.8, (1, 2, 3, 4)),
                        Categorical(probs, cities),
                        InflatedGamma(zero, 2.0, scale))
                       for mean, grade, probs, zero, scale in
                       ((-2.0 * spread, 1.5, (0.6, 0.3, 0.1), 0.2, 1.5),
                        (1.0 * spread, 3.0, (0.1, 0.3, 0.6), 0.05, 0.7),
                        (3.0 * spread, 2.5, (0.3, 0.4, 0.3), 0.4, 3.0)))
        return MixtureModel((0.3, 0.5, 0.2), params, [[0.1, 0.2, 0.1, 0.1, 0.1]] * 3,
                            schemas)

    @staticmethod
    def _targets(model):
        return tuple(s.name for s in model.schemas if s.role == "outcome")

    def _payload(self, model, record, evidence):
        """The payload of one record, built as the writer of earlier versions did."""
        try:
            predicted = infer(model, InferenceRequest(evidence, self._targets(model),
                                                      "model_missing"))
        except (SchemaViolationError, ZeroLikelihoodError) as err:
            return {"record": record, "error": str(err)}
        targets = {}
        for name in self._targets(model):
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

    def _infer(self, tmp_path, model, cells):
        """``hetmix infer``'s exit code and lines on the (x, site) evidence cells,
        and the lines wanted: ``json.dumps`` of each record's payload."""
        save_model(model, tmp_path / "model.json")
        (tmp_path / "evidence.csv").write_text(
            "x,site\n" + "".join(f"{x},{site}\n" for x, site in cells))
        code = main(["infer", "--out-dir", str(tmp_path / "out"),
                     "--model", str(tmp_path / "model.json"),
                     "--evidence", str(tmp_path / "evidence.csv"),
                     "--targets", ",".join(self._targets(model)), "--mode", "model_missing"])
        want = [json.dumps(self._payload(model, i, {
            "x": MISSING if x == "" else x if x == "oops" else float(x), "site": site}),
            sort_keys=True) + "\n" for i, (x, site) in enumerate(cells)]
        text = (tmp_path / "out" / "predictions.jsonl").read_text(encoding="ascii")
        return code, text.splitlines(keepends=True), want

    def test_lines_equal_json_dumps_of_the_payload(self, tmp_path, capsys):
        model = self._model()
        rng = np.random.default_rng(8)
        # more records than one encoding chunk; a bad cell, a bad symbol, an
        # explicit missing cell and a symbol of zero likelihood among them
        cells = [(repr(float(x)), "a") for x in rng.normal(0.0, 3.0, 1030)]
        cells[3], cells[500], cells[1024], cells[1029] = \
            ("oops", "a"), ("0.5", "atlantis"), ("", "a"), ("1.0", "b")
        code, got, want = self._infer(tmp_path, model, cells)
        assert code == 5
        assert "1027 of 1030 records inferred" in capsys.readouterr().out
        assert got == want
        assert [i for i, line in enumerate(want) if '"error"' in line] == [3, 500, 1029]
        assert json.loads(want[1029])["error"] == "evidence has zero likelihood under every component"
        assert "\\u6771\\u4eac" in want[0]  # the non-ASCII symbol, as json escapes it

    def test_lines_keep_their_bytes_when_most_rows_repeat(self, tmp_path, capsys):
        """Components far apart: most posteriors are exactly 1.0 and 0.0, so most
        probability rows equal one component's masses, across two chunks."""
        model = self._model(spread=30.0)
        rng = np.random.default_rng(9)
        x = rng.choice([-60.0, 30.0, 90.0], 2100) + rng.normal(0.0, 1.5, 2100)
        cells = [(repr(float(v)), "a") for v in x]
        cells[1500] = ("oops", "a")
        code, got, want = self._infer(tmp_path, model, cells)
        assert code == 5
        assert "2099 of 2100 records inferred" in capsys.readouterr().out
        assert got == want
        payloads = [json.loads(line) for line in want if '"error"' not in line]
        assert sum(1.0 in p["posterior"] for p in payloads) > 0.9 * len(payloads)
        rows = {json.dumps([p["targets"][name]["probabilities"] for name in ("grade", "city")])
                for p in payloads}
        assert len(rows) < len(cells) / 2

    def test_names_and_symbols_with_percent_and_quote(self, tmp_path, capsys):
        """A target name and categorical symbols holding ``%`` and ``"``, which the
        line template shares by every record: the lines still equal the payloads'."""
        model = self._model(city='ci%ty "%s"', cities=("100%", '"q"', "%d%%"))
        cells = [("0.5", "a"), ("oops", "a"), ("-3.0", "a"), ("", "a"), ("1.0", "b")]
        code, got, want = self._infer(tmp_path, model, cells)
        assert code == 5
        assert "3 of 5 records inferred" in capsys.readouterr().out
        assert got == want
        assert [i for i, line in enumerate(want) if '"error"' in line] == [1, 4]
        payload = json.loads(want[0])["targets"]['ci%ty "%s"']
        assert payload["domain"] == ["100%", '"q"', "%d%%"]


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

    def test_degenerate_density_is_skipped(self, work, tmp_path, capsys, monkeypatch):
        """A density whose errors give no bandwidth is skipped with a line on stdout
        and no rows, and the command still succeeds."""
        import hetmix.cli
        from hetmix import DegenerateSampleError
        real, calls = hetmix.cli.scott_bandwidth, []

        def first_degenerate(errors):  # the first is order 1, target severity
            calls.append(errors)
            if len(calls) == 1:
                raise DegenerateSampleError("all identical")
            return real(errors)

        monkeypatch.setattr(hetmix.cli, "scott_bandwidth", first_degenerate)
        out = tmp_path / "eval"
        assert main(["evaluate", "--out-dir", str(out), "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--orders", "1", "--mode",
                     "model_missing", "--targets", "severity,status", "--restarts", "1",
                     "--max-iterations", "10"]) == 0
        assert len(calls) == 2
        assert ("density skipped for order 1, target severity: errors are all identical\n"
                in capsys.readouterr().out)
        _, rows = _read_csv(out / "error_density.csv")
        assert {(r[0], r[1]) for r in rows} == {("1", "status")}
        assert len(rows) == 201

    def test_a_fold_too_narrow_to_fit_is_excluded(self, tmp_path, capsys):
        """Ten values near 1e-200, nineteen zeros and one 1.0: the cohort passes, and the
        fold that holds out the 1.0 fails its check by name and is excluded; the run
        goes on and writes all six tables."""
        schema, data = tmp_path / "schema.json", tmp_path / "data.csv"
        save_schemas((VariableSchema("x", "real"),
                      VariableSchema("y", "ordinal", (1, 2, 3), "outcome")), schema)
        x = [1e-200 * (1.0 + i / 10.0) for i in range(10)] + [0.0] * 19 + [1.0]
        y = np.random.default_rng(2).integers(1, 4, size=30).tolist()
        data.write_text("x,y\n" + "".join(f"{a!r},{b}\n" for a, b in zip(x, y)))
        out = tmp_path / "eval"
        assert main(["evaluate", "--out-dir", str(out), "--data", str(data), "--schema",
                     str(schema), "--orders", "1-2", "--mode", "model_missing"]) == 0
        assert "1 fold(s) failed and were excluded" in capsys.readouterr().out
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "confidence_bins.csv", "confidence_records.csv", "eae_records.csv",
            "error_density.csv", "performance.csv", "threshold_curve.csv"]
        _, records = _read_csv(out / "eae_records.csv")
        assert {row[1] for row in records} == {str(s) for s in range(29)}

    def test_a_target_with_no_known_error_has_no_rows(self, tmp_path, capsys):
        """``status`` is observed in subjects 0 and 1 alone, whose folds lose its variability
        and fail: no subject left has a known status error at any order, so status has no row
        in any table, and severity keeps its rows."""
        from hetmix import Dataset, sample_cohort, small_demo_model
        from hetmix.io import write_data_csv
        model = small_demo_model()
        cohort, _ = sample_cohort(model, 30, np.random.default_rng(4))
        status = cohort.column_index("status")
        rows = [list(cohort.row(i)) for i in range(30)]
        for i, row in enumerate(rows):
            row[status] = cohort.schemas[status].domain[i] if i < 2 else MISSING
        write_data_csv(Dataset(cohort.schemas, rows), tmp_path / "cohort.csv")
        save_schemas(model.schemas, tmp_path / "schema.json")
        out = tmp_path / "eval"
        assert main(["evaluate", "--out-dir", str(out), "--data", str(tmp_path / "cohort.csv"),
                     "--schema", str(tmp_path / "schema.json"), "--orders", "1-2",
                     "--restarts", "1", "--max-iterations", "10",
                     "--mode", "ignore_missing"]) == 0
        stdout = capsys.readouterr().out
        assert "2 fold(s) failed and were excluded" in stdout
        # each summary line on stdout is its performance.csv row's order, target, n, summary
        _, performance = _read_csv(out / "performance.csv")
        assert [line for line in stdout.splitlines() if line.startswith("order ")] == [
            f"order {order} target {target}: {summary} over {n}"
            for order, target, n, _, _, summary in performance]
        for table, column in (("performance.csv", 1), ("eae_records.csv", 2),
                              ("confidence_bins.csv", 1), ("threshold_curve.csv", 1),
                              ("error_density.csv", 1)):
            _, got = _read_csv(out / table)
            assert {row[column] for row in got} == {"severity"}, table

    def test_unobserved_zero_likelihood_subject_rows(self, tmp_path):
        """Seed 38's 13-row cohort: subject 7 has no observed truth, and zero likelihood
        under its folds' models. It keeps a confidence row of -inf at percentile 0 at orders
        1 and 2 and has no error row; both tables list their rows in (order, subject,
        target) order, one per observed truth."""
        from hetmix import sample_cohort, small_demo_model
        from hetmix.io import write_data_csv
        model = small_demo_model()
        cohort, _ = sample_cohort(model, 13, np.random.default_rng(38))
        write_data_csv(cohort, tmp_path / "cohort.csv")
        save_schemas(model.schemas, tmp_path / "schema.json")
        out = tmp_path / "eval"
        assert main(["evaluate", "--out-dir", str(out), "--data", str(tmp_path / "cohort.csv"),
                     "--schema", str(tmp_path / "schema.json"), "--orders", "1-2",
                     "--restarts", "2", "--max-iterations", "20",
                     "--mode", "model_missing"]) == 0
        _, conf = _read_csv(out / "confidence_records.csv")
        _, eae = _read_csv(out / "eae_records.csv")
        assert [row for row in conf if row[1] == "7"] == [["1", "7", "-inf", "0.0"],
                                                          ["2", "7", "-inf", "0.0"]]
        assert [row for row in eae if row[1] == "7"] == []
        assert [(int(o), int(s)) for o, s, *_ in conf] == [(o, s) for o in (1, 2)
                                                            for s in range(13)]
        targets = ("severity", "status")
        observed = [(s, t) for s in range(13) for t, name in enumerate(targets)
                    if cohort.value(s, cohort.column_index(name)) is not MISSING]
        assert len(observed) == 21
        assert [(int(o), int(s), targets.index(t)) for o, s, t, *_ in eae] == \
            [(o, s, t) for o in (0, 1, 2) for s, t in observed]


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

    def test_nested_out_dirs_are_made(self, work, tmp_path):
        """``main`` and ``rerun`` each make an output directory whose parents do not exist."""
        first, again = tmp_path / "a" / "b" / "fit", tmp_path / "c" / "d" / "again"
        assert main(["fit", "--out-dir", str(first), "--data", str(work["data"]),
                     "--schema", str(work["schema"]), "--order", "1", "--restarts", "1"]) == 0
        assert main(["rerun", "--manifest", str(first / "manifest.json"),
                     "--out-dir", str(again)]) == 0
        for name in ("model.json", "trace.csv", "manifest.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_rejects_unknown_manifest(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format_version": 1, "command": "explode",
                                    "arguments": {}, "inputs": {}}))
        code = main(["rerun", "--manifest", str(path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "unknown command" in _last_error(capsys)["message"]


    @pytest.mark.parametrize("edit", [
        lambda m, _: [m],
        lambda m, _: {k: v for k, v in m.items() if k != "arguments"},
        lambda m, _: {**m, "command": "demo-model", "arguments": {}, "inputs": {}},
        lambda m, _: {**m, "inputs": {"data": {"sha256": m["inputs"]["data"]["sha256"]}}},
        lambda m, _: {**m, "arguments": {**m["arguments"], "order": "two"}},
        lambda m, _: {**m, "arguments": {**m["arguments"], "restarts": 1.5}},
        lambda m, _: {**m, "format_version": 2},
        # the run would hash nothing, or hash one cohort and fit another
        lambda m, _: {**m, "inputs": {}},
        lambda m, copy: {**m, "arguments": {**m["arguments"], "data": str(copy)}},
        # a validate run given arguments that validate does not take
        lambda m, _: {**m, "command": "validate", "arguments": {
            **{k: m["arguments"][k] for k in ("data", "schema", "missing_token",
                                              "drop_constant")},
            "bogus": True, "orders": "1-3"}},
    ], ids=["list", "no-arguments", "argument-keys-missing", "input-without-path",
            "order-not-an-int", "restarts-not-an-int", "format-version-2", "inputs-empty",
            "data-not-the-hashed-file", "arguments-the-command-does-not-take"])
    def test_malformed_manifest_exits_3(self, work, tmp_path, capsys, edit):
        manifest = json.loads((work["fit1"] / "manifest.json").read_text())
        copy = tmp_path / "elsewhere" / "cohort.csv"
        copy.parent.mkdir()
        copy.write_bytes(work["data"].read_bytes())
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(edit(manifest, copy)))
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

    def test_threshold_sweep_past_memory_exit_6_before_the_cohort_is_read(
            self, work, tmp_path, capsys, monkeypatch):
        """The sweep is sized right after the option check. A stand-in ``linspace`` refuses
        more than 10**9 samples, so nothing large is allocated: exit 6, one memory line, no
        cohort read, no fold run and nothing in --out-dir."""
        import hetmix.cli as cli
        linspace = np.linspace

        def bounded(start, stop, num=50, **kwargs):
            if num > 10**9:
                raise MemoryError(f"Unable to allocate {num} samples")
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", bounded)
        monkeypatch.setattr(cli, "_load_training_data",
                            lambda *a, **k: pytest.fail("the cohort was read"))
        monkeypatch.setattr(cli, "loo_evaluate", lambda *a, **k: pytest.fail("a fold ran"))
        out = tmp_path / "out"
        code = main(["evaluate", "--out-dir", str(out),
                     "--data", str(work["data"]), "--schema", str(work["schema"]),
                     "--orders", "1", "--restarts", "1", "--mode", "model_missing",
                     "--threshold-steps", str(10**12)])
        assert code == 6
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"error": {"category": "memory",
                       "message": f"Unable to allocate {10**12 + 1} samples"}}]
        assert list(out.iterdir()) == []

    def test_report_past_memory_leaves_no_table(self, work, tmp_path, capsys, monkeypatch):
        """The six tables are written only once all are built: a density that runs out of
        memory after the folds leaves no table and no manifest."""
        import hetmix.cli as cli

        def out_of_memory(values, grid):
            raise MemoryError()

        monkeypatch.setattr(cli, "error_density", out_of_memory)
        out = tmp_path / "out"
        code = main(["evaluate", "--out-dir", str(out),
                     "--data", str(work["data"]), "--schema", str(work["schema"]),
                     "--orders", "1", "--restarts", "1", "--max-iterations", "5",
                     "--mode", "model_missing"])
        assert code == 6
        assert _last_error(capsys) == {"category": "memory", "message": "out of memory"}
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("orders", ["60", "1-60", "59-61"])
    def test_order_above_the_fold_subjects_exit_3_before_any_fold(
            self, work, tmp_path, capsys, monkeypatch, orders):
        """A leave-one-out fold of the 60-row cohort trains on 59 subjects."""
        import hetmix.evaluation as evaluation
        monkeypatch.setattr(evaluation, "_evaluate_folds",
                            lambda *a, **k: pytest.fail("a fold ran"))
        out = tmp_path / "out"
        code = main(["evaluate", "--out-dir", str(out),
                     "--data", str(work["data"]), "--schema", str(work["schema"]),
                     "--orders", orders, "--restarts", "1", "--mode", "model_missing"])
        assert code == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert error["message"].endswith(" exceeds the 59 subject(s) a fit trains on")
        assert list(out.glob("*.csv")) == []

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

    @pytest.mark.parametrize("target, kind", [("dose", "nonnegative"), ("marker_a", "real")])
    def test_continuous_target_exit_3_names_the_accepted_kinds(self, work, tmp_path, capsys,
                                                               target, kind):
        out = tmp_path / "out"
        code = main(["evaluate", "--out-dir", str(out),
                     "--data", str(work["data"]), "--schema", str(work["schema"]),
                     "--orders", "1", "--restarts", "1", "--mode", "model_missing",
                     "--targets", target])
        assert code == 3
        error = _last_error(capsys)
        assert error["category"] == "validation"
        assert error["message"] == (f"{target}: expected-error metrics need an ordinal or "
                                    f"categorical target, not a {kind} one")
        assert list(out.glob("*.csv")) == []


    def test_warnings_are_json_lines(self, work, tmp_path, capsys, monkeypatch):
        """Three workers on one CPU run as one, no process started, and the warning that says
        so reaches stderr as one JSON line."""
        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("a process started"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code = main(["evaluate", "--out-dir", str(tmp_path / "out"),
                     "--data", str(work["data"]), "--schema", str(work["schema"]),
                     "--orders", "1", "--restarts", "1", "--max-iterations", "5",
                     "--mode", "model_missing", "--workers", "3"])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [json.dumps(
            {"warning": {"category": "UserWarning",
                         "message": "n_workers 3 capped at the 1 CPU(s) this process may use"}})]


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
