"""Batch command-line surface: validate, fit, select, infer, evaluate, simulate.

File formats
------------
Schema file (JSON)::

    {"format_version": 1,
     "variables": [
       {"name": "age",      "kind": "real",        "role": "input"},
       {"name": "dose",     "kind": "nonnegative", "role": "input"},
       {"name": "severity", "kind": "ordinal",     "role": "outcome",
        "domain": [1, 2, 3, 4, 5, 6, 7, 8]},
       {"name": "site",     "kind": "categorical", "role": "input",
        "domain": ["alpha", "beta"]}]}

``kind`` is one of real / nonnegative / ordinal / categorical; ``domain`` is
required exactly for the finite kinds (increasing integers for ordinal,
distinct symbols for categorical); ``role`` is input or outcome.

Data file: CSV with a header row naming every schema variable exactly once
(any column order). Cells equal to the missing token (default: empty string)
are treated as unobserved; a token that is also a categorical symbol or parses
to an ordinal level of a column in the file is refused. Evidence files for
``infer`` use the same format but may cover any subset of non-target
variables; a column left out of the file contributes nothing, while a
missing-token cell engages the chosen missingness mode explicitly. ``infer``
writes one ``predictions.jsonl`` line per record from one likelihood pass; a
record with bad cells or zero likelihood gets an error line, and exit 5.

Every command writes its outputs atomically into --out-dir (each file whole or
not at all) together with a ``manifest.json`` recording the tool version,
command, full argument set, seed, and sha256 of each input file; ``evaluate``
writes no table unless all six were built. ``hetmix rerun`` re-executes a manifest
whose arguments are exactly the command's options, of the types and choices
the parser allows, and whose inputs are exactly its input arguments' files,
unchanged; it reproduces byte-identical outputs. Floats are serialized in
shortest round-trip form throughout.

Exit codes: 0 success, 2 usage (argparse), 3 validation (checked before any
work, e.g. an unknown or duplicate target), 4 training, 5 inference, 6 I/O or memory
failure.
Errors and warnings go to stderr as JSON lines, ``{"error": ...}`` and ``{"warning": ...}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, demo
from .evaluation import (DegenerateSampleError, confidence_bins, error_density,
                         loo_evaluate, scott_bandwidth, threshold_curve)
from .inference import infer_many
from .io import (DEFAULT_MISSING_TOKEN, FormatError, _read_cohort, _read_json, _versioned,
                 _write_json, atomic_write_text, load_dataset, load_model, params_to_dict,
                 read_evidence_csv, save_model, save_schemas, sha256_file, write_csv_table,
                 write_data_csv)
from .model import MISSINGNESS_MODES, sample_cohort
from .schema import (OUTCOME, SchemaError, SchemaViolationError,
                     missingness_profile, validate_dataset)
from .training import EmConfig, TrainingError, fit, select_order

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_TRAINING = 4
EXIT_INFERENCE = 5
EXIT_IO = 6

MANIFEST_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"


class _PartialFailure(Exception):
    """A command wrote its outputs but must still exit nonzero."""

    def __init__(self, outputs, category, code, message, **extra):
        self.outputs = outputs
        self.category = category
        self.code = code
        self.extra = extra
        super().__init__(message)


def _fail(category: str, code: int, message: str, **extra) -> int:
    record = {"category": category, "message": message}
    record.update(extra)
    print(json.dumps({"error": record}, sort_keys=True), file=sys.stderr)
    return code


def _inputs(arguments: dict) -> dict:
    """{argument: path} of the files a command reads, as its manifest records them."""
    return {k: arguments[k] for k in ("data", "schema", "model", "evidence") if arguments.get(k)}


def _write_manifest(out_dir, command: str, arguments: dict, outputs: list):
    _write_json(out_dir / MANIFEST_NAME, {
        "format_version": MANIFEST_FORMAT_VERSION,
        "tool": "hetmix",
        "tool_version": __version__,
        "command": command,
        "arguments": arguments,
        "inputs": {name: {"path": str(path), "sha256": sha256_file(path)}
                   for name, path in _inputs(arguments).items()},
        "outputs": sorted(outputs),
    })


def _em_config(arguments: dict) -> EmConfig:
    return EmConfig(**{name: arguments[name] for name in vars(EmConfig())})


def _load_training_data(arguments: dict):
    dataset, dropped = load_dataset(arguments["data"], arguments["schema"],
                                    missing_token=arguments["missing_token"],
                                    drop_constant=arguments["drop_constant"])
    for name in dropped:
        print(f"dropped zero-variability column: {name}")
    return dataset


def _write_fit(out_dir, model, trace) -> list:
    """Write a fit's model.json and trace.csv; returns their names."""
    save_model(model, out_dir / "model.json")
    write_csv_table(out_dir / "trace.csv", ["iteration", "nll"],
                    enumerate(trace.nll_per_iteration))
    return ["model.json", "trace.csv"]


def _targets(arguments: dict, schemas) -> list:
    """The --targets names; by default the outcome-role variables."""
    return (arguments["targets"].split(",") if arguments["targets"]
            else [s.name for s in schemas if s.role == OUTCOME])


def parse_orders(text: str) -> itertools.chain:
    """Order spec: '3', '1,2,5', or '1-6' (inclusive range), checked for syntax alone: its
    orders in the order written, each range unexpanded (``itertools.chain`` of ranges).
    ``training._checked_orders`` bounds, sorts and de-duplicates them as it reads them."""
    ranges = []
    for part in filter(None, map(str.strip, str(text).split(","))):
        try:
            lo, hi = map(int, part.split("-", 1)) if "-" in part[1:] else (int(part),) * 2
        except ValueError:
            raise ValueError(f"bad order {part!r} in {text!r}: expected N or N-M") from None
        if hi < lo:
            raise ValueError(f"reversed range {part!r} in {text!r}")
        ranges.append(range(lo, hi + 1))
    if not ranges:
        raise ValueError(f"no orders in {text!r}")
    return itertools.chain(*ranges)


# ------------------------------------------------------------------ commands

def run_validate(arguments: dict, out_dir) -> list:
    dataset, dropped = _read_cohort(arguments["data"], arguments["schema"],
                                    arguments["missing_token"], arguments["drop_constant"])
    violations = validate_dataset(dataset)
    profile = missingness_profile(dataset)
    report = {
        "subjects": dataset.n_subjects,
        "variables": dataset.n_variables,
        "dropped_columns": dropped,
        "violations": [dataclasses.asdict(v) for v in violations],
        "subjects_with_at_least_m_missing": [int(c) for c in profile.subjects_with_at_least],
    }
    _write_json(out_dir / "validation_report.json", report)
    for v in violations:
        print(str(v))
    print(f"{dataset.n_subjects} subjects, {dataset.n_variables} variables, "
          f"{len(violations)} violation(s)")
    if violations:
        raise _PartialFailure(["validation_report.json"], "validation",
                              EXIT_VALIDATION, f"{len(violations)} violation(s)",
                              violations=report["violations"])
    return ["validation_report.json"]


def run_fit(arguments: dict, out_dir) -> list:
    dataset = _load_training_data(arguments)
    model, trace = fit(dataset, arguments["order"], _em_config(arguments))
    print(f"order {arguments['order']}: nll={trace.final_nll!r} "
          f"restart={trace.restart_index} converged={trace.converged} "
          f"iterations={trace.iterations}")
    return _write_fit(out_dir, model, trace)


def run_select(arguments: dict, out_dir) -> list:
    dataset = _load_training_data(arguments)
    selection = select_order(dataset, parse_orders(arguments["orders"]), _em_config(arguments))
    write_csv_table(out_dir / "bic_table.csv",
                    ["order", "n_params", "nll", "bic", "converged", "error"],
                    map(dataclasses.astuple, selection.scores))
    print(f"selected order {selection.best_order}")
    return ["bic_table.csv", *_write_fit(out_dir, selection.best_model, selection.best_trace)]


def _json_rows(matrix):
    """``json.dumps`` of each item of a float vector, or of each row of a float
    matrix without its brackets. Each distinct float of a chunk of 1,024 rows is
    encoded once, by bits, so -0.0 and 0.0 stay apart."""
    for start in range(0, len(matrix), 1024):
        chunk = matrix[start:start + 1024]
        bits, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
        texts = np.array(json.dumps(bits.view(float).tolist())[1:-1].split(", "), dtype=object)
        items = texts[inverse.reshape(chunk.shape)].tolist()
        yield from items if chunk.ndim == 1 else map(", ".join, items)


def _prediction_lines(predicted, errors: dict, n_records: int):
    """The lines of ``predictions.jsonl``, each ``json.dumps(payload, sort_keys=True)`` of its
    record's payload: one ``%`` template, built once in key order from what all records share
    (each target's name, kind, and domain or components, ``%`` doubled), filled from per-slot
    text columns (posterior, index, each target's point and probabilities or weights)."""
    posteriors = list(_json_rows(predicted.posteriors))
    heads, columns = [], [posteriors, [i for i in range(n_records) if i not in errors]]
    for name, (schema, table) in sorted(predicted.tables.items()):
        finite = schema.kind.is_finite
        shared = json.dumps({"kind": schema.kind.value, **(
            {"domain": list(schema.domain)} if finite else
            {"components": [params_to_dict(cell) for cell in table]})}, sort_keys=True)
        heads.append(f'{json.dumps(name)}: {shared[:-1]}, "point": '.replace("%", "%%")
                     + ('%s, "probabilities": [%s]}' if finite else '%s, "weights": [%s]}'))
        if finite:  # each point's domain text, picked by code
            domain = np.array([json.dumps(v) for v in schema.domain], dtype=object)
            columns += [domain[predicted.points[name]].tolist(),
                        _json_rows(predicted.probabilities[name])]
        else:
            columns += [_json_rows(predicted.points[name]), posteriors]
    template = '{"posterior": [%s], "record": %s, "targets": {' + ", ".join(heads) + "}}\n"
    lines = map(template.__mod__, zip(*columns))
    for i in range(n_records):  # each error line spliced in at its record
        yield (json.dumps({"error": str(errors[i]), "record": i}, sort_keys=True) + "\n"
               if i in errors else next(lines))


def run_infer(arguments: dict, out_dir) -> list:
    model = load_model(arguments["model"])
    targets = _targets(arguments, model.schemas)
    evidence, columns = read_evidence_csv(arguments["evidence"], model,
                                          arguments["missing_token"])
    predicted, errors = infer_many(model, evidence, columns, targets, arguments["mode"])
    atomic_write_text(out_dir / "predictions.jsonl",
                      _prediction_lines(predicted, errors, evidence.n_subjects))
    print(f"{evidence.n_subjects - len(errors)} of {evidence.n_subjects} records inferred")
    if errors:
        raise _PartialFailure(["predictions.jsonl"], "inference", EXIT_INFERENCE,
                              f"{len(errors)} record(s) failed inference")
    return ["predictions.jsonl"]


def run_evaluate(arguments: dict, out_dir) -> list:
    """Check the options and size the sweep, run the folds, build all six tables, write them."""
    if not (arguments["threshold_steps"] >= 0 and arguments["density_points"] >= 0
            and arguments["workers"] >= 1 and 0 <= arguments["bin_cutoff"] <= 1):
        raise ValueError("evaluate needs --threshold-steps >= 0, --density-points >= 0, "
                         "--workers >= 1 and 0 <= --bin-cutoff <= 1")
    taus = np.linspace(0.0, 1.0, arguments["threshold_steps"] + 1)
    dataset = _load_training_data(arguments)
    result = loo_evaluate(dataset, parse_orders(arguments["orders"]),
                          tuple(_targets(arguments, dataset.schemas)),
                          arguments["mode"], _em_config(arguments),
                          n_workers=arguments["workers"])

    bin_rows, curve_rows, density_rows = [], [], []
    for o, order in enumerate(result.orders[1:], 1):
        for t, name in enumerate(result.targets):
            known = ~np.isnan(result.normalized[o, :, t])
            if not known.any():
                continue
            pct, err = result.percentiles[o, known], result.normalized[o, known, t]
            bins = confidence_bins(pct, err, arguments["bin_cutoff"])
            bin_rows.append([order, name, bins.cutoff, bins.low_count, bins.low_mean,
                             bins.high_count, bins.high_mean])
            curve = threshold_curve(pct, err, taus)
            curve_rows.extend([order, name, *row] for row in zip(
                curve.thresholds.tolist(), curve.kept.tolist(), curve.mean_error.tolist(),
                curve.improvement.tolist()))
            try:
                h = scott_bandwidth(err)
                grid = np.linspace(err.min() - 4 * h, err.max() + 4 * h,
                                   arguments["density_points"])
                density_rows.extend([order, name, *row] for row in zip(
                    grid.tolist(), error_density(err, grid).tolist()))
            except DegenerateSampleError:
                print(f"density skipped for order {order}, target {name}: "
                      "errors are all identical")

    performance = [[s.order, s.target, s.n_subjects, s.mean_normalized, s.spread,
                    f"{s.mean_normalized:.1f} ({s.spread:.1f})"] for s in result.summaries]
    # one row per value that is not NaN, in (order, subject, target) order
    eae, scored = np.nonzero(~np.isnan(result.errors)), np.nonzero(~np.isnan(result.log_scores))
    tables = {
        "performance.csv": (["order", "target", "n", "mean_normalized", "two_std", "summary"],
                            performance),
        "eae_records.csv": (["order", "subject", "target", "error", "normalized"], zip(
            np.take(result.orders, eae[0]).tolist(), result.subjects[eae[1]].tolist(),
            np.take(result.targets, eae[2]).tolist(), result.errors[eae].tolist(),
            result.normalized[eae].tolist())),
        "confidence_records.csv": (["order", "subject", "log_score", "percentile"], zip(
            np.take(result.orders, scored[0]).tolist(), result.subjects[scored[1]].tolist(),
            result.log_scores[scored].tolist(), result.percentiles[scored].tolist())),
        "confidence_bins.csv": (["order", "target", "cutoff", "low_n", "low_mean_normalized",
                                 "high_n", "high_mean_normalized"], bin_rows),
        "threshold_curve.csv": (["order", "target", "threshold", "kept", "mean_normalized",
                                 "improvement"], curve_rows),
        "error_density.csv": (["order", "target", "grid", "density"], density_rows),
    }
    for name, (header, rows) in tables.items():
        write_csv_table(out_dir / name, header, rows)

    for order, target, n, *_, summary in performance:
        print(f"order {order} target {target}: {summary} over {n}")
    if result.failures:
        print(f"{len(result.failures)} fold(s) failed and were excluded")
    return list(tables)


def run_simulate(arguments: dict, out_dir) -> list:
    model = load_model(arguments["model"])
    rng = np.random.default_rng(arguments["seed"])
    dataset, labels = sample_cohort(model, arguments["n"], rng)
    write_data_csv(dataset, out_dir / "cohort.csv", arguments["missing_token"])
    write_csv_table(out_dir / "labels.csv", ["subject", "component"], enumerate(labels.tolist()))
    save_schemas(model.schemas, out_dir / "schema.json")
    print(f"wrote {dataset.n_subjects} subjects x {dataset.n_variables} variables")
    return ["cohort.csv", "labels.csv", "schema.json"]


def run_demo_model(arguments: dict, out_dir) -> list:
    model = demo.small_demo_model() if arguments["variant"] == "small" else demo.demo_model()
    save_model(model, out_dir / "model.json")
    save_schemas(model.schemas, out_dir / "schema.json")
    print(f"wrote {arguments['variant']} demo model "
          f"({model.n_components} components, {model.n_variables} variables)")
    return ["model.json", "schema.json"]


_RUNNERS = {
    "validate": run_validate,
    "fit": run_fit,
    "select": run_select,
    "infer": run_infer,
    "evaluate": run_evaluate,
    "simulate": run_simulate,
    "demo-model": run_demo_model,
}


def _execute(command: str, arguments: dict, out_dir) -> int:
    """Make ``out_dir``, run a command in it, then write the manifest that can reproduce it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        outputs = _RUNNERS[command](arguments, out_dir)
    except _PartialFailure as err:
        _write_manifest(out_dir, command, arguments, err.outputs)
        return _fail(err.category, err.code, str(err), **err.extra)
    _write_manifest(out_dir, command, arguments, outputs)
    return EXIT_OK


def run_rerun(args) -> int:
    payload = _versioned(_read_json(args.manifest), MANIFEST_FORMAT_VERSION, "manifest")
    command = payload.get("command")
    if not (isinstance(command, str) and command in _RUNNERS):
        raise FormatError(f"manifest names unknown command {command!r}")
    inputs, arguments = payload.get("inputs", {}), payload.get("arguments")
    if not (isinstance(arguments, dict) and isinstance(inputs, dict) and all(
            isinstance(e, dict) and {"path", "sha256"} <= e.keys() for e in inputs.values())):
        raise FormatError("manifest needs an arguments object and a path and sha256 per input")
    parser = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices[command]
    actions = [a for a in parser._actions if a.dest not in ("help", "out_dir")]
    if set(arguments) != {a.dest for a in actions}:
        raise FormatError(f"manifest arguments must be {sorted(a.dest for a in actions)}")
    for action in actions:  # each value must be one the parser could have stored
        value = arguments[action.dest]
        kind = (bool if isinstance(action, argparse._StoreTrueAction)
                else {int: int, float: (int, float)}.get(action.type, str))
        if (value not in action.choices if action.choices
                else not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)):
            raise FormatError(f"manifest argument {action.dest!r} cannot be {value!r}")
    if {name: entry["path"] for name, entry in inputs.items()} != _inputs(arguments):
        raise FormatError("manifest inputs must be the paths of the input arguments")
    for name, entry in inputs.items():
        if sha256_file(entry["path"]) != entry["sha256"]:
            raise FormatError(f"input {name!r} ({entry['path']}) changed since "
                              "the manifest was written")
    return _execute(command, arguments, args.out_dir)


# ------------------------------------------------------------------ parser

def _add_common(parser, *, em: bool = False, data: bool = False, mode: bool = False):
    parser.add_argument("--out-dir", required=True, type=Path, help="output directory")
    if data:
        parser.add_argument("--data", required=True, help="cohort CSV")
        parser.add_argument("--schema", required=True, help="schema JSON")
        parser.add_argument("--missing-token", default=DEFAULT_MISSING_TOKEN,
                            help="cell text meaning MISSING (default: empty)")
        parser.add_argument("--drop-zero-variability", dest="drop_constant",
                            action="store_true",
                            help="drop always-missing/constant columns instead of failing")
    if em:  # one option per EmConfig field, with its default
        for name, default in vars(EmConfig()).items():
            parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    if mode:
        parser.add_argument("--mode", required=True, choices=MISSINGNESS_MODES,
                            help="missingness handling (no default on purpose)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetmix",
        description="Mixture-model engine for mixed-type tabular data "
                    "with explicit missingness")
    parser.add_argument("--version", action="version", version=f"hetmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a cohort against its schema")
    _add_common(p, data=True)

    p = sub.add_parser("fit", help="train a mixture of a fixed order")
    _add_common(p, data=True, em=True)
    p.add_argument("--order", type=int, required=True, help="number of components")

    p = sub.add_parser("select", help="fit an order range and pick the BIC winner")
    _add_common(p, data=True, em=True)
    p.add_argument("--orders", required=True, help="e.g. 1-6 or 1,2,4")

    p = sub.add_parser("infer", help="predict targets from partial evidence records")
    _add_common(p, mode=True)
    p.add_argument("--model", required=True, help="model JSON from fit/select")
    p.add_argument("--evidence", required=True, help="evidence CSV (subset of columns)")
    p.add_argument("--targets", default="", help="comma list; default: outcome-role variables")
    p.add_argument("--missing-token", default=DEFAULT_MISSING_TOKEN)

    p = sub.add_parser("evaluate",
                       help="leave-one-out expected-error and confidence reports")
    _add_common(p, data=True, em=True, mode=True)
    p.add_argument("--orders", required=True, help="model orders to evaluate, e.g. 1-3")
    p.add_argument("--targets", default="", help="comma list; default: outcome-role variables")
    p.add_argument("--workers", type=int, default=1, help="parallel fold workers")
    p.add_argument("--bin-cutoff", type=float, default=0.5,
                   help="confidence percentile split for the two-bin table")
    p.add_argument("--threshold-steps", type=int, default=20,
                   help="number of steps in the confidence-threshold sweep")
    p.add_argument("--density-points", type=int, default=201,
                   help="grid size for the error density curves")

    p = sub.add_parser("simulate", help="sample a synthetic cohort from a model file")
    _add_common(p)
    p.add_argument("--model", required=True, help="generating model JSON")
    p.add_argument("--n", type=int, required=True, help="number of subjects")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--missing-token", default=DEFAULT_MISSING_TOKEN)

    p = sub.add_parser("demo-model", help="write the bundled synthetic generator")
    _add_common(p)
    p.add_argument("--variant", choices=("full", "small"), default="full")

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("--manifest", required=True, help="manifest.json of a previous run")
    p.add_argument("--out-dir", required=True, type=Path, help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *_: print(json.dumps(
            {"warning": {"category": category.__name__, "message": str(message)}},
            sort_keys=True), file=sys.stderr)
        try:
            if args.command == "rerun":
                return run_rerun(args)
            arguments = {key: value for key, value in vars(args).items()
                         if key not in ("command", "out_dir")}
            return _execute(args.command, arguments, args.out_dir)
        except SchemaViolationError as err:
            return _fail("validation", EXIT_VALIDATION, str(err),
                         violations=[dataclasses.asdict(v) for v in err.violations])
        except TrainingError as err:
            return _fail("training", EXIT_TRAINING, str(err))
        except (SchemaError, FormatError, ValueError) as err:
            return _fail("validation", EXIT_VALIDATION, str(err))
        except OSError as err:
            return _fail("io", EXIT_IO, str(err))
        except MemoryError as err:
            return _fail("memory", EXIT_IO, str(err) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
