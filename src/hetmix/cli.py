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
missing-token cell engages the chosen missingness mode explicitly.

Every command writes its outputs atomically into --out-dir together with a
``manifest.json`` recording the tool version, command, full argument set,
seed, and sha256 of each input file. ``hetmix rerun`` re-executes a manifest
and reproduces byte-identical outputs. Floats are serialized in shortest
round-trip form throughout.

Exit codes: 0 success, 2 usage (argparse), 3 validation, 4 training,
5 inference, 6 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, demo
from .evaluation import (DegenerateSampleError, confidence_bins, error_density,
                         loo_evaluate, scott_bandwidth, threshold_curve)
from .inference import InferenceRequest, infer, point_predict
from .io import (DEFAULT_MISSING_TOKEN, FormatError, atomic_write_text,
                 load_dataset, load_model, load_schemas, params_to_dict,
                 read_data_csv, read_evidence_csv, save_model, save_schemas,
                 sha256_file, write_csv_table, write_data_csv,
                 write_labels_csv)
from .model import MISSINGNESS_MODES, ZeroLikelihoodError, sample_cohort
from .schema import (OUTCOME, SchemaError, SchemaViolationError,
                     drop_zero_variability, missingness_profile,
                     validate_dataset)
from .training import (ComponentCollapseError, EmConfig, TrainingError, fit,
                       select_order)

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


def _violation_payload(violations) -> list:
    return [{"row": v.row, "column": v.column, "message": v.message}
            for v in violations]


def _write_manifest(out_dir, command: str, arguments: dict, inputs: dict,
                    outputs: list):
    payload = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "tool": "hetmix",
        "tool_version": __version__,
        "command": command,
        "arguments": arguments,
        "inputs": {name: {"path": str(path), "sha256": sha256_file(path)}
                   for name, path in inputs.items()},
        "outputs": sorted(outputs),
    }
    atomic_write_text(out_dir / MANIFEST_NAME,
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _em_config(arguments: dict) -> EmConfig:
    return EmConfig(max_iterations=arguments["max_iterations"],
                    rel_tol=arguments["rel_tol"],
                    restarts=arguments["restarts"],
                    seed=arguments["seed"])


def _load_training_data(arguments: dict):
    dataset, dropped = load_dataset(arguments["data"], arguments["schema"],
                                    missing_token=arguments["missing_token"],
                                    drop_constant=arguments["drop_constant"])
    for name in dropped:
        print(f"dropped zero-variability column: {name}")
    return dataset


def parse_orders(text: str) -> list:
    """Order spec: '3', '1,2,5', or '1-6' (inclusive range)."""
    orders = []
    for part in str(text).split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            orders.extend(range(int(lo), int(hi) + 1))
        elif part:
            orders.append(int(part))
    if not orders:
        raise ValueError(f"no orders in {text!r}")
    return sorted(set(orders))


# ------------------------------------------------------------------ commands

def run_validate(arguments: dict, out_dir) -> list:
    schemas = load_schemas(arguments["schema"])
    dataset = read_data_csv(arguments["data"], schemas, arguments["missing_token"])
    dropped = []
    if arguments["drop_constant"]:
        dataset, dropped = drop_zero_variability(dataset)
    violations = validate_dataset(dataset)
    profile = missingness_profile(dataset)
    report = {
        "subjects": dataset.n_subjects,
        "variables": dataset.n_variables,
        "dropped_columns": dropped,
        "violations": _violation_payload(violations),
        "subjects_with_at_least_m_missing": [int(c) for c in profile.subjects_with_at_least],
    }
    atomic_write_text(out_dir / "validation_report.json",
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
    for v in violations:
        print(str(v))
    print(f"{dataset.n_subjects} subjects, {dataset.n_variables} variables, "
          f"{len(violations)} violation(s)")
    if violations:
        raise _PartialFailure(["validation_report.json"], "validation",
                              EXIT_VALIDATION, f"{len(violations)} violation(s)",
                              violations=_violation_payload(violations))
    return ["validation_report.json"]


def run_fit(arguments: dict, out_dir) -> list:
    dataset = _load_training_data(arguments)
    model, trace = fit(dataset, arguments["order"], _em_config(arguments))
    save_model(model, out_dir / "model.json")
    write_csv_table(out_dir / "trace.csv", ["iteration", "nll"],
                    list(enumerate(trace.nll_per_iteration)))
    print(f"order {arguments['order']}: nll={trace.final_nll!r} "
          f"restart={trace.restart_index} converged={trace.converged} "
          f"iterations={trace.iterations}")
    return ["model.json", "trace.csv"]


def run_select(arguments: dict, out_dir) -> list:
    dataset = _load_training_data(arguments)
    selection = select_order(dataset, parse_orders(arguments["orders"]),
                             _em_config(arguments))
    rows = [[s.order,
             "" if s.n_params is None else s.n_params,
             "" if s.nll is None else s.nll,
             "" if s.bic is None else s.bic,
             "" if s.converged is None else s.converged,
             s.error or ""] for s in selection.scores]
    write_csv_table(out_dir / "bic_table.csv",
                    ["order", "n_params", "nll", "bic", "converged", "error"], rows)
    save_model(selection.best_model, out_dir / "model.json")
    write_csv_table(out_dir / "trace.csv", ["iteration", "nll"],
                    list(enumerate(selection.best_trace.nll_per_iteration)))
    print(f"selected order {selection.best_order}")
    return ["bic_table.csv", "model.json", "trace.csv"]


def _prediction_payload(prediction, schema) -> dict:
    if schema.kind.is_finite:
        return {"kind": schema.kind.value,
                "domain": list(schema.domain),
                "probabilities": [float(p) for p in prediction.probabilities],
                "point": point_predict(prediction)}
    return {"kind": schema.kind.value,
            "weights": [float(w) for w in prediction.weights],
            "components": [params_to_dict(c) for c in prediction.components],
            "point": point_predict(prediction)}


def run_infer(arguments: dict, out_dir) -> list:
    model = load_model(arguments["model"])
    targets = (arguments["targets"].split(",") if arguments["targets"]
               else [s.name for s in model.schemas if s.role == OUTCOME])
    if not targets:
        raise SchemaError("no targets: pass --targets or give outcome roles")
    for name in targets:
        model.column_index(name)  # unknown targets are a usage error, not per-record
    records = read_evidence_csv(arguments["evidence"], model, targets,
                                arguments["missing_token"])
    lines = []
    failures = 0
    for i, evidence in enumerate(records):
        try:
            request = InferenceRequest(evidence, tuple(targets), arguments["mode"])
            predicted = infer(model, request)
            payload = {"record": i,
                       "posterior": [float(p) for p in predicted.posterior],
                       "targets": {name: _prediction_payload(predicted[name],
                                                             model.schema(name))
                                   for name in targets}}
        except (SchemaViolationError, SchemaError, ZeroLikelihoodError, ValueError) as err:
            failures += 1
            payload = {"record": i, "error": str(err)}
        lines.append(json.dumps(payload, sort_keys=True))
    atomic_write_text(out_dir / "predictions.jsonl", "\n".join(lines) + "\n")
    print(f"{len(records) - failures} of {len(records)} records inferred")
    if failures:
        raise _PartialFailure(["predictions.jsonl"], "inference", EXIT_INFERENCE,
                              f"{failures} record(s) failed inference")
    return ["predictions.jsonl"]


def run_evaluate(arguments: dict, out_dir) -> list:
    dataset = _load_training_data(arguments)
    targets = (arguments["targets"].split(",") if arguments["targets"]
               else [dataset.schemas[j].name for j in dataset.outcome_columns])
    if not targets:
        raise SchemaError("no targets: pass --targets or give outcome roles")
    result = loo_evaluate(dataset, parse_orders(arguments["orders"]), tuple(targets),
                          arguments["mode"], _em_config(arguments),
                          n_workers=arguments["workers"])

    rows = [[s.order, s.target, s.n_subjects, s.mean_normalized, s.spread,
             f"{s.mean_normalized:.1f} ({s.spread:.1f})"]
            for s in result.summaries]
    write_csv_table(out_dir / "performance.csv",
                    ["order", "target", "n", "mean_normalized", "two_std", "summary"],
                    rows)

    eae_rows = [[order, r.subject, r.target, r.error, r.normalized]
                for order in result.orders for r in result.eae_records[order]]
    write_csv_table(out_dir / "eae_records.csv",
                    ["order", "subject", "target", "error", "normalized"], eae_rows)

    conf_rows = [[order, r.subject, r.log_score, r.percentile]
                 for order in sorted(result.confidence_records)
                 for r in result.confidence_records[order]]
    write_csv_table(out_dir / "confidence_records.csv",
                    ["order", "subject", "log_score", "percentile"], conf_rows)

    bin_rows, curve_rows, density_rows = [], [], []
    taus = np.linspace(0.0, 1.0, arguments["threshold_steps"] + 1)
    for order in sorted(result.confidence_records):
        pct_by_subject = {r.subject: r.percentile
                          for r in result.confidence_records[order]}
        for name in targets:
            pairs = [(pct_by_subject[r.subject], r.normalized)
                     for r in result.eae_records[order]
                     if r.target == name and r.subject in pct_by_subject]
            if not pairs:
                continue
            pct = np.asarray([p for p, _ in pairs])
            err = np.asarray([e for _, e in pairs])
            bins = confidence_bins(pct, err, arguments["bin_cutoff"])
            bin_rows.append([order, name, bins.cutoff, bins.low_count, bins.low_mean,
                             bins.high_count, bins.high_mean])
            curve = threshold_curve(pct, err, taus)
            for tau, mean, kept, gain in zip(curve.thresholds, curve.mean_error,
                                             curve.kept, curve.improvement):
                curve_rows.append([order, name, float(tau), int(kept),
                                   float(mean), float(gain)])
            try:
                h = scott_bandwidth(err)
                grid = np.linspace(err.min() - 4 * h, err.max() + 4 * h,
                                   arguments["density_points"])
                dens = error_density(err, grid)
                density_rows.extend([order, name, float(g), float(d)]
                                    for g, d in zip(grid, dens))
            except DegenerateSampleError:
                print(f"density skipped for order {order}, target {name}: "
                      "errors are all identical")
    write_csv_table(out_dir / "confidence_bins.csv",
                    ["order", "target", "cutoff", "low_n", "low_mean_normalized",
                     "high_n", "high_mean_normalized"], bin_rows)
    write_csv_table(out_dir / "threshold_curve.csv",
                    ["order", "target", "threshold", "kept", "mean_normalized",
                     "improvement"], curve_rows)
    write_csv_table(out_dir / "error_density.csv",
                    ["order", "target", "grid", "density"], density_rows)

    for s in result.summaries:
        print(f"order {s.order} target {s.target}: "
              f"{s.mean_normalized:.1f} ({s.spread:.1f}) over {s.n_subjects}")
    if result.failures:
        print(f"{len(result.failures)} fold(s) failed and were excluded")
    return ["performance.csv", "eae_records.csv", "confidence_records.csv",
            "confidence_bins.csv", "threshold_curve.csv", "error_density.csv"]


def run_simulate(arguments: dict, out_dir) -> list:
    if arguments["n"] < 1:
        raise SchemaError("need --n >= 1 subjects")
    model = load_model(arguments["model"])
    rng = np.random.default_rng(arguments["seed"])
    dataset, labels = sample_cohort(model, arguments["n"], rng)
    write_data_csv(dataset, out_dir / "cohort.csv", arguments["missing_token"])
    write_labels_csv(labels, out_dir / "labels.csv")
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

_INPUT_KEYS = ("data", "schema", "model", "evidence")


def _execute(command: str, arguments: dict, out_dir) -> int:
    """Run a command, then write the manifest that can reproduce it."""
    inputs = {k: arguments[k] for k in _INPUT_KEYS if arguments.get(k)}
    try:
        outputs = _RUNNERS[command](arguments, out_dir)
    except _PartialFailure as err:
        _write_manifest(out_dir, command, arguments, inputs, err.outputs)
        return _fail(err.category, err.code, str(err), **err.extra)
    _write_manifest(out_dir, command, arguments, inputs, outputs)
    return EXIT_OK


def run_rerun(args) -> int:
    with open(args.manifest) as handle:
        payload = json.load(handle)
    if payload.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise FormatError(f"unsupported manifest format_version "
                          f"{payload.get('format_version')!r}")
    command = payload.get("command")
    if command not in _RUNNERS:
        raise FormatError(f"manifest names unknown command {command!r}")
    for name, entry in payload.get("inputs", {}).items():
        digest = sha256_file(entry["path"])
        if digest != entry["sha256"]:
            raise FormatError(f"input {name!r} ({entry['path']}) changed since "
                              "the manifest was written")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _execute(command, payload["arguments"], out_dir)


# ------------------------------------------------------------------ parser

def _add_common(parser, *, em: bool = False, data: bool = False, mode: bool = False):
    parser.add_argument("--out-dir", required=True, help="output directory")
    if data:
        parser.add_argument("--data", required=True, help="cohort CSV")
        parser.add_argument("--schema", required=True, help="schema JSON")
        parser.add_argument("--missing-token", default=DEFAULT_MISSING_TOKEN,
                            help="cell text meaning MISSING (default: empty)")
        parser.add_argument("--drop-zero-variability", dest="drop_constant",
                            action="store_true",
                            help="drop always-missing/constant columns instead of failing")
    if em:
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--restarts", type=int, default=5)
        parser.add_argument("--max-iterations", type=int, default=500)
        parser.add_argument("--rel-tol", type=float, default=1e-6)
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
    _add_common(p)
    p.add_argument("--model", required=True, help="model JSON from fit/select")
    p.add_argument("--evidence", required=True, help="evidence CSV (subset of columns)")
    p.add_argument("--targets", default="", help="comma list; default: outcome-role variables")
    p.add_argument("--missing-token", default=DEFAULT_MISSING_TOKEN)
    p.add_argument("--mode", required=True, choices=MISSINGNESS_MODES)

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
    p.add_argument("--out-dir", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            return run_rerun(args)
        arguments = {key: value for key, value in vars(args).items()
                     if key not in ("command", "out_dir")}
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _execute(args.command, arguments, out_dir)
    except SchemaViolationError as err:
        return _fail("validation", EXIT_VALIDATION, str(err),
                     violations=_violation_payload(err.violations))
    except ZeroLikelihoodError as err:
        return _fail("inference", EXIT_INFERENCE, str(err))
    except (TrainingError, ComponentCollapseError) as err:
        return _fail("training", EXIT_TRAINING, str(err))
    except (SchemaError, FormatError, ValueError) as err:
        return _fail("validation", EXIT_VALIDATION, str(err))
    except OSError as err:
        return _fail("io", EXIT_IO, str(err))


if __name__ == "__main__":
    sys.exit(main())
