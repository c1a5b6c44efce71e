"""File formats: schema JSON, data CSV, model JSON, report tables.

Floats are written with Python's repr (shortest round-trip form), so every
numeric output parses back to the identical bits; reruns of a deterministic
pipeline therefore produce byte-identical files. All writers go through an
atomic temp-file replace.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import numbers
import os
import tempfile

import numpy as np

from .distributions import (Categorical, Gaussian, InflatedGamma, Params,
                            QuantizedGaussian)
from .model import MixtureModel
from .schema import (MISSING, Dataset, SchemaError, SchemaViolationError,
                     VariableKind, VariableSchema, Violation,
                     drop_zero_variability, validate_dataset)

SCHEMA_FORMAT_VERSION = 1
MODEL_FORMAT_VERSION = 1
DEFAULT_MISSING_TOKEN = ""


class FormatError(ValueError):
    """A file does not match the expected structure or version."""


def atomic_write_text(path, text: str):
    """Write text via a temp file and rename, so readers never see partial files."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def format_value(value, missing_token: str = DEFAULT_MISSING_TOKEN) -> str:
    """Cell to text: repr for floats, str for ints/symbols, token for MISSING."""
    if value is MISSING:
        return missing_token
    if isinstance(value, bool):
        raise ValueError("booleans are not valid cell values")
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


# ---------------------------------------------------------------- schemas

def schema_to_dict(schema: VariableSchema) -> dict:
    out = {"name": schema.name, "kind": schema.kind.value, "role": schema.role}
    if schema.kind.is_finite:
        out["domain"] = list(schema.domain)
    return out


def schema_from_dict(entry: dict) -> VariableSchema:
    try:
        return VariableSchema(entry["name"], VariableKind(entry["kind"]),
                              tuple(entry.get("domain", ())),
                              entry.get("role", "input"))
    except (KeyError, ValueError, TypeError) as err:
        raise FormatError(f"bad schema entry {entry!r}: {err}") from None


def save_schemas(schemas, path):
    payload = {"format_version": SCHEMA_FORMAT_VERSION,
               "variables": [schema_to_dict(s) for s in schemas]}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_schemas(path) -> tuple:
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as err:
            raise FormatError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(payload, dict) or "variables" not in payload:
        raise FormatError(f"{path}: expected an object with a 'variables' list")
    if payload.get("format_version") != SCHEMA_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported schema format_version "
                          f"{payload.get('format_version')!r}")
    return tuple(schema_from_dict(entry) for entry in payload["variables"])


# ---------------------------------------------------------------- data CSV

def _parse_cell(text: str, schema: VariableSchema, missing_token: str):
    """Token to cell value; unparseable text is kept raw for the validator."""
    if text == missing_token:
        return MISSING
    kind = schema.kind
    if kind is VariableKind.CATEGORICAL:
        return text
    try:
        if kind is VariableKind.ORDINAL:
            return int(text)
        return float(text)
    except ValueError:
        return text  # reported by validate_dataset, not here


def _check_missing_token(schemas, missing_token: str):
    """Refuse a missing token that also reads as a categorical symbol or an
    ordinal level, since those cells would silently become MISSING."""
    for s in schemas:
        if s.kind.is_finite and _parse_cell(missing_token, s, None) in s.domain:
            raise FormatError(f"{s.name}: missing token {missing_token!r} is also "
                              "a domain value")


def _csv_rows(path):
    """Yield the header of a CSV file, then its data rows one at a time.

    An empty file or a row whose field count differs from the header's raises
    FormatError. Rows are streamed, never collected, so a large file costs
    only its parsed cells.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        yield header
        for i, record in enumerate(reader):
            if len(record) != len(header):
                raise FormatError(f"{path}: row {i} has {len(record)} fields, "
                                  f"expected {len(header)}")
            yield record


def read_data_csv(path, schemas, missing_token: str = DEFAULT_MISSING_TOKEN) -> Dataset:
    """Parse a header-led CSV against the schemas; no validation beyond shape.

    Columns may appear in any order but the header must name every schema
    exactly once. Cells equal to the missing token become MISSING; otherwise
    they are parsed by kind, keeping unparseable text verbatim so that
    validate_dataset can point at it.
    """
    schemas = tuple(schemas)
    _check_missing_token(schemas, missing_token)
    records = _csv_rows(path)
    header = next(records)
    names = [s.name for s in schemas]
    if sorted(header) != sorted(names):
        raise FormatError(f"{path}: header {header} does not match schema "
                          f"names {names}")
    take = [header.index(name) for name in names]
    rows = [tuple(_parse_cell(record[k], schemas[j], missing_token)
                  for j, k in enumerate(take))
            for record in records]
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return Dataset(schemas, rows)


def read_evidence_csv(path, model: MixtureModel, targets,
                      missing_token: str = DEFAULT_MISSING_TOKEN) -> list:
    """Evidence CSV rows as name -> value dicts over a subset of the model's
    variables; a target may not appear as an evidence column."""
    records = _csv_rows(path)
    header = next(records)
    if len(set(header)) != len(header):
        raise FormatError(f"{path}: duplicate evidence columns")
    schemas = []
    for name in header:
        if name in targets:
            raise FormatError(f"{path}: evidence column {name!r} is a target")
        schemas.append(model.schema(name))
    _check_missing_token(schemas, missing_token)
    evidence = [{s.name: _parse_cell(text, s, missing_token)
                 for s, text in zip(schemas, record)}
                for record in records]
    if not evidence:
        raise FormatError(f"{path}: no evidence rows")
    return evidence


def write_data_csv(dataset: Dataset, path, missing_token: str = DEFAULT_MISSING_TOKEN):
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(dataset.names)
    for i in range(dataset.n_subjects):
        writer.writerow([format_value(c, missing_token) for c in dataset.cells[i]])
    atomic_write_text(path, buffer.getvalue())


def load_dataset(data_path, schema_path, *, missing_token: str = DEFAULT_MISSING_TOKEN,
                 drop_constant: bool = False) -> tuple[Dataset, list]:
    """Read schemas + CSV, validate, optionally drop zero-variability columns.

    Returns (dataset, dropped column names). Raises SchemaViolationError with
    the full violation list if the (possibly reduced) data is invalid.
    """
    schemas = load_schemas(schema_path)
    dataset = read_data_csv(data_path, schemas, missing_token)
    dropped: list = []
    if drop_constant:
        dataset, dropped = drop_zero_variability(dataset)
    violations = validate_dataset(dataset)
    if violations:
        raise SchemaViolationError(violations)
    return dataset, dropped


def write_labels_csv(labels, path):
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["subject", "component"])
    for i, z in enumerate(labels):
        writer.writerow([i, int(z)])
    atomic_write_text(path, buffer.getvalue())


# ---------------------------------------------------------------- models

_PARAM_FIELDS = {
    "gaussian": (Gaussian, ("mean", "variance")),
    "inflated_gamma": (InflatedGamma, ("zero_prob", "shape", "scale")),
    "quantized_gaussian": (QuantizedGaussian, ("mean", "variance", "domain")),
    "categorical": (Categorical, ("probs", "domain")),
}


def params_to_dict(params: Params) -> dict:
    _, fields = _PARAM_FIELDS[params.family]
    out = {"family": params.family}
    for name in fields:
        value = getattr(params, name)
        if isinstance(value, tuple):
            out[name] = [v if isinstance(v, (int, str)) else float(v) for v in value]
        else:
            out[name] = float(value)
    return out


def params_from_dict(entry: dict) -> Params:
    try:
        cls, fields = _PARAM_FIELDS[entry["family"]]
        kwargs = {}
        for name in fields:
            value = entry[name]
            kwargs[name] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"bad distribution entry {entry!r}: {err}") from None


def model_to_dict(model: MixtureModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "variables": [schema_to_dict(s) for s in model.schemas],
        "weights": [float(w) for w in model.weights],
        "missing_probs": [[float(q) for q in row] for row in model.missing_probs],
        "components": [[params_to_dict(p) for p in row] for row in model.params],
    }


def model_from_dict(payload: dict) -> MixtureModel:
    if not isinstance(payload, dict):
        raise FormatError("model file must hold a JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise FormatError(f"unsupported model format_version "
                          f"{payload.get('format_version')!r}")
    try:
        schemas = tuple(schema_from_dict(e) for e in payload["variables"])
        params = tuple(tuple(params_from_dict(p) for p in row)
                       for row in payload["components"])
        return MixtureModel(np.asarray(payload["weights"], dtype=float), params,
                            np.asarray(payload["missing_probs"], dtype=float), schemas)
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"bad model file: {err}") from None


def save_model(model: MixtureModel, path):
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=2,
                                       sort_keys=True) + "\n")


def load_model(path) -> MixtureModel:
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as err:
            raise FormatError(f"{path}: not valid JSON ({err})") from None
    return model_from_dict(payload)


# ---------------------------------------------------------------- tables

def write_csv_table(path, header, rows):
    """Write a report table; floats go through repr for exact round-trips."""
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(c)
                         if isinstance(c, numbers.Number) and not isinstance(c, bool)
                         else str(c) for c in row])
    atomic_write_text(path, buffer.getvalue())
