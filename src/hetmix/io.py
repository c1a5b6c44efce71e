"""File formats: schema JSON, data CSV, model JSON, report tables.

Floats are written with Python's repr (shortest round-trip form), so every
numeric output parses back to the identical bits; reruns of a deterministic
pipeline therefore produce byte-identical files. All writers go through an
atomic temp-file replace.

A model file's parameter block holds a ``family`` name and the fields of that
family's dataclass. Reading it builds the dataclass, whose checks turn
out-of-range or non-finite values (``NaN`` / ``Infinity``, which ``json``
reads) into a FormatError.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io as _io
import json
import numbers
import os
import tempfile

import numpy as np

from .distributions import Params, family_for
from .model import MixtureModel
from .schema import (MISSING, Dataset, SchemaViolationError, VariableKind,
                     VariableSchema, drop_zero_variability, validate_dataset)

SCHEMA_FORMAT_VERSION = 1
MODEL_FORMAT_VERSION = 1
DEFAULT_MISSING_TOKEN = ""


class FormatError(ValueError):
    """A file does not match the expected structure or version."""


def atomic_write_text(path, text):
    """Write a str, or str chunks as they come, atomically: temp file, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
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


def _read_json(path):
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise FormatError(f"{path}: not valid JSON ({err})") from None


def load_schemas(path) -> tuple:
    payload = _read_json(path)
    if not isinstance(payload, dict) or "variables" not in payload:
        raise FormatError(f"{path}: expected an object with a 'variables' list")
    if payload.get("format_version") != SCHEMA_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported schema format_version "
                          f"{payload.get('format_version')!r}")
    return tuple(schema_from_dict(entry) for entry in payload["variables"])


# ---------------------------------------------------------------- data CSV

def _parse_cell(text: str, schema: VariableSchema, missing_token: str):
    """Token to cell value; unparseable text stays text, a Dataset violation."""
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
        return text  # recorded as a violation by Dataset, not raised here


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


def _read_columns(path, schemas, records, columns, missing_token: str) -> Dataset:
    """CSV records whose fields are the schema ``columns``, in order, as a
    Dataset over every schema; variables the file leaves out are MISSING."""
    placed = [schemas[j] for j in columns]
    _check_missing_token(placed, missing_token)
    rows = [tuple(_parse_cell(text, s, missing_token) for s, text in zip(placed, record))
            for record in records]
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return Dataset(schemas, rows, columns)


def read_data_csv(path, schemas, missing_token: str = DEFAULT_MISSING_TOKEN) -> Dataset:
    """Parse a header-led CSV against the schemas; no validation beyond shape.

    Columns may appear in any order but the header must name every schema
    exactly once. Cells equal to the missing token become MISSING; otherwise
    they are parsed by kind. Unparseable text is not kept as a value: it
    becomes a cell violation naming the text, which validate_dataset reports.
    """
    schemas = tuple(schemas)
    records = _csv_rows(path)
    header = next(records)
    names = [s.name for s in schemas]
    if sorted(header) != sorted(names):
        raise FormatError(f"{path}: header {header} does not match schema "
                          f"names {names}")
    return _read_columns(path, schemas, records, [names.index(name) for name in header],
                         missing_token)


def read_evidence_csv(path, model: MixtureModel,
                      missing_token: str = DEFAULT_MISSING_TOKEN) -> tuple[Dataset, list]:
    """An evidence CSV over some of the model's variables, read like a data
    file into a Dataset over all of them, plus the file's columns (schema
    indices in header order): the evidence. The other variables are MISSING."""
    records = _csv_rows(path)
    header = next(records)
    if len(set(header)) != len(header):
        raise FormatError(f"{path}: duplicate evidence columns")
    columns = [model.column_index(name) for name in header]
    return _read_columns(path, model.schemas, records, columns, missing_token), columns


def _write_rows(path, header, rows):
    """Write a CSV file of a header and rows of cells, atomically."""
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def write_data_csv(dataset: Dataset, path, missing_token: str = DEFAULT_MISSING_TOKEN):
    _write_rows(path, dataset.names,
                ([format_value(c, missing_token) for c in dataset.row(i)]
                 for i in range(dataset.n_subjects)))


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
    _write_rows(path, ["subject", "component"], ([i, int(z)] for i, z in enumerate(labels)))


# ---------------------------------------------------------------- models

_FAMILIES = {family_for(kind).family: family_for(kind) for kind in VariableKind}


def params_to_dict(params: Params) -> dict:
    out = {"family": params.family}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if isinstance(value, tuple):
            out[field.name] = [v if isinstance(v, (int, str)) else float(v) for v in value]
        else:
            out[field.name] = float(value)
    return out


def params_from_dict(entry: dict) -> Params:
    try:
        cls = _FAMILIES[entry["family"]]
        values = [entry[field.name] for field in dataclasses.fields(cls)]
        return cls(*(tuple(v) if isinstance(v, list) else v for v in values))
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
    return model_from_dict(_read_json(path))


# ---------------------------------------------------------------- tables

def write_csv_table(path, header, rows):
    """Write a report table; floats go through repr for exact round-trips."""
    _write_rows(path, header, ([format_value(c)
                                if isinstance(c, numbers.Number) and not isinstance(c, bool)
                                else str(c) for c in row] for row in rows))
