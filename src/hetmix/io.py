"""File formats: schema JSON, data CSV, model JSON, report tables.

Floats are written with Python's repr (shortest round-trip form), so every
numeric output parses back to the identical bits; reruns of a deterministic
pipeline therefore produce byte-identical files. All writers go through an
atomic temp-file replace.

A data or evidence CSV is streamed: records are read a chunk at a time, and
each chunk's observed fields (not the missing token) are parsed a column at a
time by Python's own ``int`` / ``float`` (as ``_parse_cell`` reads one) and
appended to per-column lists. The columns then go to the same encoder that
builds every ``Dataset`` (numpy for a column of admissible plain values,
``validate_value`` cell by cell for any other), so no row tuple is ever built.

A model file's parameter block holds a ``family`` name and the fields of that
family's dataclass. Reading it passes the JSON values unchanged to the
dataclasses and ``MixtureModel``, whose one parameter rule (every element a
number, not a bool or text, and in range) turns any other value, ``NaN`` and
``Infinity`` (which ``json`` reads) included, into a FormatError.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import numbers
import os
import tempfile
import types

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
    """Cell to text: repr for floats, str for ints/symbols, token for MISSING. The
    exact types come first, ahead of the ``numbers`` checks that numpy scalars need."""
    if (kind := type(value)) is float:
        return repr(value)
    if kind is int or kind is str:
        return str(value)
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
    if not isinstance(payload, dict) or not isinstance(payload.get("variables"), list):
        raise FormatError(f"{path}: expected an object with a 'variables' list")
    if payload.get("format_version") != SCHEMA_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported schema format_version "
                          f"{payload.get('format_version')!r}")
    return tuple(schema_from_dict(entry) for entry in payload["variables"])


# ---------------------------------------------------------------- data CSV

def _parse_cell(text: str, schema: VariableSchema):
    """Observed token to cell value; unparseable text stays text, a Dataset violation."""
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
        if s.kind.is_finite and _parse_cell(missing_token, s) in s.domain:
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


_CHUNK_RECORDS = 256  # records parsed a column at a time; bounds the text held


def _parse_texts(texts, schema: VariableSchema) -> list:
    """Observed cell texts of one column as ``_parse_cell`` reads each one:
    by Python's own ``int`` / ``float``, unparseable text kept as text."""
    if schema.kind is VariableKind.CATEGORICAL:
        return texts
    try:
        return list(map(int if schema.kind is VariableKind.ORDINAL else float, texts))
    except ValueError:
        return [_parse_cell(text, schema) for text in texts]


def _read_columns(path, schemas, records, columns, missing_token: str) -> Dataset:
    """CSV records whose fields are the schema ``columns``, in order, as a
    Dataset over every schema; variables the file leaves out are MISSING.

    Records stream in a chunk at a time; each chunk's fields are parsed a
    column at a time and appended to that column's mask and cells, so no
    row tuple is built and the file's text is never held whole.
    """
    placed = [schemas[j] for j in columns]
    _check_missing_token(placed, missing_token)
    masks = [[] for _ in placed]
    cells = [[] for _ in placed]
    n_rows = 0
    while chunk := list(itertools.islice(records, _CHUNK_RECORDS)):
        n_rows += len(chunk)
        for schema, texts, column_masks, column_cells in zip(placed, zip(*chunk), masks, cells):
            column_masks.append(np.fromiter(map(missing_token.__eq__, texts), dtype=bool,
                                            count=len(texts)))
            column_cells.extend(_parse_texts(list(filter(missing_token.__ne__, texts)), schema))
    if not n_rows:
        raise FormatError(f"{path}: no data rows")
    return Dataset._from_columns(schemas, n_rows, {
        j: (np.concatenate(column_masks), column_cells)
        for j, column_masks, column_cells in zip(columns, masks, cells)})


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
    """Write a CSV file of a header and rows of cells, atomically, a line at a time as the
    rows come: ``writerow`` returns what its file's ``write`` returns, here the line itself."""
    writer = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n")
    atomic_write_text(path, map(writer.writerow, itertools.chain([header], rows)))


def write_data_csv(dataset: Dataset, path, missing_token: str = DEFAULT_MISSING_TOKEN):
    """Write ``dataset`` as a CSV that ``read_data_csv`` reads back as written.
    FormatError, and no file, for a missing token that ``_check_missing_token``
    refuses (a symbol or a level) or that is the text of an observed continuous cell."""
    _check_missing_token(dataset.schemas, missing_token)
    try:  # only a continuous cell of this value can have the token's text
        value = float(missing_token)
    except ValueError:
        value = np.nan  # equal to no cell
    for j, schema in enumerate(dataset.schemas):
        column = dataset.column_numeric(j) if schema.kind.is_continuous else np.empty(0)
        if missing_token in map(format_value, column[column == value].tolist()):
            raise FormatError(f"{schema.name}: missing token {missing_token!r} is also the "
                              "text of an observed cell, which would read back as MISSING")
        dataset._encoded(j)  # refuses a column with bad cells
    rows = (row for start in range(0, dataset.n_subjects, _CHUNK_RECORDS)
            for row in zip(*_column_texts(dataset, start, missing_token)))
    _write_rows(path, dataset.names, rows)


def _column_texts(dataset: Dataset, start: int, missing_token: str) -> list:
    """Each column's cell texts (``format_value``'s) for _CHUNK_RECORDS rows from
    ``start``, formatted a column at a time from the encoded values: a finite
    column's level or symbol texts are formatted once and picked by code."""
    texts = []
    for j, schema in enumerate(dataset.schemas):
        values = dataset._values[start:start + _CHUNK_RECORDS, j]  # NaN: missing
        if schema.kind.is_finite:
            labels = np.array([*map(format_value, schema.domain), missing_token], dtype=object)
            texts.append(labels[np.where(np.isnan(values), -1, values).astype(np.int64)].tolist())
        else:
            texts.append([missing_token if x != x else format_value(x) for x in values.tolist()])
    return texts


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
        return cls(**{f.name: entry[f.name] for f in dataclasses.fields(cls)})
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
        return MixtureModel(payload["weights"], params, payload["missing_probs"], schemas)
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"bad model file: {err}") from None


def save_model(model: MixtureModel, path):
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=2,
                                       sort_keys=True) + "\n")


def load_model(path) -> MixtureModel:
    return model_from_dict(_read_json(path))


# ---------------------------------------------------------------- tables

def write_csv_table(path, header, rows):
    """Write a report table; floats go through repr for exact round-trips. Each cell is
    ``format_value``'s text, but a bool (a flag) is written as str writes it."""
    _write_rows(path, header, ([str(c) if type(c) is bool else format_value(c) for c in row]
                               for row in rows))
