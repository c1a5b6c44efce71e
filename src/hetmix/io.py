"""File formats: schema JSON, data CSV, model JSON, report tables.

Floats are written with Python's repr (shortest round-trip form), so every
numeric output parses back to the identical bits; reruns of a deterministic
pipeline therefore produce byte-identical files. All writers go through an
atomic temp-file replace. One CSV writer, ``write_csv_table``, writes cohorts and
report tables; ``csv`` writes a float cell by its repr, None as an empty cell,
and an int, a symbol or a bool flag by its str.

Each format has one reader and one writer here. Inputs are UTF-8, a leading BOM
allowed; a file that cannot be read is a FormatError that names it (exit 3). A
data or evidence CSV is streamed into the encoded column store a chunk of records
at a time (``_read_columns``): the chunk's shape checks every record's width, and
its columns are encoded at once into float64 values, NaN where missing or bad,
parsed by kind with numpy's casts, which call Python's own ``int`` / ``float`` (as
``_parse_cell`` reads one), and checked by the rule that builds every ``Dataset``;
a chunk's column with a bad cell goes cell by cell.

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
import os
import tempfile
import types

import numpy as np

from .distributions import Params, family_for
from .model import MixtureModel
from .schema import (Dataset, SchemaError, SchemaViolationError, VariableKind, VariableSchema,
                     _admitted, _encode_piece, drop_zero_variability, validate_dataset)

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
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
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
    _write_json(path, {"format_version": SCHEMA_FORMAT_VERSION,
                       "variables": [schema_to_dict(s) for s in schemas]})


def _read_json(path):
    """A JSON file's value; FormatError naming it unless it is UTF-8 (BOM or not) JSON."""
    with open(path, encoding="utf-8-sig") as handle:
        try:  # a ValueError: bad syntax, a byte that is not UTF-8, an int of too many digits
            return json.load(handle)
        except (ValueError, RecursionError) as err:
            raise FormatError(f"{path}: not valid JSON ({err})") from None


def _versioned(payload, version: int, file) -> dict:
    """``payload`` if an object of format_version ``version``, else FormatError naming ``file``."""
    if not isinstance(payload, dict):
        raise FormatError(f"{file}: expected a JSON object")
    if (found := payload.get("format_version")) != version:
        raise FormatError(f"{file}: unsupported format_version {found!r}")
    return payload


def _write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_schemas(path) -> tuple:
    payload = _versioned(_read_json(path), SCHEMA_FORMAT_VERSION, path)
    if not isinstance(payload.get("variables"), list):
        raise FormatError(f"{path}: expected a 'variables' list")
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


def _read_texts(schema: VariableSchema, texts, missing, first: int = 0) -> tuple:
    """A column's (values, violations) (``_encode_piece``), rows numbered from ``first``: its
    ``texts`` not ``missing``, encoded at once by ``_admitted`` or else as ``_parse_cell`` reads."""
    observed = texts[~missing]
    cells = (_parse_cell(text, schema) for text in observed)  # read only if one is bad
    return _encode_piece(schema, missing, _admitted(schema, observed), cells, first)


def _check_missing_token(schemas, missing_token: str):
    """Refuse a missing token that would also read as a categorical symbol or an
    ordinal level, since those cells would silently become MISSING."""
    for s in schemas:
        if s.kind.is_finite and not _read_texts(s, np.array([missing_token], dtype=object),
                                                np.zeros(1, dtype=bool))[1]:
            raise FormatError(f"{s.name}: missing token {missing_token!r} is also "
                              "a domain value")


_CHUNK_RECORDS = 256  # records encoded at a time; bounds the cell objects held


def _read_columns(path, schemas, columns_of, missing_token: str) -> tuple[Dataset, list]:
    """A CSV file as a Dataset over every schema, the variables it leaves out MISSING, and
    its columns: the schema indices ``columns_of`` gives for its header (or FormatError).

    Records stream in a chunk at a time. Each chunk's texts become one object array, whose
    shape checks every record's width and whose comparison with the missing token marks
    every column's MISSING cells; ``_read_texts`` reads each column into its piece of values
    and violations. So no cell's Python object outlives its chunk and no row tuple is built.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            if (header := next(reader, None)) is None:
                raise FormatError(f"{path}: empty file")
            columns = columns_of(header)
            placed = [schemas[j] for j in columns]
            _check_missing_token(placed, missing_token)
            pieces, n_rows = [], 0
            while chunk := list(itertools.islice(reader, _CHUNK_RECORDS)):
                if (texts := np.array(chunk, dtype=object)).shape != (len(chunk), len(header)):
                    i, k = next((i, len(r)) for i, r in enumerate(chunk) if len(r) != len(header))
                    raise FormatError(f"{path}: row {n_rows + i} has {k} fields, "
                                      f"expected {len(header)}")
                pieces.append([_read_texts(schema, column, mask, n_rows) for schema, column, mask
                               in zip(placed, texts.T, texts.T == missing_token)])
                n_rows += len(chunk)
        except csv.Error as err:
            raise FormatError(f"{path}: line {reader.line_num}: {err}") from None
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: {err}") from None
    if not n_rows:
        raise FormatError(f"{path}: no data rows")
    return Dataset._from_columns(schemas, n_rows, dict(zip(columns, zip(*pieces)))), columns


def read_data_csv(path, schemas, missing_token: str = DEFAULT_MISSING_TOKEN) -> Dataset:
    """Parse a header-led CSV against the schemas; no validation beyond shape.

    Columns may appear in any order but the header must name every schema
    exactly once. Cells equal to the missing token become MISSING; otherwise
    they are parsed by kind. Unparseable text is not kept as a value: it
    becomes a cell violation naming the text, which validate_dataset reports.
    """
    schemas = tuple(schemas)
    names = [s.name for s in schemas]

    def columns_of(header):
        if sorted(header) != sorted(names):
            raise FormatError(f"{path}: header {header} does not match schema names {names}")
        return [names.index(name) for name in header]
    return _read_columns(path, schemas, columns_of, missing_token)[0]


def read_evidence_csv(path, model: MixtureModel,
                      missing_token: str = DEFAULT_MISSING_TOKEN) -> tuple[Dataset, list]:
    """An evidence CSV over some of the model's variables, read like a data
    file into a Dataset over all of them, plus the file's columns (schema
    indices in header order): the evidence. The other variables are MISSING."""
    def columns_of(header):
        if not header:
            raise FormatError(f"{path}: the header names no column")
        if len(set(header)) != len(header):
            raise FormatError(f"{path}: duplicate evidence columns")
        try:
            return [model.column_index(name) for name in header]
        except SchemaError as err:
            raise FormatError(f"{path}: {err}") from None
    return _read_columns(path, model.schemas, columns_of, missing_token)


def write_csv_table(path, header, rows):
    """Write a CSV file, a cohort or a report table, atomically, a line at a time as the rows
    come (``writerow`` returns what its file's ``write`` returns: the line). ``csv`` formats
    each cell: a float by its repr, None as an empty cell, an int, a str or a bool by its str."""
    writer = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n")
    atomic_write_text(path, map(writer.writerow, itertools.chain([header], rows)))


def write_data_csv(dataset: Dataset, path, missing_token: str = DEFAULT_MISSING_TOKEN):
    """Write ``dataset`` as a CSV that ``read_data_csv`` reads back as written, or no file:
    FormatError for a missing token that is a symbol or a level (``_check_missing_token``)
    or an observed cell's text (``_column_texts``); SchemaViolationError for bad cells."""
    _check_missing_token(dataset.schemas, missing_token)
    rows = (row for start in range(0, dataset.n_subjects, _CHUNK_RECORDS)
            for row in zip(*_column_texts(dataset, start, missing_token)))
    write_csv_table(path, dataset.names, rows)


def _column_texts(dataset: Dataset, start: int, missing_token: str) -> list:
    """Each column's cell texts for _CHUNK_RECORDS rows from ``start``, formatted a column at
    a time from ``Dataset._encoded``, which refuses a column with bad cells: a finite column's
    level or symbol texts (their str) are made once and picked by code, a value's is its repr.
    FormatError where a continuous chunk holds more token texts than missing cells."""
    texts = []
    for j, schema in enumerate(dataset.schemas):
        values = dataset._encoded(j)[start:start + _CHUNK_RECORDS]  # NaN: missing
        if schema.kind.is_finite:
            labels = np.array([*map(str, schema.domain), missing_token], dtype=object)
            texts.append(labels[np.where(np.isnan(values), -1, values).astype(np.int64)].tolist())
        else:
            texts.append([missing_token if x != x else repr(x) for x in values.tolist()])
            if texts[-1].count(missing_token) > np.isnan(values).sum():
                raise FormatError(f"{schema.name}: missing token {missing_token!r} is also the "
                                  "text of an observed cell, which would read back as MISSING")
    return texts


def _read_cohort(data_path, schema_path, missing_token: str, drop_constant: bool) -> tuple:
    """Read schemas + CSV, unchecked, then drop the zero-variability columns if asked:
    (dataset, dropped column names). A cohort whose every column carries no information
    is kept as it was read, so that its check names each column's own violation."""
    dataset = read_data_csv(data_path, load_schemas(schema_path), missing_token)
    try:
        return drop_zero_variability(dataset) if drop_constant else (dataset, [])
    except SchemaViolationError:  # no column would be left: keep every one
        return dataset, []


def load_dataset(data_path, schema_path, *, missing_token: str = DEFAULT_MISSING_TOKEN,
                 drop_constant: bool = False) -> tuple[Dataset, list]:
    """Read schemas + CSV and drop zero-variability columns if asked (``_read_cohort``),
    then validate. Returns (dataset, dropped column names). Raises SchemaViolationError
    with every violation of that data: of each column as read, if none would be left."""
    dataset, dropped = _read_cohort(data_path, schema_path, missing_token, drop_constant)
    if violations := validate_dataset(dataset):
        raise SchemaViolationError(violations)
    return dataset, dropped


# ---------------------------------------------------------------- models

_FAMILIES = {family_for(kind).family: family_for(kind) for kind in VariableKind}


def params_to_dict(params: Params) -> dict:
    """A cell's model-file entry: its ``family`` and its dataclass fields as they are
    (Python floats, a tuple of floats, a domain of ints or strs), which ``json`` writes."""
    return {"family": params.family, **dataclasses.asdict(params)}


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
    _versioned(payload, MODEL_FORMAT_VERSION, "model file")
    try:
        schemas = tuple(schema_from_dict(e) for e in payload["variables"])
        params = tuple(tuple(params_from_dict(p) for p in row)
                       for row in payload["components"])
        return MixtureModel(payload["weights"], params, payload["missing_probs"], schemas)
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"bad model file: {err}") from None


def save_model(model: MixtureModel, path):
    _write_json(path, model_to_dict(model))


def load_model(path) -> MixtureModel:
    return model_from_dict(_read_json(path))

