"""Exception types, the one config reader, and the file layers: JSON (the
one encoder, reader and writer of every JSON file), CSV (the one reader and
writer of every CSV file, the cell format and the rule that reads a cell as
a number) and the text writer and write probe under both.  This is the only
module that opens, writes or removes a file, so a file that cannot be
opened is a ConfigurationError that names the path.  The config reader is
JsonRecord: a record's dataclass fields declare its block's keys and their
types, and one type check serves from_json and validate() alike."""

import csv
import dataclasses
import functools
import json
import math
import numbers
import sys
import typing
from pathlib import Path

import numpy as np


class MixRegimeError(Exception):
    """Base class for all package-specific errors."""

    def to_json(self) -> dict:
        return {"type": type(self).__name__, "message": str(self)}


class ValidationError(MixRegimeError, ValueError):
    """A parameter object violates one or more of its invariants.

    The message lists every violated invariant, one per line.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigurationError(MixRegimeError, ValueError):
    """A request is inconsistent with the supplied configuration."""


class ParseError(MixRegimeError, ValueError):
    """A data or config file could not be parsed; carries the offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EstimationError(MixRegimeError, RuntimeError):
    """Estimation failed; the message says why."""


class QuadratureError(MixRegimeError, RuntimeError):
    """A numerical integral or special function has no trustworthy double value."""


def key_faults(obj, what: str, required=(), optional=()) -> list:
    """Messages for a config block that is not a JSON object, lacks a key in
    `required` or has one outside `required` and `optional`.

    A misspelled key would otherwise leave its setting at the default
    without a word, and a missing one would surface as a KeyError or
    TypeError far from the file that lacks it.
    """
    if not isinstance(obj, dict):
        return [f"{what} must be a JSON object, got {type(obj).__name__}"]
    out = []
    missing = [key for key in required if key not in obj]
    if missing:
        out.append(f"missing {what} key(s): {', '.join(missing)}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        out.append(f"unknown {what} key(s): {', '.join(unknown)}")
    return out


class JsonRecord:
    """Base of the package's dataclass records: to_json has one key per
    field, each value encoded by json_value.

    A config record's fields drive from_json and validate: a key's type is
    its field's type hint, and a field without a default is a required key.
    `json_label` names the block in messages, where a field in
    `json_qualified` is called "<label> <field>".  violations() holds the
    record's own domain rules."""

    json_label = ""
    json_qualified = ()

    def to_json(self) -> dict:
        return {f.name: json_value(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    @classmethod
    def from_json(cls, obj):
        """The validated record a JSON block describes; a real number is
        stored as a float, and any fault is a ValidationError."""
        record = _read(cls, obj)
        record.validate()
        return record

    def violations(self) -> list:
        """Messages for the record's broken domain rules; they may assume
        that every field has its declared type."""
        return []

    def validate(self) -> None:
        """Raise a ValidationError listing the type faults of the record and
        the records in it or, failing those, its domain faults.  Values are
        checked, not coerced: int(1600.7) would run another experiment."""
        faults = type_faults(self, type(self)) or self.violations()
        if faults:
            raise ValidationError(faults)


_KINDS = {int: (numbers.Integral, "an int"),
          float: (numbers.Real, "a real number"), str: (str, "a string"),
          dict: (dict, "a JSON object"), type(None): (type(None), "null")}


def type_faults(value, hint, name: str = "") -> list:
    """Messages for the ways `value`, called `name`, fails the type `hint`:
    int, float (any finite real number), str, dict, a union of these
    (Optional among them), np.ndarray (a real matrix), a record class
    (checked field by field) or a list of records.  A bool is neither an
    int nor a real number, and nan and inf are no real numbers."""
    if isinstance(hint, type) and issubclass(hint, JsonRecord):
        if not isinstance(value, hint):
            return [f"{name} must be of type {hint.__name__}, got {value!r}"]
        return [fault for field, field_hint, _ in _record_fields(hint)
                for fault in type_faults(
                    getattr(value, field), field_hint,
                    f"{hint.json_label} {field}"
                    if field in hint.json_qualified else field)]
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        if not isinstance(value, list):
            return [f"{name} must be a list of {item.json_label} blocks, "
                    f"got {value!r}"]
        return [fault for i, entry in enumerate(value)
                for fault in type_faults(entry, item, f"{name}[{i}]")]
    if hint is np.ndarray:
        return _matrix_faults(value, name)
    kinds = typing.get_args(hint) or (hint,)  # a union's members
    if any(_is_kind(value, kind) for kind in kinds):
        return []
    # a misplaced object or list is named by its type, as key_faults does
    got = type(value).__name__ if dict in kinds else repr(value)
    return [f"{name} must be {' or '.join(_KINDS[k][1] for k in kinds)}, "
            f"got {got}"]


def count_faults(value, name: str, low: int) -> list:
    """Messages for the ways `value`, called `name`, is not an int >= `low`:
    the type rule for an int (a bool or a float fails it), then the bound."""
    return type_faults(value, int, name) or (
        [f"{name} must be >= {low}, got {value}"] if value < low else [])


def real_matrix(value):
    """`value` as a float array when it is a real matrix (a 2-D array, or a
    list of equal-length lists of real numbers), else as it is, for
    type_faults to name."""
    return value if _matrix_faults(value, "") else np.asarray(value, dtype=float)


def _matrix_faults(value, name: str) -> list:
    rows = value.tolist() if isinstance(value, np.ndarray) else value
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        return [f"{name} must be a list of rows, got {value!r}"]
    if len({len(row) for row in rows}) > 1:
        return [f"{name} rows must have equal length, got lengths "
                f"{[len(row) for row in rows]}"]
    return [f"{name} row {i}, column {j} must be a real number, got {cell!r}"
            for i, row in enumerate(rows) for j, cell in enumerate(row)
            if not _is_kind(cell, float)]


def _is_kind(value, kind) -> bool:
    """Whether `value` is of `kind`.  A bool is no number, and a real
    number is finite: nan, inf and an int that a double cannot hold (its
    conversion overflows) are none."""
    if not isinstance(value, _KINDS[kind][0]) or isinstance(value, bool):
        return False
    if kind is float:
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return True


@functools.cache
def _record_fields(cls) -> tuple:
    """(name, resolved type hint, required) per field of the record class
    `cls`, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


def _read(cls, obj):
    """The record of class `cls` that the JSON block `obj` describes, its
    keys checked and its values decoded, but not yet validated."""
    fields = _record_fields(cls)
    faults = key_faults(obj, cls.json_label,
                        [name for name, _, required in fields if required],
                        [name for name, _, required in fields if not required])
    if faults:
        raise ValidationError(faults)
    return cls(**{name: _decode(obj[name], hint)
                  for name, hint, _ in fields if name in obj})


def _decode(value, hint):
    """A JSON value as the field of type `hint` stores it: a block as its
    record, a list of blocks as a list of records, a real number as a
    float.  A value of the wrong type is left as it is, for type_faults."""
    if isinstance(hint, type) and issubclass(hint, JsonRecord):
        return _read(hint, value)
    if typing.get_origin(hint) is list and isinstance(value, list):
        return [_decode(entry, typing.get_args(hint)[0]) for entry in value]
    if float in (typing.get_args(hint) or (hint,)) and _is_kind(value, float):
        return float(value)
    return value


def json_value(obj):
    """`obj` as plain JSON data: a record through its to_json, a dict value
    by value, an array, list or tuple as a list, and a non-finite float as
    None, since strict JSON (RFC 8259) has no token for it."""
    if isinstance(obj, JsonRecord):
        return obj.to_json()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_value(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _open(path, mode: str = "r", **kwargs):
    """open(path, mode); an OSError (a missing file or directory, a denied
    permission) is a ConfigurationError that names the path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot {'read' if mode == 'r' else 'write'} {path}: "
            f"{exc.strerror or exc}") from None


def check_writable(directory, make: bool = False) -> None:
    """Raise a ConfigurationError unless a file can be written in
    `directory`, which is first made with its parents when `make` is true.
    A probe file is written there and removed, so that a run finds out
    before its work, not after it, that it cannot save the result."""
    target = Path(directory)
    probe = target / ".write_probe"
    try:
        if make:
            target.mkdir(parents=True, exist_ok=True)
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigurationError(f"output directory {target} not writable: "
                                 f"{exc}") from exc


def check_output(path) -> None:
    """Raise a ConfigurationError unless a file can be written at `path`:
    no directory is there, and its directory passes check_writable."""
    path = Path(path)
    if path.is_dir():
        raise ConfigurationError(f"cannot write {path}: Is a directory")
    check_writable(path.parent)


def write_text(text: str, path=None) -> None:
    """Write `text` to `path`, or to stdout when `path` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with _open(path, "w") as fh:
            fh.write(text)


def read_json(path):
    """Parse the JSON file at `path`; malformed JSON is a ParseError that
    names the line it fails on, and a file json cannot read for any other
    reason (an int past Python's digit limit, text that is not UTF-8) is a
    ParseError that names the file."""
    with _open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc.msg} "
                             f"(column {exc.colno})", line=exc.lineno) from None
        except ValueError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from None


def write_json(obj, path=None) -> None:
    """Write json_value(obj) as strict JSON, indented and key-sorted with a
    trailing newline, to `path`, or to stdout when `path` is None."""
    write_text(json.dumps(json_value(obj), indent=2, sort_keys=True,
                          allow_nan=False) + "\n", path)


def read_csv(path):
    """Stream the CSV file at `path`: yield its header, then (line, row) for
    each data row, `line` being the 1-based line the row ends on.

    Blank lines are skipped.  An empty file, and a row whose field count
    differs from the header's, are each a ParseError that names the line.
    """
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", line=1)
        yield header
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, found "
                                 f"{len(row)}", line=reader.line_num)
            yield reader.line_num, row


def csv_number(cell: str, column: str, line: int, kind=float):
    """The cell of `column` on `line` as a `kind` number; a cell that does
    not parse is a ParseError that names the column and the line."""
    try:
        return kind(cell)
    except ValueError:
        raise ParseError(f"column {column!r}: not a number: {cell!r}",
                         line=line) from None


def write_csv(path, header, rows) -> None:
    """Write `header` and then each row of the iterable `rows` to `path`."""
    with _open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def csv_cells(value) -> list:
    """`value` as CSV cells: an array one per entry, a bool as 0 or 1, an int
    or a string as it is, any other number in full (.17g, read back exactly)."""
    values = value.tolist() if isinstance(value, np.ndarray) else [value]
    return list(map(_csv_cell, values))


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".17g")
