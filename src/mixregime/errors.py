"""Exception types, the checks of config keys, the JSON layer (the one
encoder, reader and writer of every JSON file) and the CSV cell format."""

import dataclasses
import json
import math
import numbers
import sys
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
    """Estimation failed; carries per-start diagnostics when available."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or []
        super().__init__(message)


class QuadratureError(MixRegimeError, RuntimeError):
    """A numerical integral or special function has no trustworthy double value."""


def check_keys(obj: dict, what: str, required=(), optional=()) -> None:
    """Reject a config block that lacks a key in `required` or has one
    outside `required` and `optional`.

    A misspelled key would otherwise leave its setting at the default
    without a word, and a missing one would surface as a KeyError or
    TypeError far from the file that lacks it.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, "
                              f"got {type(obj).__name__}")
    out = []
    missing = [key for key in required if key not in obj]
    if missing:
        out.append(f"missing {what} key(s): {', '.join(missing)}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        out.append(f"unknown {what} key(s): {', '.join(unknown)}")
    if out:
        raise ValidationError(out)


def check_types(obj, counts=(), reals=()) -> None:
    """Reject attributes of `obj` named in `counts` that are not ints, or in
    `reals` that are not real numbers; a bool is neither.

    Config values are checked, not coerced: int(1600.7) would run another
    experiment than the file says.
    """
    out = []
    for names, kind, what in ((counts, numbers.Integral, "an int"),
                              (reals, numbers.Real, "a real number")):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                out.append(f"{name} must be {what}, got {value!r}")
    if out:
        raise ValidationError(out)


class JsonRecord:
    """Base of the package's dataclass records: to_json has one key per
    field, each value encoded by json_value."""

    def to_json(self) -> dict:
        return {f.name: json_value(getattr(self, f.name))
                for f in dataclasses.fields(self)}


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


def read_json(path):
    """Parse the JSON file at `path`; malformed JSON is a ParseError that
    names the line it fails on."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc.msg} "
                             f"(column {exc.colno})", line=exc.lineno) from None


def write_json(obj, path=None) -> None:
    """Write json_value(obj) as strict JSON, indented and key-sorted with a
    trailing newline, to `path`, or to stdout when `path` is None."""
    text = json.dumps(json_value(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


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
