"""Exception types shared across the package, and the checks of config keys."""

import numbers


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
