"""Exception types shared across the package, and the checks of config keys."""


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


def require_fixed(obj: dict, key: str, value, error=ValidationError) -> None:
    """Reject a config entry `key` unless it is absent or equals `value`.

    For settings the package supports with one value only: configs keep the
    key so that files stay readable, but no other value is accepted.
    """
    got = obj.get(key, value)
    if got != value:
        raise error(f"{key} supports only {value!r}, got {got!r}")


def reject_unknown(obj: dict, known, what: str) -> None:
    """Reject config keys outside `known`.

    A misspelled key would otherwise leave its setting at the default
    without a word.
    """
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValidationError(f"unknown {what} key(s): {', '.join(unknown)}")
