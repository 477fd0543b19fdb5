"""Exception hierarchy, integer checks and the JSON-object file reader shared
across the package; no numpy, so the CLI can load it before `--threads` acts.

The CLI maps these onto exit codes: validation problems exit 2, numeric
failures exit 3, file/container problems exit 4.
"""

import json
import numbers


def is_int(value) -> bool:
    """An integer, Python's or numpy's; bools are not integers."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_count(value) -> bool:
    return is_int(value) and value >= 0


class GridshockError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GridshockError):
    """Input violates a documented precondition or invariant."""


class SchemaError(ValidationError):
    """A delimited input file is missing or misusing declared columns."""


class InsufficientDataError(ValidationError):
    """An analysis has too few qualifying points to produce a result."""


class NumericError(GridshockError):
    """A computation produced non-finite or otherwise unusable values."""


class DivergenceError(NumericError):
    """An iterative procedure (fit or simulation) left the stable regime."""


class FileFormatError(GridshockError):
    """A serialized container is corrupt, truncated, or wrongly versioned."""


def read_json_object(path, kind: str) -> dict:
    """The JSON object held by the `kind` ("config", "scenario") file at `path`;
    text that is not JSON, or JSON that is not an object, is a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{kind} file {path} must hold a JSON object")
    return payload
